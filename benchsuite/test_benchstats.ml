(* The benchmark's statistics and verdict rules. *)

module S = Benchstats

let close = Alcotest.float 1e-9

let test_quartiles () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, m, q3 = S.quartiles xs in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "median" 5.5 m;
  Alcotest.check close "q3" 8.25 q3;
  Alcotest.check close "odd median" 3. (S.median [ 5.; 1.; 3. ]);
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
     exclusive method extrapolates on tiny samples *)
  let q1, m, q3 = S.quartiles [ 2.; 1. ] in
  Alcotest.check close "tiny q1" 0.75 q1;
  Alcotest.check close "tiny median" 1.5 m;
  Alcotest.check close "tiny q3" 2.25 q3;
  Alcotest.check close "single" 4. (S.median [ 4. ])

let test_tail_percentile () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) want (S.tail_percentile n))
    [ (19, None); (20, Some 50); (40, Some 75); (100, Some 90); (199, Some 90);
      (200, Some 95); (999, Some 95); (1000, Some 99); (1200, Some 99) ]

let span sp_name sp_start sp_dur = { S.sp_name; sp_start; sp_dur }

let test_self_times () =
  let spans =
    [ span "check" 0. 10.; span "a" 1. 2.; span "b" 4. 4.; span "b.inner" 5. 1.;
      span "after" 12. 1.; span "edge" 9. 1. ]
  in
  let self = S.self_times spans in
  List.iter
    (fun (name, want) -> Alcotest.check close name want (List.assoc name self))
    [ ("check", 10. -. 2. -. 4. -. 1.); ("a", 2.); ("b", 3.); ("b.inner", 1.);
      ("after", 1.); ("edge", 1.) ];
  Alcotest.(check (list string))
    "input order" [ "check"; "a"; "b"; "b.inner"; "after"; "edge" ] (List.map fst self)

let side xs = S.side_of_samples xs

let test_verdict () =
  let v ?(better = S.Lower) a b =
    S.string_of_verdict (S.verdict ~better ~bound:0.1 (side a) (side b))
  in
  let check name want got = Alcotest.(check string) name want got in
  let base = [ 0.99; 1.0; 1.01 ] in
  check "slower beyond the bound" "worse" (v base [ 1.19; 1.2; 1.21 ]);
  check "faster beyond the bound" "improved" (v base [ 0.84; 0.85; 0.86 ]);
  check "within the bound" "unchanged" (v base [ 1.04; 1.05; 1.06 ]);
  check "higher is better: a drop" "worse" (v ~better:S.Higher base [ 0.8; 0.81; 0.82 ]);
  (* spread wider than the bound: medians alone decide nothing *)
  let wide = [ 0.5; 1.0; 1.5 ] in
  check "wide, dominated" "worse" (v wide [ 1.6; 1.7; 1.8 ]);
  check "wide, dominating" "improved" (v wide [ 0.3; 0.35; 0.4 ]);
  check "wide, overlapping" "unresolved" (v wide [ 0.8; 1.2; 1.9 ]);
  Alcotest.check close "worsening" 0.2
    (S.worsening ~better:S.Lower (side [ 1. ]) (side [ 1.2 ]))

let test_identity () =
  let report = "[elements/error] width.NP: 100 < 200\n1 error(s), 0 warning(s), 3 net(s)\n" in
  Alcotest.(check bool) "identical" true
    (S.identical ~what:"report" ~expected:report report = Ok ());
  let tampered = String.mapi (fun i c -> if i = 30 then '9' else c) report in
  (match S.identical ~what:"report" ~expected:report tampered with
  | Ok () -> Alcotest.fail "a mismatched report passed the identity check"
  | Error _ -> ());
  Alcotest.(check (option int)) "first difference" (Some 30)
    (S.first_difference ~expected:report tampered);
  Alcotest.(check (option int)) "truncated" (Some 5)
    (S.first_difference ~expected:report (String.sub report 0 5));
  Alcotest.(check (option int)) "equal" None (S.first_difference ~expected:"ab" "ab")

let () =
  Alcotest.run "benchstats"
    [ ( "stats",
        [ Alcotest.test_case "median and quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "self time of nested spans" `Quick test_self_times ] );
      ( "compare",
        [ Alcotest.test_case "verdict rule" `Quick test_verdict;
          Alcotest.test_case "report identity" `Quick test_identity ] ) ]
