(* Deckcheck: the constraint-graph analysis over rule decks (R012+)
   and the static immunity certificates.

   Two halves, mirroring the module:

   - implication-closure unit tests: the derivation chains behind R012
     (unsatisfiable), R013 (redundant), R014 (non-monotone override
     family), and the pairwise deck-subsumption verdicts (R015);
   - the pruning identity property: certificate-guarded runs emit
     report bytes identical to unguarded runs ([DIC_NO_CERTS]) over
     random layoutgen designs (rotated and mirrored placements
     included) and random-perturbation decks, at jobs 1 and 4, cold
     and warm, single- and multi-deck — the engine-level soundness
     claim, checked end to end. *)

let lambda = 100

let deck_of_string src =
  match Tech.Rules.of_string src with
  | Ok r -> r
  | Error e -> Alcotest.failf "deck did not parse: %s" e

let codes diags = List.map (fun d -> d.Dic.Lint.code) diags

let has code diags = List.mem code (codes diags)

(* ------------------------------------------------------------------ *)
(* Implication closure                                                 *)

let test_default_deck_clean () =
  Alcotest.(check (list string))
    "builtin nmos passes the constraint-graph analysis" []
    (codes (Dic.Deckcheck.check_deck (Tech.Rules.nmos ~lambda ())))

let test_r012_unsatisfiable_pad () =
  let d =
    deck_of_string
      "name t\nlambda 100\npad_metal_surround 40\n"
  in
  let diags = Dic.Deckcheck.check_deck d in
  Alcotest.(check bool) "R012 fires" true (has "R012" diags);
  let r012 = List.find (fun d -> d.Dic.Lint.code = "R012") diags in
  Alcotest.(check bool) "R012 is an error" true
    (r012.Dic.Lint.severity = Dic.Lint.Error);
  (* The chain is satisfiable again once width_metal shrinks below the
     minimal pad: contact_size 200 + 2*40 = 280 >= 250. *)
  let ok =
    deck_of_string "name t\nlambda 100\npad_metal_surround 40\nwidth_metal 250\n"
  in
  Alcotest.(check bool) "satisfiable chain is quiet" false
    (has "R012" (Dic.Deckcheck.check_deck ok))

let test_r013_redundant_entry () =
  (* width_poly 200 restates the lambda-100 default. *)
  let d = deck_of_string "name t\nlambda 100\nwidth_poly 200\n" in
  Alcotest.(check bool) "R013 fires on a written default" true
    (has "R013" (Dic.Deckcheck.check_deck d));
  let d = deck_of_string "name t\nlambda 100\nwidth_poly 300\n" in
  Alcotest.(check bool) "R013 quiet on a real override" false
    (has "R013" (Dic.Deckcheck.check_deck d));
  (* Programmatic decks carry no provenance: stay silent rather than
     flag every field of a deck nobody wrote down. *)
  Alcotest.(check bool) "R013 quiet without provenance" false
    (has "R013" (Dic.Deckcheck.check_deck (Tech.Rules.nmos ~lambda ())))

let test_r014_shadowed_override () =
  let d =
    deck_of_string
      "name t\nlambda 100\nspace_diffusion_poly 80\nspace_poly_diffusion 150\n"
  in
  let diags = Dic.Deckcheck.check_deck d in
  Alcotest.(check bool) "R014 fires" true (has "R014" diags);
  (* Monotone family (override below the directed entry) is fine. *)
  let mono =
    deck_of_string
      "name t\nlambda 100\nspace_diffusion_poly 150\nspace_poly_diffusion 100\n"
  in
  Alcotest.(check bool) "monotone family is quiet" false
    (has "R014" (Dic.Deckcheck.check_deck mono))

let test_r015_relations () =
  let strict = Tech.Rules.nmos ~lambda:200 () in
  let loose = Tech.Rules.nmos ~lambda:100 () in
  let c = Dic.Deckcheck.compare_rules strict loose in
  Alcotest.(check bool) "2x deck subsumes 1x" true
    (c.Dic.Deckcheck.cmp_relation = Dic.Deckcheck.Subsumes);
  let c = Dic.Deckcheck.compare_rules loose strict in
  Alcotest.(check bool) "1x deck is subsumed by 2x" true
    (c.Dic.Deckcheck.cmp_relation = Dic.Deckcheck.Subsumed);
  let c = Dic.Deckcheck.compare_rules loose loose in
  Alcotest.(check bool) "a deck is equivalent to itself" true
    (c.Dic.Deckcheck.cmp_relation = Dic.Deckcheck.Equivalent);
  (* One constraint stricter, another weaker: incomparable. *)
  let a = deck_of_string "name a\nlambda 100\nwidth_poly 300\n" in
  let b = deck_of_string "name b\nlambda 100\nspace_metal 400\n" in
  let c = Dic.Deckcheck.compare_rules a b in
  Alcotest.(check bool) "crossed decks are incomparable" true
    (c.Dic.Deckcheck.cmp_relation = Dic.Deckcheck.Incomparable);
  let diags =
    Dic.Deckcheck.deck_relations [ ("s", strict); ("l", loose) ]
  in
  Alcotest.(check (list string)) "one R015 note per pair" [ "R015" ] (codes diags);
  List.iter
    (fun d ->
      Alcotest.(check bool) "R015 is a note" true
        (d.Dic.Lint.severity = Dic.Lint.Note))
    diags;
  Alcotest.(check int) "three decks, three pairs" 3
    (List.length
       (Dic.Deckcheck.relation_lines
          [ ("a", strict); ("b", loose); ("c", loose) ]))

let test_waiver_suppression () =
  let d =
    deck_of_string
      "name t\nlambda 100\n# lint: allow R012\npad_metal_surround 40\n"
  in
  let diags = Dic.Deckcheck.check_deck d in
  Alcotest.(check bool) "R012 still found" true (has "R012" diags);
  let kept, suppressed =
    Dic.Lint.partition_waived ~waivers:d.Tech.Rules.waivers diags
  in
  Alcotest.(check bool) "R012 filtered from kept" false (has "R012" kept);
  Alcotest.(check (list (pair string int)))
    "suppressed counts" [ ("R012", 1) ]
    (Dic.Lint.code_counts suppressed)

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)

let with_certs enabled f =
  let saved = Dic.Deckcheck.enabled () in
  Dic.Deckcheck.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Dic.Deckcheck.set_enabled saved) f

let report_bytes (multi : Dic.Engine.multi) =
  String.concat "\x00"
    (Format.asprintf "%a@." Dic.Multireport.pp (Dic.Engine.merged multi)
    :: Format.asprintf "%a@." Dic.Multireport.pp_summary (Dic.Engine.merged multi)
    :: List.map
         (fun (dr : Dic.Engine.deck_result) ->
           Format.asprintf "%a@." Dic.Report.pp
             dr.Dic.Engine.dr_result.Dic.Engine.report)
         multi.Dic.Engine.results)

let check_bytes ?metrics ~jobs decks file =
  let e = Dic.Engine.create ~decks (List.hd decks).Dic.Engine.dk_rules in
  let e = Dic.Engine.with_jobs e jobs in
  let e = Dic.Engine.with_lint e true in
  let once () =
    match Dic.Engine.check ?metrics e file with
    | Ok m -> report_bytes m
    | Error msg -> "engine error: " ^ msg
  in
  let cold = once () in
  let warm = once () in
  (cold, warm)

let test_skips_fire () =
  (* A clean replicated design: the certificates must actually prune
     work (the analysis.certified_skips counter is the bench's whole
     point), and the pruned report must match the unpruned one. *)
  let file = Layoutgen.Pla.tier ~lambda ~rows:8 ~cols:8 in
  let deck = Dic.Engine.deck (Tech.Rules.nmos ~lambda ()) in
  let m = Dic.Metrics.create () in
  let on, _ = with_certs true (fun () -> check_bytes ~metrics:m ~jobs:1 [ deck ] file) in
  let off, _ = with_certs false (fun () -> check_bytes ~jobs:1 [ deck ] file) in
  Alcotest.(check string) "pruned = unpruned bytes" off on;
  Alcotest.(check bool) "certified skips fired" true
    (Dic.Metrics.counter m "analysis.certified_skips" > 0);
  Alcotest.(check bool) "certificates were computed" true
    (Dic.Metrics.counter m "analysis.certs_computed" > 0)

module B = Layoutgen.Builder
module T = Geom.Transform

(* A small seeded hierarchy with rotated and mirrored calls: two leaf
   cells of random routing boxes and a middle cell that places one of
   them turned.  The top level places one pair of cells at a fixed
   relative placement under several global orientations, so one
   placement class recurs in several frames, at a gap the deck may or
   may not clear.  Chain, grid and PLA tiers place nothing turned. *)
let rotated_file seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let l v = v * lambda in
  let layers = [| "NM"; "NP"; "ND" |] in
  let boxes () =
    List.init (1 + int 4) (fun _ ->
        let x = int 8 and y = int 8 in
        B.box ~layer:layers.(int 3) (l x) (l y) (l (x + 2 + int 3)) (l (y + 2 + int 3)))
  in
  let turn () =
    T.compose
      (T.rotate [| `East; `North; `West; `South |].(int 4))
      [| T.identity; T.mirror_x |].(int 2)
  in
  let call callee transform = { Cif.Ast.callee; transform; call_loc = None } in
  let c1 = B.symbol ~id:1 ~name:"c1" (boxes ()) []
  and c2 = B.symbol ~id:2 ~name:"c2" (boxes ()) [] in
  let m3 =
    B.symbol ~id:3 ~name:"m3" (boxes ())
      [ call 1 (T.compose (T.translate (l (14 + int 4)) 0) (turn ())) ]
  in
  let ids = [| 1; 2; 3 |] in
  let a = ids.(int 3) and b = ids.(int 3) in
  let rel = T.compose (T.translate (l (13 + int 6)) (l (int 6))) (turn ()) in
  let pairs =
    List.concat
      (List.init (2 + int 4) (fun i ->
           let at = T.compose (T.translate (l (80 * i)) 0) (turn ()) in
           [ call a at; call b (T.compose at rel) ]))
  in
  B.file ~symbols:[ c1; c2; m3 ] ~top_calls:pairs ()

(* The QCheck identity property: random design x random deck pair,
   certs on == certs off, jobs 1 and 4, cold and warm, single- and
   multi-deck.  Seeded (fixed rand state below) so failures replay. *)

let design_gen =
  QCheck2.Gen.(
    oneof
      [ map rotated_file (int_bound 1_000_000);
        map (fun n -> Layoutgen.Cells.chain ~lambda (1 + n)) (int_bound 3);
        map
          (fun (nx, ny) -> Layoutgen.Cells.grid ~lambda ~nx:(1 + nx) ~ny:(1 + ny))
          (pair (int_bound 2) (int_bound 2));
        map
          (fun (rows, cols) ->
            Layoutgen.Pla.tier ~lambda ~rows:(2 + rows) ~cols:(2 + cols))
          (pair (int_bound 4) (int_bound 4)) ])

(* Half the designs get ground-truth errors injected: the identity must
   hold on dirty designs, where skipping a task that would have fired
   would actually change bytes. *)
let injected_gen =
  QCheck2.Gen.(
    map
      (fun (file, dirty) ->
        if dirty then
          fst
            (Layoutgen.Inject.apply file
               (Layoutgen.Inject.standard_batch ~lambda ~at:(-6000, -6000)
                  ~step:(30 * lambda)))
        else file)
      (pair design_gen bool))

(* Random perturbation of the NMOS deck: quantum-aligned widths and
   spacings around the defaults, so some decks are stricter, some
   looser, some contradictory. *)
let deck_gen =
  QCheck2.Gen.(
    map
      (fun ((wp, sm), spd) ->
        let q = lambda / 4 in
        Dic.Engine.deck
          (deck_of_string
             (Printf.sprintf
                "name perturbed\nlambda %d\nwidth_poly %d\nspace_metal %d\nspace_poly_diffusion %d\n"
                lambda (wp * q) (sm * q) (spd * q))))
      (pair (pair (int_range 4 16) (int_range 8 20)) (int_range 4 12)))

let case_gen = QCheck2.Gen.(pair injected_gen (pair deck_gen deck_gen))

let prune_identity_prop =
  QCheck2.Test.make ~name:"certificate pruning never changes report bytes"
    ~count:20 case_gen (fun (file, (d1, d2)) ->
      List.for_all
        (fun decks ->
          let decks = Dic.Engine.dedupe_labels decks in
          let base, base_warm =
            with_certs false (fun () -> check_bytes ~jobs:1 decks file)
          in
          if base_warm <> base then
            QCheck2.Test.fail_reportf "certs-off warm differs from cold";
          List.for_all
            (fun (certs, jobs) ->
              let cold, warm =
                with_certs certs (fun () -> check_bytes ~jobs decks file)
              in
              if cold <> base then
                QCheck2.Test.fail_reportf
                  "certs=%b jobs=%d cold differs from baseline" certs jobs;
              if warm <> base then
                QCheck2.Test.fail_reportf
                  "certs=%b jobs=%d warm differs from baseline" certs jobs;
              true)
            [ (true, 1); (true, 4); (false, 4) ])
        [ [ d1 ]; [ d1; d2 ] ])

(* Certificates are built for callees only: the root is nobody's
   callee, and no guard reads its certificate. *)
let test_root_never_certified () =
  List.iter
    (fun (name, file) ->
      let m = Dic.Metrics.create () in
      ignore
        (with_certs true (fun () ->
             check_bytes ~metrics:m ~jobs:1 [ Dic.Engine.deck (Tech.Rules.nmos ~lambda ()) ] file));
      Alcotest.(check int)
        (name ^ ": one certificate per non-root symbol")
        (Dic.Metrics.counter m "model.symbols")
        (Dic.Metrics.counter m "analysis.certs_computed"))
    [ ("pla-4x4", Layoutgen.Pla.tier ~lambda ~rows:4 ~cols:4);
      ("rotated hierarchy", rotated_file 7) ]

(* The rotated hierarchies the identity property draws do exercise the
   guard: some of their placement classes, whose pairs are placed
   rotated and mirrored, are proved silent. *)
let test_rotated_classes_skip () =
  let deck = Dic.Engine.deck (Tech.Rules.nmos ~lambda ()) in
  let m = Dic.Metrics.create () in
  List.iter
    (fun seed ->
      ignore
        (with_certs true (fun () ->
             check_bytes ~metrics:m ~jobs:1 [ deck ] (rotated_file seed))))
    (List.init 20 Fun.id);
  Alcotest.(check bool) "some rotated class proved silent" true
    (Dic.Metrics.counter m "analysis.certified_skips" > 0)

let () =
  Alcotest.run "deckcheck"
    [ ( "closure",
        [ Alcotest.test_case "default deck clean" `Quick test_default_deck_clean;
          Alcotest.test_case "R012 unsatisfiable" `Quick test_r012_unsatisfiable_pad;
          Alcotest.test_case "R013 redundant" `Quick test_r013_redundant_entry;
          Alcotest.test_case "R014 shadowed override" `Quick
            test_r014_shadowed_override;
          Alcotest.test_case "R015 relations" `Quick test_r015_relations;
          Alcotest.test_case "waiver suppression" `Quick test_waiver_suppression ] );
      ( "certificates",
        [ Alcotest.test_case "skips fire, bytes identical" `Quick test_skips_fire;
          Alcotest.test_case "root never certified" `Quick test_root_never_certified;
          Alcotest.test_case "rotated classes skip" `Quick test_rotated_classes_skip;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0xd1c |])
            prune_identity_prop ] ) ]
