(* Engines: persistent-cache reuse and invalidation, the cold/warm
   determinism invariant, corruption fallback, the serve protocol, and
   the minimal JSON codec under it. *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda

(* ------------------------------------------------------------------ *)
(* Scratch cache directories                                           *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_cache_dir f =
  let dir = Filename.temp_file "dic_test_cache" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let check_ok engine file =
  match Result.map Dic.Engine.primary @@ Dic.Engine.check engine file with
  | Ok (result, reuse) -> (result, reuse)
  | Error e -> Alcotest.fail e

let report_text (result : Dic.Engine.result) =
  Format.asprintf "%a@." Dic.Report.pp result.Dic.Engine.report
  ^ Format.asprintf "%a@." Dic.Engine.pp_summary result

(* A workload with real interactions and a known violation, so the
   report compared for byte-identity is not trivially empty. *)
let workload () =
  let clean = Layoutgen.Cells.grid ~lambda ~nx:3 ~ny:2 in
  fst
    (Layoutgen.Inject.apply clean
       [ Layoutgen.Inject.narrow_poly_wire ~lambda ~at:(-30 * lambda, -30 * lambda) ])

(* ------------------------------------------------------------------ *)
(* Persistent cache: reuse and determinism                             *)

let test_warm_recheck_reuses_and_matches () =
  with_cache_dir (fun dir ->
      let file = workload () in
      let cold, r0 = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      Alcotest.(check int) "cold run computes everything" 0 r0.Dic.Engine.symbols_reused;
      (* A brand-new engine over the same directory: everything comes
         back from disk, and the report is byte-identical. *)
      let warm, r1 = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      Alcotest.(check int) "all definitions reused" r1.Dic.Engine.symbols_total
        r1.Dic.Engine.symbols_reused;
      Alcotest.(check bool) "definitions came from disk" true
        (r1.Dic.Engine.symbols_reused > 0);
      Alcotest.(check string) "warm report byte-identical" (report_text cold)
        (report_text warm))

let test_warm_recheck_matches_at_jobs4 () =
  with_cache_dir (fun dir ->
      let file = workload () in
      let cold, _ = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      (* [jobs] is excluded from the environment digest, so a parallel
         warm run shares the sequential run's cache — and must still
         produce the same bytes. *)
      let e4 = Dic.Engine.with_jobs (Dic.Engine.create ~cache_dir:dir rules) 4 in
      let warm, r1 = check_ok e4 file in
      Alcotest.(check bool) "parallel run hits the sequential cache" true
        (r1.Dic.Engine.symbols_reused > 0);
      Alcotest.(check string) "jobs=4 warm report byte-identical" (report_text cold)
        (report_text warm))

let test_symbol_edit_invalidates_only_that_symbol () =
  with_cache_dir (fun dir ->
      let file = Layoutgen.Cells.chain ~lambda 3 in
      ignore (check_ok (Dic.Engine.create ~cache_dir:dir rules) file);
      (* Edit the top level only. *)
      let salted, _ =
        Layoutgen.Inject.apply file
          [ Layoutgen.Inject.narrow_poly_wire ~lambda ~at:(0, -20 * lambda) ]
      in
      let result, r = check_ok (Dic.Engine.create ~cache_dir:dir rules) salted in
      Alcotest.(check int) "all but the edited root reused"
        (r.Dic.Engine.symbols_total - 1) r.Dic.Engine.symbols_reused;
      Alcotest.(check bool) "the new defect is found" true
        (List.exists
           (fun (v : Dic.Report.violation) ->
             String.length v.Dic.Report.rule >= 5
             && String.sub v.Dic.Report.rule 0 5 = "width")
           (Dic.Report.errors result.Dic.Engine.report)))

let test_rules_change_invalidates () =
  with_cache_dir (fun dir ->
      let file = Layoutgen.Cells.chain ~lambda 2 in
      ignore (check_ok (Dic.Engine.create ~cache_dir:dir rules) file);
      let strict = { rules with Tech.Rules.width_metal = 4 * lambda } in
      let _, r = check_ok (Dic.Engine.create ~cache_dir:dir strict) file in
      Alcotest.(check int) "different rules miss the cache" 0 r.Dic.Engine.symbols_reused)

let test_config_change_invalidates () =
  with_cache_dir (fun dir ->
      let file = Layoutgen.Cells.chain ~lambda 2 in
      ignore (check_ok (Dic.Engine.create ~cache_dir:dir rules) file);
      let e = Dic.Engine.with_same_net (Dic.Engine.create ~cache_dir:dir rules) true in
      let _, r = check_ok e file in
      Alcotest.(check int) "different config misses the cache" 0
        r.Dic.Engine.symbols_reused;
      (* But jobs is cost-only: it does not change the environment. *)
      let e' = Dic.Engine.with_jobs (Dic.Engine.create ~cache_dir:dir rules) 3 in
      let _, r' = check_ok e' file in
      Alcotest.(check int) "jobs alone keeps the cache" r'.Dic.Engine.symbols_total
        r'.Dic.Engine.symbols_reused)

let test_corrupted_cache_falls_back_to_cold () =
  with_cache_dir (fun dir ->
      let file = workload () in
      let cold, _ = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      (* Stomp every cache file with garbage. *)
      let rec stomp path =
        if Sys.is_directory path then
          Array.iter (fun n -> stomp (Filename.concat path n)) (Sys.readdir path)
        else Out_channel.with_open_bin path (fun oc -> output_string oc "garbage")
      in
      stomp dir;
      let warm, r = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      Alcotest.(check int) "nothing reused from a corrupt cache" 0
        r.Dic.Engine.symbols_reused;
      Alcotest.(check string) "run still correct" (report_text cold) (report_text warm))

(* A cache written by the previous payload format: the old magic in
   front of an intact digest and payload.  The digest still matches, so
   only the magic stands between the reader and a foreign [Marshal]
   shape — it must read as a miss. *)
let test_old_magic_reads_as_miss () =
  with_cache_dir (fun dir ->
      let file = workload () in
      let cold, _ = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      let rec restamp path =
        if Sys.is_directory path then
          Array.iter (fun n -> restamp (Filename.concat path n)) (Sys.readdir path)
        else begin
          let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "dicache3")
        end
      in
      restamp dir;
      let warm, r = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      Alcotest.(check int) "no definition reused across formats" 0
        r.Dic.Engine.symbols_reused;
      Alcotest.(check int) "no definition read from disk" 0 r.Dic.Engine.symbols_reused;
      Alcotest.(check string) "cold report" (report_text cold) (report_text warm))

(* Memoised interaction candidates carry net groups in their callees'
   numbering, so the memo's disk address must cover everything net
   generation reads.  The cell's two metal bars overlap by 2 lambda:
   their skeletons touch under a 2-lambda metal width but not under the
   default 3 lambda, so the two decks number the cell's nets
   differently while sharing [max_dist], hence one memo environment.
   The top level stacks pairs of the cell 2 lambda apart under all
   eight orientations, so spacing verdicts depend on those nets.  Each
   deck's first cached, warm in-session and warm-from-disk reports must
   equal its cold report, whichever deck filled the cache before. *)
let bars_file () =
  let module B = Layoutgen.Builder in
  let module T = Geom.Transform in
  let l v = v * lambda in
  let bars =
    B.symbol ~id:70 ~name:"bars"
      [ B.box ~layer:"NM" ~net:"VDD!" 0 0 (l 10) (l 4); B.box ~layer:"NM" (l 8) 0 (l 18) (l 4) ]
      []
  in
  let call transform = { Cif.Ast.callee = 70; transform; call_loc = None } in
  let orientations =
    List.concat_map
      (fun m -> List.map (fun r -> T.compose (T.rotate r) m) [ `East; `North; `West; `South ])
      [ T.identity; T.mirror_x ]
  in
  B.file ~symbols:[ bars ]
    ~top_calls:
      (List.concat
         (List.mapi
            (fun k o ->
              let at = T.compose (T.translate (l (60 * k)) 0) o in
              [ call at; call (T.compose at (T.translate 0 (l 6))) ])
            orientations))
    ()

let test_memo_nets_follow_widths () =
  with_cache_dir (fun dir ->
      let file = bars_file () in
      let narrow = { rules with Tech.Rules.width_metal = 2 * lambda } in
      Alcotest.(check int) "one memo environment" (Dic.Interactions.max_dist rules)
        (Dic.Interactions.max_dist narrow);
      let cold deck = report_text (fst (check_ok (Dic.Engine.create deck) file)) in
      Alcotest.(check bool) "the decks disagree" true (cold rules <> cold narrow);
      List.iter
        (fun (name, deck) ->
          let want = cold deck in
          let session = Dic.Engine.create ~cache_dir:dir deck in
          let first, _ = check_ok session file in
          let warm, _ = check_ok session file in
          let disk, _ = check_ok (Dic.Engine.create ~cache_dir:dir deck) file in
          List.iter
            (fun (what, r) -> Alcotest.(check string) (name ^ ", " ^ what) want (report_text r))
            [ ("first cached run", first); ("warm in session", warm); ("warm from disk", disk) ])
        [ ("default", rules); ("narrow metal", narrow); ("default again", rules) ])

(* A recheck after editing a called cell, not the root.  The tile sits
   two levels down: a row calls it twice, and the top level places
   stacked pairs of rows in all eight orientations.  Neighbouring tiles
   and rows are closer than the metal spacing before and after the
   edit, so no placement class is certified silent and every pair is
   judged; growing the tile moves those findings while the row and the
   top level keep their fingerprints.  The warm report must equal a
   cold check of the edited design, at jobs 1 and 2: through one
   engine, whose handle replays from its table (the directory is
   emptied between the checks), and through a new engine that reads
   the directory. *)
let tile_file ~w ~h =
  let module B = Layoutgen.Builder in
  let l v = v * lambda in
  let tile = B.symbol ~id:80 ~name:"tile" [ B.box ~layer:"NM" 0 0 (l w) (l h) ] [] in
  let row = B.symbol ~id:81 ~name:"row" [] [ B.call 80; B.call ~at:(l 14, 0) 80 ] in
  let placements =
    List.concat_map
      (fun mirror -> List.map (fun rot -> (rot, mirror)) [ `East; `North; `West; `South ])
      [ None; Some `X ]
  in
  B.file ~symbols:[ tile; row ]
    ~top_calls:
      (List.concat
         (List.mapi
            (fun k (rot, mirror) ->
              let x = l (60 * k) in
              let dx, dy =
                match rot with `East | `West -> (0, l 6) | `North | `South -> (l 6, 0)
              in
              [ B.call ~at:(x, 0) ~rot ?mirror 81; B.call ~at:(x + dx, dy) ~rot ?mirror 81 ])
            placements))
    ()

let test_called_cell_edit_matches_cold () =
  let before = tile_file ~w:12 ~h:4 and after = tile_file ~w:13 ~h:5 in
  List.iter
    (fun jobs ->
      let engine ?cache_dir () = Dic.Engine.with_jobs (Dic.Engine.create ?cache_dir rules) jobs in
      let cold f = report_text (fst (check_ok (engine ()) f)) in
      let want = cold after in
      let name what = Printf.sprintf "jobs %d, %s" jobs what in
      Alcotest.(check bool) (name "the edit changes the report") true (cold before <> want);
      with_cache_dir (fun dir ->
          let session = engine ~cache_dir:dir () in
          ignore (check_ok session before);
          rm_rf (Filename.concat dir "defs");
          let warm, r = check_ok session after in
          Alcotest.(check int) (name "in session, only the tile recomputed")
            (r.Dic.Engine.symbols_total - 1) r.Dic.Engine.symbols_reused;
          Alcotest.(check string) (name "in session") want (report_text warm));
      with_cache_dir (fun dir ->
          ignore (check_ok (engine ~cache_dir:dir ()) before);
          let disk, r = check_ok (engine ~cache_dir:dir ()) after in
          Alcotest.(check int) (name "from disk, only the tile recomputed")
            (r.Dic.Engine.symbols_total - 1) r.Dic.Engine.symbols_reused;
          Alcotest.(check string) (name "warm from disk") want (report_text disk)))
    [ 1; 2 ]

(* Cache trouble costs a recheck, never a crash.  With [DIR/defs]
   replaced by a regular file between two checks of one session, the
   second check's stores fail and are dropped, and it still returns the
   cold report of the edited design.  A new engine refuses the
   directory at creation. *)
let test_unwritable_cache_mid_session () =
  with_cache_dir (fun dir ->
      let file = workload () in
      let edited, _ =
        Layoutgen.Inject.apply file
          [ Layoutgen.Inject.metal_spacing_pair ~lambda ~at:(-60 * lambda, -60 * lambda) ]
      in
      let session = Dic.Engine.create ~cache_dir:dir rules in
      ignore (check_ok session file);
      let defs = Filename.concat dir "defs" in
      rm_rf defs;
      Out_channel.with_open_bin defs (fun oc -> output_string oc "not a directory");
      let warm, _ = check_ok session edited in
      let cold, _ = check_ok (Dic.Engine.create rules) edited in
      Alcotest.(check string) "edited check returns the cold report" (report_text cold)
        (report_text warm);
      Alcotest.(check bool) "a new engine refuses the directory" true
        (match Dic.Engine.create ~cache_dir:dir rules with
        | _ -> false
        | exception Sys_error _ -> true))

(* Findings carry the CIF positions of the definition and its
   elements, so a check of the same cell moved down one line must not
   replay the unmoved cell's entries.  Through the handle that stored
   them, and through a new handle on the same directory, the shifted
   text gives the cold report and SARIF bytes. *)
let test_shifted_positions_match_cold () =
  let src = "DS 1;\nL NM;\nB 100 400 200 200;\nDF;\nC 1;\nE\n" in
  let shifted = "(one more line);\n" ^ src in
  let texts engine src =
    match Dic.Engine.check_string engine src with
    | Ok m -> (Dic.Engine.report_text m, Dic.Engine.sarif ~set:false ~uri:"cell.cif" m)
    | Error e -> Alcotest.fail e
  in
  let cold = texts (Dic.Engine.create rules) shifted in
  Alcotest.(check bool) "the shift moves the finding" true
    (fst cold <> fst (texts (Dic.Engine.create rules) src));
  with_cache_dir (fun dir ->
      let session = Dic.Engine.create ~cache_dir:dir rules in
      ignore (texts session src);
      let fresh = texts (Dic.Engine.create ~cache_dir:dir rules) shifted in
      let same = texts session shifted in
      Alcotest.(check (pair string string)) "new handle" cold fresh;
      Alcotest.(check (pair string string)) "same handle" cold same)

(* No cache directory: the engine keeps nothing between checks, and
   never addresses the cache (no "cache"-category span). *)
let test_no_cache_dir_reuses_nothing () =
  let e = Dic.Engine.create rules in
  let file = Layoutgen.Cells.grid ~lambda ~nx:3 ~ny:2 in
  let first, r0 = check_ok e file in
  let trace = Dic.Trace.create () in
  let second, r1 =
    match Result.map Dic.Engine.primary @@ Dic.Engine.check ~trace e file with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "first check reuses nothing" 0 r0.Dic.Engine.symbols_reused;
  Alcotest.(check int) "second check reuses nothing" 0 r1.Dic.Engine.symbols_reused;
  Alcotest.(check string) "same bytes" (report_text first) (report_text second);
  Alcotest.(check (list string)) "no cache spans" []
    (List.filter_map
       (fun (ev : Dic.Trace.event) ->
         if ev.Dic.Trace.e_cat = "cache" then Some ev.Dic.Trace.e_name else None)
       (Dic.Trace.events trace))

(* ------------------------------------------------------------------ *)
(* Whole-pipeline parallelism: byte-identity across jobs               *)

module Json = Tjson

(* Enough distinct definitions with real element work that the
   per-definition stages genuinely fan out (stage parallelism wants at
   least two fresh definitions), plus an injected defect so the report
   compared for identity is not empty. *)
let stage_workload () =
  fst
    (Layoutgen.Inject.apply
       (Layoutgen.Pla.tier ~lambda ~rows:4 ~cols:6)
       [ Layoutgen.Inject.narrow_poly_wire ~lambda ~at:(-40 * lambda, -40 * lambda) ])

(* The stats JSON *shape*: every number zeroed and the timing-dependent
   histogram bucket lists emptied, leaving stage names and order,
   counter keys, histogram/gauge/cost keys.  Counter values may
   legitimately vary with [jobs] (the memo hit/miss split); the shape
   may not. *)
let stats_shape m =
  let rec zero = function
    | Json.Num _ -> Json.Num 0.
    | Json.Arr l -> Json.Arr (List.map zero l)
    | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, v) -> (k, if k = "buckets" then Json.Arr [] else zero v))
           kvs)
    | v -> v
  in
  let rec render = function
    | Json.Null -> "null"
    | Json.Bool b -> string_of_bool b
    | Json.Num f -> Printf.sprintf "%g" f
    | Json.Str s -> Printf.sprintf "%S" s
    | Json.Arr l -> "[" ^ String.concat "," (List.map render l) ^ "]"
    | Json.Obj kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (render v)) kvs)
      ^ "}"
  in
  render (zero (Json.parse (Dic.Metrics.to_json m)))

let check_with_metrics engine file =
  let m = Dic.Metrics.create () in
  match Result.map Dic.Engine.primary @@ Dic.Engine.check ~metrics:m engine file with
  | Ok (result, _) -> (result, m)
  | Error e -> Alcotest.fail e

let test_pipeline_bytes_across_jobs () =
  let file = stage_workload () in
  let run jobs =
    let e = Dic.Engine.with_jobs (Dic.Engine.create rules) jobs in
    let cold, mc = check_with_metrics e file in
    let warm, mw = check_with_metrics e file in
    ( report_text cold,
      Dic.Sarif.of_report cold.Dic.Engine.report,
      stats_shape mc, report_text warm, stats_shape mw )
  in
  let r1, s1, j1, w1, jw1 = run 1 in
  Alcotest.(check bool) "workload has the injected violation" true
    (Astring_contains.contains r1 "width");
  List.iter
    (fun jobs ->
      let r, s, j, w, jw = run jobs in
      let name what = Printf.sprintf "%s at jobs=%d" what jobs in
      Alcotest.(check string) (name "cold report bytes") r1 r;
      Alcotest.(check string) (name "SARIF bytes") s1 s;
      Alcotest.(check string) (name "stats JSON shape") j1 j;
      Alcotest.(check string) (name "warm report bytes") w1 w;
      Alcotest.(check string) (name "warm stats shape") jw1 jw)
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Lint across checks                                                  *)

let test_lint_report_stable_across_checks () =
  let e = Dic.Engine.with_lint (Dic.Engine.create rules) true in
  let file = stage_workload () in
  let first, _ = check_ok e file in
  let second, _ = check_ok e file in
  Alcotest.(check string) "lint-bearing report byte-identical"
    (report_text first) (report_text second)

(* ------------------------------------------------------------------ *)
(* Multi-deck sessions                                                 *)

let multi_ok engine file =
  match Dic.Engine.check engine file with
  | Ok m -> m
  | Error e -> Alcotest.fail e

let merged_text (m : Dic.Engine.multi) =
  Format.asprintf "%a@." Dic.Multireport.pp (Dic.Engine.merged m)
  ^ Format.asprintf "%a@." Dic.Multireport.pp_summary (Dic.Engine.merged m)

(* A second deck with a tighter metal width: the 3-lambda rails violate
   it, so the two decks genuinely disagree. *)
let strict_deck () =
  Dic.Engine.deck ~label:"strict"
    { rules with Tech.Rules.width_metal = 4 * lambda; Tech.Rules.name = "strict" }

let base_deck () = Dic.Engine.deck ~label:"base" rules

let test_multideck_n1_matches_single () =
  let file = workload () in
  let plain, _ = check_ok (Dic.Engine.create rules) file in
  let m = multi_ok (Dic.Engine.create ~decks:[ base_deck () ] rules) file in
  let viaset, _ = Dic.Engine.primary m in
  Alcotest.(check string) "decks:[d] = plain engine, byte for byte"
    (report_text plain) (report_text viaset);
  Alcotest.(check int) "one summary" 1
    (List.length (Dic.Engine.merged m).Dic.Multireport.summaries)

let test_multideck_per_deck_matches_alone () =
  let file = workload () in
  let decks = [ base_deck (); strict_deck () ] in
  let m = multi_ok (Dic.Engine.create ~decks rules) file in
  List.iter2
    (fun (d : Dic.Engine.deck) (dr : Dic.Engine.deck_result) ->
      let alone, _ = check_ok (Dic.Engine.create d.Dic.Engine.dk_rules) file in
      Alcotest.(check string)
        (d.Dic.Engine.dk_label ^ " in the set = checked alone")
        (report_text alone)
        (report_text dr.Dic.Engine.dr_result))
    decks m.Dic.Engine.results;
  (* The strict deck flags the rails; the base deck does not — the
     verdict distinguishes them. *)
  Alcotest.(check (list string)) "compliant decks" []
    (List.filter (fun l -> l = "strict")
       (Dic.Multireport.compliant (Dic.Engine.merged m)))

(* A deck's verdict does not depend on its place in the set.  The
   narrow-metal deck elaborates the bars differently from the built-in
   deck (its metal skeletons are wider), so each deck must be judged on
   its own skeletons, nets and D005 widths: alone, the narrow deck
   reads 0 errors, 0 warnings and 1 net; behind the built-in deck it
   once read 26 errors and 17 nets, and in front of it hid the built-in
   deck's 26 errors. *)
let deck_order_case ~lint () =
  let file = bars_file () in
  let narrow =
    Dic.Engine.deck ~label:"narrow"
      { rules with Tech.Rules.width_metal = 2 * lambda; Tech.Rules.name = "narrow" }
  in
  let engine ?decks r = Dic.Engine.with_lint (Dic.Engine.create ?decks r) lint in
  let alone (d : Dic.Engine.deck) =
    report_text (fst (check_ok (engine d.Dic.Engine.dk_rules) file))
  in
  List.iter
    (fun decks ->
      let m = multi_ok (engine ~decks rules) file in
      List.iteri
        (fun i ((d : Dic.Engine.deck), (dr : Dic.Engine.deck_result)) ->
          Alcotest.(check string)
            (Printf.sprintf "%s as deck %d = checked alone" d.Dic.Engine.dk_label (i + 1))
            (alone d) (report_text dr.Dic.Engine.dr_result))
        (List.combine decks m.Dic.Engine.results))
    [ [ base_deck (); narrow ]; [ narrow; base_deck () ] ]

let test_multideck_merged_bytes_across_jobs () =
  let file = workload () in
  let decks = [ base_deck (); strict_deck () ] in
  let m1 =
    multi_ok (Dic.Engine.with_jobs (Dic.Engine.create ~decks rules) 1) file
  in
  let m4 =
    multi_ok (Dic.Engine.with_jobs (Dic.Engine.create ~decks rules) 4) file
  in
  Alcotest.(check string) "merged report identical at jobs 1 and 4"
    (merged_text m1) (merged_text m4)

let test_multideck_sarif_across_jobs () =
  let file = stage_workload () in
  let decks = [ base_deck (); strict_deck () ] in
  let sarif jobs =
    let m =
      multi_ok (Dic.Engine.with_jobs (Dic.Engine.create ~decks rules) jobs) file
    in
    Dic.Sarif.of_reports
      (List.map2
         (fun (d : Dic.Engine.deck) (dr : Dic.Engine.deck_result) ->
           ( d.Dic.Engine.dk_label, d.Dic.Engine.dk_rules,
             dr.Dic.Engine.dr_result.Dic.Engine.report ))
         decks m.Dic.Engine.results)
  in
  let base = sarif 1 in
  Alcotest.(check bool) "SARIF is substantial" true (String.length base > 100);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "multi-deck SARIF bytes at jobs=%d" jobs)
        base (sarif jobs))
    [ 2; 4; 8 ]

let test_multideck_cache_independence () =
  with_cache_dir (fun dir ->
      let file = workload () in
      (* Warm deck A alone, then check the pair over the same cache:
         A replays fully, B computes fully — warming A never primed B. *)
      let cold_a, _ = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      let decks = [ base_deck (); strict_deck () ] in
      let m = multi_ok (Dic.Engine.create ~cache_dir:dir ~decks rules) file in
      (match m.Dic.Engine.results with
      | [ a; b ] ->
        Alcotest.(check int) "deck A fully reused"
          a.Dic.Engine.dr_reuse.Dic.Engine.symbols_total
          a.Dic.Engine.dr_reuse.Dic.Engine.symbols_reused;
        Alcotest.(check int) "deck B untouched by A's warmth" 0
          b.Dic.Engine.dr_reuse.Dic.Engine.symbols_reused;
        Alcotest.(check string) "A's warm report = A's cold report"
          (report_text cold_a)
          (report_text a.Dic.Engine.dr_result)
      | _ -> Alcotest.fail "expected two deck results");
      (* Round three: both decks warm now. *)
      let m2 = multi_ok (Dic.Engine.create ~cache_dir:dir ~decks rules) file in
      List.iter
        (fun (dr : Dic.Engine.deck_result) ->
          Alcotest.(check int)
            (dr.Dic.Engine.dr_deck.Dic.Engine.dk_label ^ " fully warm")
            dr.Dic.Engine.dr_reuse.Dic.Engine.symbols_total
            dr.Dic.Engine.dr_reuse.Dic.Engine.symbols_reused)
        m2.Dic.Engine.results;
      Alcotest.(check string) "merged bytes cold = warm" (merged_text m)
        (merged_text m2))

let test_multideck_label_dedupe () =
  match
    Dic.Engine.dedupe_labels
      [ Dic.Engine.deck ~label:"x" rules; Dic.Engine.deck ~label:"x" rules;
        Dic.Engine.deck ~label:"x" rules ]
  with
  | [ a; b; c ] ->
    Alcotest.(check string) "first keeps the name" "x" a.Dic.Engine.dk_label;
    Alcotest.(check string) "second suffixed" "x#2" b.Dic.Engine.dk_label;
    Alcotest.(check string) "third suffixed" "x#3" c.Dic.Engine.dk_label
  | _ -> Alcotest.fail "dedupe dropped decks"

(* ------------------------------------------------------------------ *)
(* Serve protocol                                                      *)

let reply_field reply name =
  match Dic.Json.parse reply with
  | Error e -> Alcotest.fail ("reply is not JSON: " ^ e)
  | Ok v -> Dic.Json.member name v

let num_field reply name =
  match Option.bind (reply_field reply name) Dic.Json.num with
  | Some n -> int_of_float n
  | None -> Alcotest.fail (Printf.sprintf "reply has no numeric %S" name)

let test_serve_round_trip () =
  with_cache_dir @@ fun cache_dir ->
  Serve_ask.with_server ~cache_dir rules @@ fun server ->
  let src = Cif.Print.to_string (Layoutgen.Cells.chain ~lambda 2) in
  let request =
    Dic.Json.to_string
      (Dic.Json.Obj
         [ ("id", Dic.Json.Num 1.); ("cif", Dic.Json.Str src);
           ("stats", Dic.Json.Bool true) ])
  in
  let reply = Serve_ask.ask server request in
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (reply_field reply "ok") Dic.Json.bool);
  Alcotest.(check int) "id echoed" 1 (num_field reply "id");
  Alcotest.(check int) "clean design exits 0" 0 (num_field reply "exit");
  (match Option.bind (reply_field reply "report") Dic.Json.str with
  | Some text -> Alcotest.(check bool) "report text present" true (String.length text > 0)
  | None -> Alcotest.fail "no report in reply");
  (match reply_field reply "metrics" with
  | Some (Dic.Json.Obj _) -> ()
  | _ -> Alcotest.fail "stats:true must embed a metrics object");
  (* Same design again: the server's cache handle replays it. *)
  let reply2 = Serve_ask.ask server request in
  Alcotest.(check int) "second request reuses the cache"
    (num_field reply2 "symbols_total")
    (num_field reply2 "symbols_reused")

let test_serve_matches_engine_bytes () =
  let file = workload () in
  let src = Cif.Print.to_string file in
  Serve_ask.with_server rules @@ fun server ->
  let reply =
    Serve_ask.ask server (Dic.Json.to_string (Dic.Json.Obj [ ("cif", Dic.Json.Str src) ]))
  in
  let served =
    match Option.bind (reply_field reply "report") Dic.Json.str with
    | Some text -> text
    | None -> Alcotest.fail "no report in reply"
  in
  (* Checking the same text directly must agree byte-for-byte: serve is
     a transport, not a different checker.  (Text, not the AST — parsing
     attaches source positions that show up in the report.) *)
  let direct =
    match Result.map Dic.Engine.primary @@ Dic.Engine.check_string (Dic.Engine.create rules) src with
    | Ok (r, _) -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "serve report = direct report" (report_text direct) served

let test_serve_malformed_request () =
  Serve_ask.with_server rules @@ fun server ->
  let reply = Serve_ask.ask server "{ not json" in
  Alcotest.(check (option bool)) "ok:false" (Some false)
    (Option.bind (reply_field reply "ok") Dic.Json.bool);
  Alcotest.(check int) "exit 2" 2 (num_field reply "exit");
  (match Option.bind (reply_field reply "error") Dic.Json.str with
  | Some _ -> ()
  | None -> Alcotest.fail "malformed request must carry an error string");
  (* The server survives and answers the next request. *)
  let missing = Serve_ask.ask server "{\"id\": 7}" in
  Alcotest.(check int) "id echoed on error" 7 (num_field missing "id");
  Alcotest.(check (option bool)) "missing source rejected" (Some false)
    (Option.bind (reply_field missing "ok") Dic.Json.bool)

let test_serve_decks_round_trip () =
  Serve_ask.with_server rules @@ fun server ->
  let src = Cif.Print.to_string (workload ()) in
  let strict =
    { rules with Tech.Rules.width_metal = 4 * lambda; Tech.Rules.name = "strict" }
  in
  let deck_obj label r =
    Dic.Json.Obj
      [ ("label", Dic.Json.Str label);
        ("rules", Dic.Json.Str (Tech.Rules.to_string r)) ]
  in
  let request =
    Dic.Json.to_string
      (Dic.Json.Obj
         [ ("id", Dic.Json.Num 1.); ("cif", Dic.Json.Str src);
           ("decks",
            Dic.Json.Arr [ deck_obj "base" rules; deck_obj "strict" strict ]) ])
  in
  let reply = Serve_ask.ask server request in
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (reply_field reply "ok") Dic.Json.bool);
  (* Per-deck summaries ride in the reply, in deck order. *)
  (match Option.bind (reply_field reply "decks") Dic.Json.arr with
  | Some [ a; b ] ->
    let label j = Option.bind (Dic.Json.member "label" j) Dic.Json.str in
    let exit j =
      Option.map int_of_float (Option.bind (Dic.Json.member "exit" j) Dic.Json.num)
    in
    Alcotest.(check (option string)) "first label" (Some "base") (label a);
    Alcotest.(check (option string)) "second label" (Some "strict") (label b);
    (* The strict deck flags the rails: its exit differs from base's. *)
    Alcotest.(check (option int)) "strict deck fails" (Some 1) (exit b)
  | _ -> Alcotest.fail "reply must carry two deck summaries");
  (match Option.bind (reply_field reply "compliant") Dic.Json.arr with
  | Some labels ->
    Alcotest.(check bool) "strict not compliant" false
      (List.exists (fun j -> Dic.Json.str j = Some "strict") labels)
  | None -> Alcotest.fail "reply must carry the compliant list");
  (* The merged report annotates deck membership. *)
  (match Option.bind (reply_field reply "report") Dic.Json.str with
  | Some text ->
    Alcotest.(check bool) "membership annotations present" true
      (Astring_contains.contains text "[decks:")
  | None -> Alcotest.fail "no report in reply");
  Alcotest.(check int) "exit is the worst deck's" 1 (num_field reply "exit");
  (* A deckless request on the same server keeps the historical single-
     deck reply shape: no "decks" member at all. *)
  let plain =
    Serve_ask.ask server (Dic.Json.to_string (Dic.Json.Obj [ ("cif", Dic.Json.Str src) ]))
  in
  Alcotest.(check bool) "single-deck reply has no decks member" true
    (reply_field plain "decks" = None)

let test_serve_prometheus_stats () =
  Serve_ask.with_server rules @@ fun server ->
  let reply =
    Serve_ask.ask server "{\"admin\":\"stats\",\"format\":\"prometheus\",\"id\":\"p\"}"
  in
  (match Option.bind (reply_field reply "prometheus") Dic.Json.str with
  | Some text ->
    List.iter
      (fun needle ->
        Alcotest.(check bool) needle true (Astring_contains.contains text needle))
      [ "# HELP dicheck_uptime_seconds"; "# TYPE dicheck_requests_total counter";
        "dicheck_workers"; "quantile=\"0.99\"" ];
    (* The text format allows one TYPE line per metric family. *)
    let types =
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "#"; "TYPE"; name; _ ] -> Some name
          | _ -> None)
        (String.split_on_char '\n' text)
    in
    List.iter
      (fun name ->
        Alcotest.(check int) ("one TYPE line for " ^ name) 1
          (List.length (List.filter (String.equal name) types)))
      types;
    Alcotest.(check bool) "a TYPE line per family" true (List.length types > 10)
  | None -> Alcotest.fail "no prometheus text in reply");
  (* Unknown formats are refused, not silently defaulted. *)
  let bad = Serve_ask.ask server "{\"admin\":\"stats\",\"format\":\"xml\"}" in
  Alcotest.(check (option bool)) "unknown format refused" (Some false)
    (Option.bind (reply_field bad "ok") Dic.Json.bool)

let test_serve_bad_cif_is_an_error_reply () =
  Serve_ask.with_server rules @@ fun server ->
  let reply =
    Serve_ask.ask server
      (Dic.Json.to_string
         (Dic.Json.Obj [ ("id", Dic.Json.Num 3.); ("cif", Dic.Json.Str "DS 1 bogus;") ]))
  in
  Alcotest.(check (option bool)) "ok:false" (Some false)
    (Option.bind (reply_field reply "ok") Dic.Json.bool);
  Alcotest.(check int) "id echoed" 3 (num_field reply "id")

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let test_json_roundtrip () =
  let v =
    Dic.Json.Obj
      [ ("a", Dic.Json.Arr [ Dic.Json.Num 1.; Dic.Json.Num (-2.5); Dic.Json.Null ]);
        ("s", Dic.Json.Str "line\nbreak \"quoted\" \\ tab\t");
        ("t", Dic.Json.Bool true); ("f", Dic.Json.Bool false);
        ("nested", Dic.Json.Obj [ ("empty", Dic.Json.Arr []) ]) ]
  in
  match Dic.Json.parse (Dic.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "print/parse round trip" true (v = v')
  | Error e -> Alcotest.fail ("round trip failed: " ^ e)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Dic.Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_json_escapes () =
  match Dic.Json.parse "\"\\u0041\\u00e9\\ud83d\\ude00\\/\"" with
  | Ok (Dic.Json.Str s) ->
    Alcotest.(check string) "unicode escapes decode to UTF-8" "A\xc3\xa9\xf0\x9f\x98\x80/" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [ ( "cache",
        [ Alcotest.test_case "warm recheck reuses and matches" `Quick
            test_warm_recheck_reuses_and_matches;
          Alcotest.test_case "warm recheck matches at jobs=4" `Quick
            test_warm_recheck_matches_at_jobs4;
          Alcotest.test_case "symbol edit invalidates only that symbol" `Quick
            test_symbol_edit_invalidates_only_that_symbol;
          Alcotest.test_case "rules change invalidates" `Quick test_rules_change_invalidates;
          Alcotest.test_case "config change invalidates, jobs does not" `Quick
            test_config_change_invalidates;
          Alcotest.test_case "corrupted cache falls back to cold" `Quick
            test_corrupted_cache_falls_back_to_cold;
          Alcotest.test_case "previous cache format reads as a miss" `Quick
            test_old_magic_reads_as_miss;
          Alcotest.test_case "shifted source positions match cold" `Quick
            test_shifted_positions_match_cold;
          Alcotest.test_case
            "without a cache directory, a second check reuses nothing and returns the same bytes"
            `Quick test_no_cache_dir_reuses_nothing;
          Alcotest.test_case "memo net groups follow the deck's widths" `Quick
            test_memo_nets_follow_widths;
          Alcotest.test_case "called-cell edit matches cold" `Quick
            test_called_cell_edit_matches_cold;
          Alcotest.test_case "unwritable cache mid-session" `Quick
            test_unwritable_cache_mid_session ] );
      ( "parallel",
        [ Alcotest.test_case "report/SARIF/stats bytes across jobs" `Quick
            test_pipeline_bytes_across_jobs;
          Alcotest.test_case "lint report identical across checks" `Quick
            test_lint_report_stable_across_checks ] );
      ( "multideck",
        [ Alcotest.test_case "N=1 deck set = single engine bytes" `Quick
            test_multideck_n1_matches_single;
          Alcotest.test_case "each deck = checked alone" `Quick
            test_multideck_per_deck_matches_alone;
          Alcotest.test_case "deck order: each deck = checked alone" `Quick
            (deck_order_case ~lint:false);
          Alcotest.test_case "deck order with lint: each deck = checked alone" `Quick
            (deck_order_case ~lint:true);
          Alcotest.test_case "merged bytes stable across jobs" `Quick
            test_multideck_merged_bytes_across_jobs;
          Alcotest.test_case "multi-deck SARIF bytes across jobs" `Quick
            test_multideck_sarif_across_jobs;
          Alcotest.test_case "per-deck cache independence" `Quick
            test_multideck_cache_independence;
          Alcotest.test_case "label dedupe" `Quick test_multideck_label_dedupe ] );
      ( "serve",
        [ Alcotest.test_case "round trip" `Quick test_serve_round_trip;
          Alcotest.test_case "serve report = engine report" `Quick
            test_serve_matches_engine_bytes;
          Alcotest.test_case "decks round trip" `Quick test_serve_decks_round_trip;
          Alcotest.test_case "prometheus stats format" `Quick
            test_serve_prometheus_stats;
          Alcotest.test_case "malformed request" `Quick test_serve_malformed_request;
          Alcotest.test_case "bad CIF is an error reply" `Quick
            test_serve_bad_cif_is_an_error_reply ] );
      ( "json",
        [ Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "escape decoding" `Quick test_json_escapes ] ) ]
