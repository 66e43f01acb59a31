(* Benchmark and experiment harness.

   One experiment per figure of the paper (the paper is a systems paper
   whose "evaluation" is its pathology figures and two quantitative
   claims), each printing the rows/series the figure argues from, plus
   the two timing claims:

   - T1: hierarchical checking vs flat checking as replication grows;
   - T2: exposure-based spacing (Eq 1) vs the expand-check-overlap
     predicate ("although still slower ... may be feasible");

   and the experiments CI gates on (lint, kernel, serve, telemetry,
   multideck, deckcheck).  Every timed figure comes from one measuring
   method ([series] and [paired] below) and is reported as a median
   with quartiles and a sample count; every BENCH_*.json is written by
   [write_bench].

   Run with: dune exec bench/main.exe [EXPERIMENT...] *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda
let tolerance = 2 * lambda

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

(* Scratch cache directories, removed after use. *)
let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* ------------------------------------------------------------------ *)
(* One measuring method                                                *)

(* Wall-clock seconds of one call, on the monotonic clock. *)
let wall f =
  let t0 = Dic.Metrics.clock_ns () in
  let v = f () in
  (v, float_of_int (Dic.Metrics.clock_ns () - t0) *. 1e-9)

(* [series ~warmup ~runs f]: [warmup] untimed calls — they page in the
   workload and pay the one-off allocations — then [runs] timed calls,
   each as (value, seconds). *)
let series ~warmup ~runs f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  List.init runs (fun _ -> wall f)

(* [paired ~warmup ~pairs a b]: [warmup] untimed calls of each side,
   then [pairs] back-to-back pairs whose first side alternates — [a]
   first in even pairs, [b] first in odd ones — so drift in the
   scheduler, the GC or the caches lands on both sides alike.  Each
   pair is ((value, seconds) of [a], (value, seconds) of [b]).  An A/B
   figure is read from the per-pair ratios ([ratios]), each measured
   under the same conditions. *)
let paired ~warmup ~pairs a b =
  for _ = 1 to warmup do
    ignore (a ());
    ignore (b ())
  done;
  List.init pairs (fun i ->
      if i mod 2 = 0 then
        let ra = wall a in
        (ra, wall b)
      else
        let rb = wall b in
        (wall a, rb))

let seconds runs = List.map snd runs
let seconds_a pairs = List.map (fun ((_, t), _) -> t) pairs
let seconds_b pairs = List.map (fun (_, (_, t)) -> t) pairs

(* Per pair, [b]'s seconds over [a]'s. *)
let ratios pairs = List.map (fun ((_, ta), (_, tb)) -> tb /. Float.max 1e-9 ta) pairs

(* [per_call ~iters ~runs f]: a [series] of [iters]-call loops, as
   seconds per call — for figures far below the clock's resolution. *)
let per_call ~iters ~runs f =
  let loop () =
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done
  in
  List.map (fun t -> t /. float_of_int iters) (seconds (series ~warmup:1 ~runs loop))

(* A figure: median, quartiles, sample count. *)
type stat = { median : float; q1 : float; q3 : float; n : int }

(* The one percentile rule: nearest rank on the sorted samples, no
   interpolation — percentile [p] is the sample at 0-based index
   [p * n / 100] (rounded down, at most [n - 1]), so the median is at
   [n / 2] and the quartiles at [n / 4] and [3n / 4], and every
   reported figure is one that was measured. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (p * n / 100))

let stat xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  { median = percentile a 50; q1 = percentile a 25; q3 = percentile a 75; n = Array.length a }

(* [f] applied to each figure; [f] is increasing, so order holds. *)
let map_stat f s = { s with median = f s.median; q1 = f s.q1; q3 = f s.q3 }

(* For the console: "median [q1-q3]". *)
let show s =
  let f x = if Float.abs x >= 1000. then Printf.sprintf "%.0f" x else Printf.sprintf "%.4g" x in
  Printf.sprintf "%s [%s-%s]" (f s.median) (f s.q1) (f s.q3)

(* Figures go to the files at four significant digits — their
   run-to-run spread is wider than that. *)
let num x = Dic.Json.Num (float_of_string (Printf.sprintf "%.4g" x))
let int_num i = Dic.Json.Num (float_of_int i)

let stat_members s =
  [ ("median", num s.median); ("q1", num s.q1); ("q3", num s.q3); ("n", int_num s.n) ]

let stat_json s = Dic.Json.Obj (stat_members s)

(* Every BENCH_<name>.json: one line of JSON with the experiment and the
   host it ran on first — a timing is meaningless in CI history without
   the thread count, compiler and OS that produced it — then the
   experiment's members. *)
let write_bench name ~experiment members =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let doc =
    Dic.Json.Obj
      ([ ("experiment", Dic.Json.Str experiment);
         ("hardware_threads", int_num (Domain.recommended_domain_count ()));
         ("ocaml_version", Dic.Json.Str Sys.ocaml_version); ("os", Dic.Json.Str Sys.os_type) ]
      @ members)
  in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Dic.Json.to_string doc);
      Out_channel.output_char oc '\n');
  print_endline ("wrote " ^ file)

(* One check of [file] through [engine] — by default a new engine on
   the built-in deck, so nothing leaks between runs; a check error
   aborts the experiment. *)
let check ?metrics ?trace ?(engine = Dic.Engine.create rules) file =
  match Dic.Engine.check ?metrics ?trace engine file with
  | Ok multi -> multi
  | Error e -> failwith e

let primary multi = fst (Dic.Engine.primary multi)

let elaborate file =
  match Dic.Model.elaborate rules file with
  | Ok (model, _) -> model
  | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Shared classification helpers                                       *)

(* One cold engine per outcome: the classification experiments compare
   configurations, so nothing may leak between runs.  [configure] is an
   [Engine.with_*] chain. *)
let dic_outcome ?(configure = fun e -> e) truths file =
  let result = primary (check ~engine:(configure (Dic.Engine.create rules)) file) in
  Dic.Classify.classify ~tolerance truths (Dic.Classify.of_report result.Dic.Engine.report)

let flat_outcome mode truths file =
  Dic.Classify.classify ~tolerance truths
    (Dic.Classify.of_classic (Flatdrc.Classic.check mode rules file))

let flat_orth_ignore =
  { Flatdrc.Classic.default_mode with Flatdrc.Classic.poly_diff = `Ignore }

let flat_orth_flag =
  { Flatdrc.Classic.default_mode with Flatdrc.Classic.poly_diff = `Flag_all }

let flat_euclid_flag =
  { Flatdrc.Classic.metric = Geom.Measure.Euclidean;
    poly_diff = `Flag_all;
    width_algorithm = `Shrink_expand_compare }

let flat_figure_based =
  { Flatdrc.Classic.default_mode with
    Flatdrc.Classic.width_algorithm = `Figure_based }

let print_outcome_row label (o : Dic.Classify.outcome) =
  let ratio = Dic.Classify.false_ratio o in
  Printf.printf "%-36s %8d %8d %8d %12s\n" label
    (List.length o.Dic.Classify.flagged)
    (List.length o.Dic.Classify.missed)
    (List.length o.Dic.Classify.false_findings)
    (if ratio = infinity then "inf" else Printf.sprintf "%.1f" ratio)

let outcome_header () =
  Printf.printf "%-36s %8s %8s %8s %12s\n" "checker" "flagged" "missed" "false"
    "false:real"

(* ------------------------------------------------------------------ *)
(* F1 -- Fig 1: the error Venn diagram                                 *)

let salted_grid nx ny =
  let clean = Layoutgen.Cells.grid ~lambda ~nx ~ny in
  let margin = (nx * Layoutgen.Cells.pitch_x * lambda) + (6 * lambda) in
  Layoutgen.Inject.apply clean
    (Layoutgen.Inject.standard_batch ~lambda ~at:(margin, 0) ~step:(10 * lambda)
    @ [ Layoutgen.Inject.supply_short ~lambda ~cell_origin:(0, 0);
        Layoutgen.Inject.butting_halves ~lambda ~at:(margin, 45 * lambda) ])

let fig01_error_venn () =
  section
    "F1 / Fig 1: real-flagged, real-missed (unchecked), and false errors\n\
     (paper: flat checkers reach 10 false per real error or more;\n\
     the topology-aware checker eliminates most of both)";
  let salted, truths = salted_grid 6 4 in
  outcome_header ();
  print_outcome_row "DIC (hierarchical, net/device aware)" (dic_outcome truths salted);
  print_outcome_row "flat orth, crossings ignored"
    (flat_outcome flat_orth_ignore truths salted);
  print_outcome_row "flat orth, crossings flagged"
    (flat_outcome flat_orth_flag truths salted);
  print_outcome_row "flat euclid, crossings flagged"
    (flat_outcome flat_euclid_flag truths salted)

(* ------------------------------------------------------------------ *)
(* F2 -- Fig 2: figure pathologies                                     *)

let fig02_figure_pathologies () =
  section
    "F2 / Fig 2: figure-based checking\n\
     (left: legal figures, illegal union -- missed; right: illegal\n\
     figures, legal union -- false errors)";
  outcome_header ();
  List.iter
    (fun (kit : Layoutgen.Pathology.kit) ->
      Printf.printf "[%s] %s\n" kit.Layoutgen.Pathology.kit_name
        kit.Layoutgen.Pathology.description;
      print_outcome_row "  DIC"
        (dic_outcome kit.Layoutgen.Pathology.truths kit.Layoutgen.Pathology.file);
      print_outcome_row "  flat figure-based width"
        (flat_outcome flat_figure_based kit.Layoutgen.Pathology.truths
           kit.Layoutgen.Pathology.file);
      print_outcome_row "  flat shrink-expand-compare"
        (flat_outcome flat_orth_ignore kit.Layoutgen.Pathology.truths
           kit.Layoutgen.Pathology.file))
    [ Layoutgen.Pathology.fig2_union_illegal ~lambda;
      Layoutgen.Pathology.fig2_figures_illegal ~lambda ]

(* ------------------------------------------------------------------ *)
(* F3 -- Fig 3: orthogonal vs Euclidean expand and shrink              *)

let fig03_expand_shrink () =
  section
    "F3 / Fig 3: both shrinks keep square corners; the expands differ\n\
     (orthogonal keeps corners, Euclidean rounds them)";
  Printf.printf "%8s %14s %14s %14s %16s\n" "side" "shrink=orth?" "orth-expand"
    "euclid-expand" "corner o/e";
  List.iter
    (fun side ->
      let s = side * lambda in
      let sq = Geom.Region.of_rect (Geom.Rect.make 0 0 s s) in
      let d = lambda in
      let sh_o = Geom.Region.shrink_orth sq d and sh_e = Geom.Region.shrink_euclid sq d in
      let ex_o = Geom.Region.expand_orth sq d and ex_e = Geom.Region.expand_euclid sq d in
      let corner_kept r = Geom.Region.contains_pt r (-d) (-d) in
      Printf.printf "%8d %14b %14d %14d %11b/%b\n" side
        (Geom.Region.equal sh_o sh_e)
        (Geom.Region.area ex_o) (Geom.Region.area ex_e) (corner_kept ex_o)
        (corner_kept ex_e))
    [ 3; 4; 6; 10 ]

(* ------------------------------------------------------------------ *)
(* F4 -- Fig 4: width and spacing pathologies                          *)

let fig04_width_spacing () =
  section
    "F4 / Fig 4: Euclidean shrink-expand-compare errs at every convex\n\
     corner; orthogonal expand-check-overlap errs on corner-to-edge\n\
     spacing (both false, against the exact measurement)";
  let l_shape =
    Layoutgen.Builder.file ~symbols:[]
      ~top_elements:
        [ Layoutgen.Builder.box ~layer:"NM" (0 * lambda) (0 * lambda) (10 * lambda)
            (3 * lambda);
          Layoutgen.Builder.box ~layer:"NM" (0 * lambda) (0 * lambda) (3 * lambda)
            (10 * lambda) ]
      ~top_calls:[] ()
  in
  let count mode =
    List.length
      (List.filter
         (fun (e : Flatdrc.Classic.error) ->
           Dic.Classify.family_of_rule e.Flatdrc.Classic.rule = "width")
         (Flatdrc.Classic.check mode rules l_shape))
  in
  Printf.printf "width checks on a legal L (0 = correct):\n";
  Printf.printf "  orthogonal SEC: %d false error(s)\n" (count flat_orth_ignore);
  Printf.printf "  euclidean  SEC: %d false error(s)  <- corner nibbles\n"
    (count flat_euclid_flag);
  Printf.printf "\nspacing: corner-to-corner, rule = 3 lambda:\n";
  Printf.printf "%18s %16s %16s %16s\n" "offset (dx=dy)" "euclid distance"
    "orth verdict" "euclid verdict";
  List.iter
    (fun off ->
      let file =
        Layoutgen.Builder.file ~symbols:[]
          ~top_elements:
            [ Layoutgen.Builder.box ~layer:"NM" 0 0 (4 * lambda) (4 * lambda);
              Layoutgen.Builder.box ~layer:"NM" ((4 * lambda) + off)
                ((4 * lambda) + off)
                ((8 * lambda) + off)
                ((8 * lambda) + off) ]
          ~top_calls:[] ()
      in
      let flags mode =
        List.exists
          (fun (e : Flatdrc.Classic.error) ->
            Dic.Classify.family_of_rule e.Flatdrc.Classic.rule = "spacing")
          (Flatdrc.Classic.check mode rules file)
      in
      Printf.printf "%18d %16.1f %16s %16s\n" off
        (sqrt (2. *. float_of_int (off * off)))
        (if flags flat_orth_ignore then "FLAG (false)" else "pass")
        (if
           flags { flat_orth_ignore with Flatdrc.Classic.metric = Geom.Measure.Euclidean }
         then "FLAG"
         else "pass"))
    [ 220; 250; 280; 310 ]

(* ------------------------------------------------------------------ *)
(* F5 -- Fig 5: topological pathologies                                *)

let fig05_topological () =
  section
    "F5 / Fig 5: same-net spacing is unnecessary (a) unless a resistor\n\
     is involved (b)";
  outcome_header ();
  let a = Layoutgen.Pathology.fig5_equivalent ~lambda in
  let b = Layoutgen.Pathology.fig5_resistor ~lambda in
  Printf.printf "[fig5a] %s\n" a.Layoutgen.Pathology.description;
  print_outcome_row "  DIC (net aware)"
    (dic_outcome a.Layoutgen.Pathology.truths a.Layoutgen.Pathology.file);
  print_outcome_row "  DIC, net-blind ablation"
    (dic_outcome
       ~configure:(fun e -> Dic.Engine.with_same_net e true)
       a.Layoutgen.Pathology.truths a.Layoutgen.Pathology.file);
  print_outcome_row "  flat (net blind)"
    (flat_outcome flat_orth_ignore a.Layoutgen.Pathology.truths
       a.Layoutgen.Pathology.file);
  Printf.printf "[fig5b] %s\n" b.Layoutgen.Pathology.description;
  print_outcome_row "  DIC (resistor forces the check)"
    (dic_outcome b.Layoutgen.Pathology.truths b.Layoutgen.Pathology.file)

(* ------------------------------------------------------------------ *)
(* F6, F7, F8 -- device-dependent rules                                *)

let device_kit_bench (kit : Layoutgen.Pathology.kit) =
  Printf.printf "[%s] %s\n" kit.Layoutgen.Pathology.kit_name
    kit.Layoutgen.Pathology.description;
  print_outcome_row "  DIC"
    (dic_outcome kit.Layoutgen.Pathology.truths kit.Layoutgen.Pathology.file);
  print_outcome_row "  flat, crossings ignored"
    (flat_outcome flat_orth_ignore kit.Layoutgen.Pathology.truths
       kit.Layoutgen.Pathology.file);
  print_outcome_row "  flat, crossings flagged"
    (flat_outcome flat_orth_flag kit.Layoutgen.Pathology.truths
       kit.Layoutgen.Pathology.file)

let fig06_device_dependent () =
  section "F6 / Fig 6: the same construct, different device, different verdict";
  outcome_header ();
  device_kit_bench (Layoutgen.Pathology.fig6_device_dependent ~lambda)

let fig07_contact_gate () =
  section "F7 / Fig 7: contact over gate vs butting contact";
  outcome_header ();
  device_kit_bench (Layoutgen.Pathology.fig7_contact_gate ~lambda)

let fig08_accidental () =
  section "F8 / Fig 8: intentional vs accidental transistors";
  outcome_header ();
  device_kit_bench (Layoutgen.Pathology.fig8_accidental ~lambda)

(* ------------------------------------------------------------------ *)
(* F9 -- Fig 9: chip structure                                         *)

let fig09_hierarchy () =
  section
    "F9 / Fig 9: chip = blocks + interconnect, down to devices; the\n\
     chip is never fully instantiated";
  Printf.printf "%6s %9s %8s %14s %14s %9s\n" "cells" "symbols" "depth" "def elements"
    "flat elements" "ratio";
  List.iter
    (fun n ->
      let model = elaborate (Layoutgen.Cells.grid_blocks ~lambda ~nx:n ~ny:n) in
      let de = Dic.Model.definition_elements model
      and fe = Dic.Model.instantiated_elements model in
      Printf.printf "%6d %9d %8d %14d %14d %8.1fx\n" (n * n) (Dic.Model.symbol_count model)
        (Dic.Model.depth model) de fe
        (float_of_int fe /. float_of_int de))
    [ 4; 8; 16; 24 ]

(* ------------------------------------------------------------------ *)
(* F10 -- Fig 10: the pipeline                                         *)

let fig10_pipeline () =
  section "F10 / Fig 10: per-stage cost of the checking pipeline (8x8 grid)";
  let result = primary (check (Layoutgen.Cells.grid ~lambda ~nx:8 ~ny:8)) in
  List.iter
    (fun (name, s) -> Printf.printf "%-24s %8.4f s\n" name s)
    (Dic.Metrics.stage_seconds result.Dic.Engine.metrics);
  Format.printf "result: %a@." Dic.Engine.pp_summary result

(* ------------------------------------------------------------------ *)
(* F11 -- Fig 11: skeletal connectivity                                *)

let fig11_skeletal () =
  section "F11 / Fig 11: skeletal connectivity cases (half-width = 1 lambda)";
  let half = lambda in
  let box x0 y0 x1 y1 =
    [ Geom.Skeleton.of_rect ~half
        (Geom.Rect.make (x0 * lambda) (y0 * lambda) (x1 * lambda) (y1 * lambda)) ]
  in
  let wire pts =
    Geom.Wire.skeleton ~half
      (Geom.Wire.make ~width:(2 * lambda)
         (List.map (fun (x, y) -> Geom.Pt.make (x * lambda) (y * lambda)) pts))
  in
  let cases =
    [ ("boxes overlapping by a full width", box 0 0 4 10, box 0 8 4 18, true);
      ("boxes overlapping by half a width", box 0 0 4 10, box 0 9 4 19, false);
      ("boxes merely abutting (Fig 15)", box 0 0 4 10, box 0 10 4 20, false);
      ("corner-nick overlap", box 0 0 10 10, box 9 9 19 19, false);
      ("wires sharing an endpoint", wire [ (0, 0); (10, 0) ], wire [ (10, 0); (10, 10) ], true);
      ("wire crossing a wire", wire [ (0, 5); (10, 5) ], wire [ (5, 0); (5, 10) ], true) ]
  in
  Printf.printf "%-38s %10s %10s\n" "case" "connected" "expected";
  List.iter
    (fun (name, a, b, expected) ->
      let got = Geom.Skeleton.connected a b in
      Printf.printf "%-38s %10b %10b %s\n" name got expected
        (if got = expected then "" else "  <-- MISMATCH"))
    cases

(* ------------------------------------------------------------------ *)
(* F12 -- Fig 12: the interaction matrix                               *)

let fig12_matrix () =
  section
    "F12 / Fig 12: interaction-rule matrix coverage on an 8x4 grid\n\
     (most cells need no check: no rule, device-checked, or same-net)";
  let result = primary (check (Layoutgen.Cells.grid ~lambda ~nx:8 ~ny:4)) in
  Format.printf "%a@." Dic.Interactions.pp_stats result.Dic.Engine.interaction_stats;
  Printf.printf "\nstatic matrix (rules):\n";
  List.iter
    (fun (a, b, entry) ->
      Format.printf "  %s-%s: %a@." (Tech.Layer.to_cif a) (Tech.Layer.to_cif b)
        Tech.Interaction.pp_entry entry)
    (Tech.Interaction.cells rules)

(* ------------------------------------------------------------------ *)
(* F13 -- Fig 13: proximity expand                                     *)

let fig13_proximity () =
  section
    "F13 / Fig 13: Euclidean, orthogonal and proximity expand\n\
     (areas of a 2-lambda square expanded by 1 lambda; then the gap\n\
     between two boxes under combined exposure)";
  let sigma = 60. in
  let d = lambda in
  let sq = Geom.Region.of_rect (Geom.Rect.make 0 0 (2 * lambda) (2 * lambda)) in
  let threshold = Process_model.Erf.gauss_cdf (-.float_of_int d /. sigma) in
  let model = Process_model.Exposure.make ~sigma ~threshold () in
  let prox = Process_model.Exposure.printed model sq ~step:20 ~margin:(2 * lambda) in
  Printf.printf "areas: drawn=%d orth=%d euclid=%d proximity=%d\n"
    (Geom.Region.area sq)
    (Geom.Region.area (Geom.Region.expand_orth sq d))
    (Geom.Region.area (Geom.Region.expand_euclid sq d))
    (Geom.Region.area prox);
  Printf.printf "\ntwo 3x2-lambda boxes, expand d = 1 lambda; do they print merged?\n";
  Printf.printf "%10s %12s %12s\n" "gap" "isolated" "combined";
  List.iter
    (fun gap ->
      let a = Geom.Rect.make 0 0 (3 * lambda) (2 * lambda) in
      let b = Geom.Rect.make ((3 * lambda) + gap) 0 ((6 * lambda) + gap) (2 * lambda) in
      let comps r = List.length (Geom.Region.components r) in
      let iso =
        comps
          (Geom.Region.union
             (Process_model.Exposure.printed model (Geom.Region.of_rect a) ~step:10
                ~margin:(2 * lambda))
             (Process_model.Exposure.printed model (Geom.Region.of_rect b) ~step:10
                ~margin:(2 * lambda)))
      in
      let com =
        comps
          (Process_model.Exposure.printed model
             (Geom.Region.of_rects [ a; b ])
             ~step:10 ~margin:(2 * lambda))
      in
      Printf.printf "%10d %12s %12s\n" gap
        (if iso = 1 then "merged" else "separate")
        (if com = 1 then "MERGED" else "separate"))
    [ 190; 210; 230; 250; 280 ]

(* ------------------------------------------------------------------ *)
(* F14 -- Fig 14: the relational rule                                  *)

let fig14_relational () =
  section
    "F14 / Fig 14: end-cap retreat vs wire width; fixed 2-lambda\n\
     overhang rule vs the relational check (required effective 1.5)";
  let model = Process_model.Exposure.make ~sigma:60. () in
  Printf.printf "%8s %10s %12s %10s %12s\n" "width" "retreat" "effective" "fixed rule"
    "relational";
  List.iter
    (fun w ->
      let v =
        Process_model.Relational.check_gate_overhang model ~width:w ~drawn:(2 * lambda)
          ~required:(3 * lambda / 2)
      in
      Printf.printf "%8d %10.1f %12.1f %10s %12s\n" w v.Process_model.Relational.retreat
        v.Process_model.Relational.effective "pass"
        (if v.Process_model.Relational.ok then "pass" else "VIOLATION"))
    [ 400; 300; 250; 200; 150; 120; 100 ]

(* ------------------------------------------------------------------ *)
(* F15 -- Fig 15: self-sufficiency                                     *)

let fig15_self_sufficiency () =
  section "F15 / Fig 15: symbol self-sufficiency (butting vs overlap)";
  outcome_header ();
  let kit = Layoutgen.Pathology.fig15_self_sufficiency ~lambda in
  Printf.printf "[%s] %s\n" kit.Layoutgen.Pathology.kit_name
    kit.Layoutgen.Pathology.description;
  print_outcome_row "  DIC"
    (dic_outcome kit.Layoutgen.Pathology.truths kit.Layoutgen.Pathology.file);
  print_outcome_row "  flat"
    (flat_outcome flat_orth_ignore kit.Layoutgen.Pathology.truths
       kit.Layoutgen.Pathology.file)

(* ------------------------------------------------------------------ *)
(* T1 -- runtime scaling                                               *)

(* DIC against the flat baseline on each array over 10 alternated
   pairs; the speedup is the median of the per-pair flat/DIC ratios. *)
let t1_runtime_scaling () =
  section
    "T1: hierarchical vs flat run time as the array grows\n\
     (the hierarchical checker touches each definition once and\n\
     memoises repeated instance pairs; median [q1-q3] of 10 pairs)";
  Printf.printf "%6s %10s %26s %26s %22s %8s\n" "cells" "flat rects" "DIC (s)" "flat (s)"
    "speedup (x)" "memo hit";
  List.iter
    (fun n ->
      let file = Layoutgen.Cells.grid ~lambda ~nx:n ~ny:n in
      let pairs =
        paired ~warmup:1 ~pairs:10
          (fun () -> primary (check file))
          (fun () -> Flatdrc.Classic.check flat_orth_ignore rules file)
      in
      let stats = (fst (fst (List.hd pairs))).Dic.Engine.interaction_stats in
      let hits = stats.Dic.Interactions.memo_hits
      and misses = stats.Dic.Interactions.memo_misses in
      let rects = Flatdrc.Flatten.rect_count (Flatdrc.Flatten.file file) in
      Printf.printf "%6d %10d %26s %26s %22s %7.1f%%\n" (n * n) rects
        (show (stat (seconds_a pairs)))
        (show (stat (seconds_b pairs)))
        (show (stat (ratios pairs)))
        (100. *. float_of_int hits /. Float.max 1. (float_of_int (hits + misses))))
    [ 2; 4; 8; 12; 16 ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablations () =
  section
    "Ablations: what each source of information buys\n\
     (salted 4x2 grid; flagged / missed / false per configuration)";
  let salted, truths = salted_grid 4 2 in
  outcome_header ();
  print_outcome_row "full checker" (dic_outcome truths salted);
  print_outcome_row "without net awareness"
    (dic_outcome ~configure:(fun e -> Dic.Engine.with_same_net e true) truths salted);
  print_outcome_row "without electrical rules"
    (dic_outcome ~configure:(fun e -> Dic.Engine.with_erc e false) truths salted);
  print_outcome_row "exposure-model spacing"
    (dic_outcome
       ~configure:(fun e ->
         Dic.Engine.with_spacing_model e
           (Dic.Interactions.Exposure
              { model = Process_model.Exposure.make ~sigma:60. (); misalign = 50 }))
       truths salted);
  print_endline
    "(exposure mode judges the injected drawn-rule spacing defects\n\
     printable at sigma=60 and so reports them only if they bridge;\n\
     the geometric rules carry the process margin instead)"

(* ------------------------------------------------------------------ *)
(* TR -- Tracing overhead                                              *)

(* Cost of the span tracer: disabled (no --trace; every with_span is
   one option match) and enabled (two clock reads and an array store
   per span) on a shift register and a cell grid, each over 10
   alternated off/on pairs; the overhead is the median of the per-pair
   on/off ratios. *)

let trace_overhead () =
  section
    "TR: span-tracing overhead\n\
     (disabled tracing must be free; enabled, a span is two clock\n\
     reads and one append; median [q1-q3] of 10 pairs)";
  Printf.printf "%-26s %26s %26s %24s\n" "workload" "off (s)" "on (s)" "overhead (%)";
  let row name pairs extra =
    Printf.printf "%-26s %26s %26s %24s%s\n" name
      (show (stat (seconds_a pairs)))
      (show (stat (seconds_b pairs)))
      (show (map_stat (fun r -> 100. *. (r -. 1.)) (stat (ratios pairs))))
      extra
  in
  List.iter
    (fun (name, file) ->
      let nets, _ = Dic.Netgen.build (elaborate file) in
      row name
        (paired ~warmup:1 ~pairs:10
           (fun () -> Dic.Interactions.check nets)
           (fun () -> Dic.Interactions.check ~trace:(Dic.Trace.create ()) nets))
        "")
    [ ("shift-register-256", Layoutgen.Shift.register ~lambda 256);
      ("grid-12x12", Layoutgen.Cells.grid ~lambda ~nx:12 ~ny:12) ];
  (* Whole pipeline, end to end, with the full span set (stages,
     symbols, shards). *)
  let file = Layoutgen.Cells.grid ~lambda ~nx:12 ~ny:12 in
  let pairs =
    paired ~warmup:1 ~pairs:10
      (fun () -> ignore (check file))
      (fun () ->
        let tr = Dic.Trace.create () in
        ignore (check ~trace:tr file);
        tr)
  in
  row "full pipeline (grid-12x12)" pairs
    (Printf.sprintf "   (%d spans)" (Dic.Trace.length (fst (snd (List.hd pairs)))))

(* ------------------------------------------------------------------ *)
(* LN -- Static lint overhead                                          *)

(* The lint passes are advertised as linear-ish in the deck and
   hierarchy size, cheap enough to leave on (--lint) for every check.
   Prove it: the deck pass (R001–R014, the closure codes included, as
   --lint runs it) + syntax-tree + model lints on shift-register-1024
   must cost under 5% of a full cold check of the same design — the
   median of the per-pair lint/full ratios over 10 alternated pairs —
   or the bench aborts. *)

let lint_overhead () =
  section
    "LN: static lint overhead\n\
     (check_deck + check_ast + check_model must stay under 5% of a\n\
     full cold check on shift-register-1024; median [q1-q3] of 10 pairs)";
  let file = Layoutgen.Shift.register ~lambda 1024 in
  let model = elaborate file in
  let lint () =
    let diags =
      Dic.Lint.check_deck rules @ Dic.Lint.check_ast file @ Dic.Lint.check_model model
    in
    if diags <> [] then failwith "shift-register-1024 must lint clean"
  in
  let pairs = paired ~warmup:1 ~pairs:10 (fun () -> ignore (check file)) lint in
  let share = map_stat (fun r -> 100. *. r) (stat (ratios pairs)) in
  Printf.printf "%-22s %26s %26s %24s\n" "workload" "lint (s)" "full (s)" "lint/full (%)";
  Printf.printf "%-22s %26s %26s %24s\n" "shift-register-1024"
    (show (stat (seconds_b pairs)))
    (show (stat (seconds_a pairs)))
    (show share);
  if share.median >= 5. then
    failwith (Printf.sprintf "lint overhead %.2f%% breaches the 5%% budget" share.median)

(* ------------------------------------------------------------------ *)
(* K -- Packed-rect gap kernel                                         *)

(* The interaction gap kernel on each workload:

   - the kernel proper, as ns/call over the workload's real element
     geometry (round-robin pairing, the checker's own cutoff): 21
     loops of a million calls after a warm-up loop;
   - the serial interaction stage end to end, with GC pressure, through
     the same metered task loop every check runs: the sweep kernel runs
     out of a caller-owned workspace and allocates nothing per call, and
     recording a task allocates nothing, so [sweep_minor_mwords] is one
     number the CI allocation guard watches;
   - [Netgen.build], the net-list composition that precedes it, as
     [netgen_minor_mwords]: the other number the guard watches.

   Both run on the calling domain ([jobs = 1]), so [Gc.minor_words]
   counts their minor words and the major part of [Gc.counters] their
   major words exactly.  Under OCaml 5.1 [Gc.quick_stat] moves only at
   minor collections, and the minor part of [Gc.counters] reads about
   an eighth of the uncollected minor heap.

   The warm-vs-cold engine cache identity is then re-proven (the bench
   aborts if the reports differ).
   Writes BENCH_kernel.json. *)

let kernel_bench () =
  section
    "K: gap kernel\n\
     (packed sweep kernel on real element geometry, end-to-end serial\n\
     interaction checking, and net-list composition's allocation;\n\
     median [q1-q3])";
  let workloads =
    [ ("shift-register-1024", lazy (Layoutgen.Shift.register ~lambda 1024), 1, 5);
      ("pla-96x192", lazy (Layoutgen.Pla.tier ~lambda ~rows:96 ~cols:192), 1, 5);
      (* Production size: one end-to-end run — the interaction stage
         alone is a few seconds of work per run here. *)
      ("pla-512x1024", lazy (Layoutgen.Pla.million_rect ~lambda), 0, 1) ]
  in
  let dmax =
    List.fold_left max 0
      [ rules.Tech.Rules.space_diffusion; rules.Tech.Rules.space_poly;
        rules.Tech.Rules.space_metal; rules.Tech.Rules.space_contact;
        rules.Tech.Rules.space_poly_diffusion ]
  in
  Printf.printf "%-20s %22s %22s %9s %9s %9s\n" "workload" "sweep ns" "stage s" "minor Mw"
    "major Mw" "netgen Mw";
  (* Megawords, to the thousandth: the allocation guard's unit. *)
  let mw w = Dic.Json.Num (Float.round (w /. 1e3) /. 1e3) in
  let rows =
    List.map
      (fun (name, file, warmup, runs) ->
        let model = elaborate (Lazy.force file) in
        (* Kernel ns/call over the design's own element sets. *)
        let sets =
          List.concat_map
            (fun (s : Dic.Model.symbol) ->
              List.map (fun (e : Dic.Model.element) -> e.Dic.Model.packed) s.Dic.Model.elements)
            model.Dic.Model.symbols
          |> Array.of_list
        in
        let nsets = Array.length sets in
        let ws = Geom.Rects.make_ws () in
        let cutoff2 = dmax * dmax in
        let iters = 1_000_000 in
        let loop () =
          let acc = ref 0 in
          for k = 0 to iters - 1 do
            let a = sets.(k mod nsets) and b = sets.((k * 7 + 1) mod nsets) in
            acc := !acc + (Geom.Rects.gap2 ~euclid:false ~cutoff2 ws a b).Geom.Rects.g2
          done;
          !acc
        in
        let sweep_ns =
          map_stat
            (fun t -> t *. 1e9 /. float_of_int iters)
            (stat (seconds (series ~warmup:1 ~runs:21 loop)))
        in
        (* Net-list composition: its allocation is deterministic, so one
           build measures it. *)
        let n0 = Gc.minor_words () in
        let nets, _ = Dic.Netgen.build model in
        let netgen_minor = Gc.minor_words () -. n0 in
        (* End-to-end serial interaction stage; warmup + runs checks run
           between the counter reads. *)
        let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
        let stage =
          stat (seconds (series ~warmup ~runs (fun () -> fst (Dic.Interactions.check nets))))
        in
        let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
        let per_run w = w /. float_of_int (warmup + runs) in
        let minor = per_run (minor1 -. minor0) and major = per_run (major1 -. major0) in
        Printf.printf "%-20s %22s %22s %9.3f %9.3f %9.3f\n" name (show sweep_ns) (show stage)
          (minor /. 1e6) (major /. 1e6) (netgen_minor /. 1e6);
        Dic.Json.Obj
          [ ("name", Dic.Json.Str name); ("kernel_ns_sweep", stat_json sweep_ns);
            ("check_sweep_s", stat_json stage); ("sweep_minor_mwords", mw minor);
            ("sweep_major_mwords", mw major); ("netgen_minor_mwords", mw netgen_minor) ])
      workloads
  in
  (* Warm-vs-cold cache identity: a fresh engine over a cache
     directory a previous engine filled must replay to the
     byte-identical report. *)
  let file = Layoutgen.Shift.register ~lambda 256 in
  let cache_dir =
    let base = Filename.temp_file "dic_bench_kernel" "" in
    Sys.remove base;
    base
  in
  let cached () = check ~engine:(Dic.Engine.create ~cache_dir rules) file in
  let cold = Dic.Engine.report_text (cached ()) in
  let warm = cached () in
  rm_rf cache_dir;
  let cache_identical = String.equal cold (Dic.Engine.report_text warm) in
  if not cache_identical then failwith "warm-cache report differs from cold";
  let reuse = snd (Dic.Engine.primary warm) in
  Printf.printf "warm-vs-cold cache identity (shift-register-256): %b (%d/%d reused)\n"
    cache_identical reuse.Dic.Engine.symbols_reused reuse.Dic.Engine.symbols_total;
  write_bench "kernel" ~experiment:"gap-kernel"
    [ ("workloads", Dic.Json.Arr rows); ("cache_identical", Dic.Json.Bool cache_identical) ]

(* ------------------------------------------------------------------ *)
(* S -- Serve daemon under concurrent clients                          *)

(* Mocked concurrent clients against a real [dicheck serve] Unix-domain
   socket: the daemon runs [Dic.Serve.serve_socket] in its own domain
   with a 4-worker pool over a persistent cache, and each client is a
   domain sending sequential inline-CIF requests over its own
   connection.  After a warm-up round, each client count runs 5 rounds:
   requests/sec per round, and per-request latency (time to first
   reply — each client's first round trip — apart).  Every reply's
   report must be byte-identical to the one-shot text ([identical] in
   the output), or the bench fails once the file is written.  Writes
   BENCH_serve.json. *)

let serve_bench () =
  section
    "S: serve daemon under concurrent clients\n\
     (4 worker domains over one Unix socket; each client sends\n\
     sequential requests on its own connection; 5 rounds per client\n\
     count, median [q1-q3]; identical = every reply's report matched\n\
     the one-shot bytes)";
  let src = Cif.Print.to_string (Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:4) in
  let expected =
    match Cif.Parse.file src with
    | Ok file -> Dic.Engine.report_text (check file)
    | Error e -> failwith (Cif.Parse.string_of_error e)
  in
  let cache_dir = Filename.temp_file "dic_bench_serve" "" in
  Sys.remove cache_dir;
  let sock_path = Filename.temp_file "dic_bench_sock" "" in
  Sys.remove sock_path;
  let workers = 4 and reqs_per_client = 25 and rounds = 5 in
  let server = Dic.Serve.create ~workers ~cache_dir rules in
  let srv = Domain.spawn (fun () -> Dic.Serve.serve_socket server ~path:sock_path) in
  let rec await_socket n =
    if not (Sys.file_exists sock_path) then
      if n = 0 then failwith "serve socket never appeared"
      else begin
        Unix.sleepf 0.05;
        await_socket (n - 1)
      end
  in
  await_socket 200;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock_path);
    (fd, Unix.in_channel_of_descr fd)
  in
  let send fd line =
    let s = line ^ "\n" in
    let len = String.length s in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write_substring fd s !off (len - !off)
    done
  in
  let request id =
    Dic.Json.to_string (Dic.Json.Obj [ ("id", Dic.Json.Str id); ("cif", Dic.Json.Str src) ])
  in
  (* One client conversation: [reqs] sequential request/reply round
     trips, returning per-request latencies and the mismatch count. *)
  let run_client name reqs () =
    let fd, ic = connect () in
    let lats = Array.make reqs 0. in
    let mismatches = ref 0 in
    for i = 0 to reqs - 1 do
      lats.(i) <-
        snd
          (wall (fun () ->
               send fd (request (Printf.sprintf "%s-%d" name i));
               match In_channel.input_line ic with
               | None -> incr mismatches
               | Some line -> (
                 match Dic.Json.parse line with
                 | Ok v
                   when Option.bind (Dic.Json.member "report" v) Dic.Json.str = Some expected
                   ->
                   ()
                 | _ -> incr mismatches)))
    done;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (lats, !mismatches)
  in
  (* Warm-up: populate the cache and every worker's engines so the
     measured rounds compare steady-state service, not cold parses. *)
  ignore (run_client "warm" (2 * workers) ());
  Printf.printf "%8s %9s %22s %22s %22s %9s %10s\n" "clients" "requests" "rps" "ttfr_ms"
    "latency_ms" "p99_ms" "identical";
  let points =
    List.map
      (fun clients ->
        let runs =
          series ~warmup:0 ~runs:rounds (fun () ->
              List.init clients (fun k ->
                  Domain.spawn (run_client (Printf.sprintf "c%d" k) reqs_per_client))
              |> List.map Domain.join)
        in
        let requests = clients * reqs_per_client in
        let results = List.concat_map fst runs in
        (* Each client's first round trip pays connection setup and any
           cold worker state: it is time to first reply, kept out of the
           steady-state latencies. *)
        let ms = List.map (fun s -> s *. 1e3) in
        let ttfr = stat (ms (List.map (fun (l, _) -> l.(0)) results)) in
        let lat_samples =
          ms (List.concat_map (fun (l, _) -> List.tl (Array.to_list l)) results)
        in
        let lat = stat lat_samples in
        let p99 =
          let a = Array.of_list lat_samples in
          Array.sort compare a;
          percentile a 99
        in
        let rps = stat (List.map (fun s -> float_of_int requests /. s) (seconds runs)) in
        let identical = List.for_all (fun (_, m) -> m = 0) results in
        Printf.printf "%8d %9d %22s %22s %22s %9.2f %10b\n" clients requests (show rps)
          (show ttfr) (show lat) p99 identical;
        ( identical,
          Dic.Json.Obj
            [ ("clients", int_num clients); ("requests", int_num requests);
              ("rps", stat_json rps); ("ttfr_ms", stat_json ttfr);
              ("latency_ms", Dic.Json.Obj (stat_members lat @ [ ("p99", num p99) ]));
              ("identical", Dic.Json.Bool identical) ] ))
      [ 1; 2; 4; 8 ]
  in
  (* Graceful teardown: the shutdown handshake drains, and
     serve_socket removes its socket file on the way out. *)
  let fd, ic = connect () in
  send fd
    (Dic.Json.to_string
       (Dic.Json.Obj [ ("id", Dic.Json.Str "bye"); ("shutdown", Dic.Json.Bool true) ]));
  ignore (In_channel.input_line ic);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Domain.join srv;
  rm_rf cache_dir;
  let identical = List.for_all fst points in
  write_bench "serve" ~experiment:"serve-concurrency"
    [ ("workers", int_num workers);
      ("scaling_meaningful", Dic.Json.Bool (Domain.recommended_domain_count () > 1));
      ("workload", Dic.Json.Str "grid-4x4"); ("requests_per_client", int_num reqs_per_client);
      ("rounds", int_num rounds); ("points", Dic.Json.Arr (List.map snd points));
      ("identical", Dic.Json.Bool identical) ];
  if not identical then failwith "a serve reply's report differs from the one-shot bytes"

(* ------------------------------------------------------------------ *)
(* TL -- Service telemetry overhead                                    *)

(* The telemetry bar: with the daemon-side telemetry fully on —
   structured event log to a real file, slow-entry threshold at 0
   (every request logs one), per-request trace collection for the
   service timeline, rolling metrics — a round of sequential requests
   through an in-process single-worker pool must cost under 5% more
   than the same round on a quiet hub — the median of the per-pair
   loud/quiet ratios over 15 alternated pairs — or the bench aborts.
   And not one report byte may differ.  The per-request "trace":true
   reply embedding is measured too, as a series, but not gated: only
   requests that ask for a span tree in their reply pay for its
   rendering.  Writes BENCH_telemetry.json. *)

let telemetry_overhead () =
  section
    "TL: service telemetry overhead\n\
     (event log + slow entries + trace collection + rolling metrics\n\
     against a quiet hub, same sequential requests, single worker;\n\
     must stay under 5% and leave every report byte unchanged;\n\
     median [q1-q3] of 15 pairs)";
  let src = Cif.Print.to_string (Layoutgen.Cells.grid ~lambda ~nx:6 ~ny:6) in
  let reqs = 50 in
  let request ~traced i =
    Dic.Json.to_string
      (Dic.Json.Obj
         (("id", Dic.Json.Str (Printf.sprintf "r%d" i))
          :: ("cif", Dic.Json.Str src)
          :: (if traced then [ ("trace", Dic.Json.Bool true) ] else [])))
  in
  (* One round: [reqs] requests on a new connection, drained; its reply
     lines replace [sink]'s.  Only the last round's are kept: holding
     every round's replies grows the heap the rounds run in. *)
  let round server ~traced sink () =
    let lock = Mutex.create () in
    sink := [];
    let conn =
      Dic.Serve.connect server ~reply:(fun line ->
          Mutex.lock lock;
          sink := line :: !sink;
          Mutex.unlock lock)
    in
    for i = 1 to reqs do
      Dic.Serve.submit server conn (request ~traced i)
    done;
    Dic.Serve.drain server
  in
  let reports replies =
    List.rev_map
      (fun line ->
        match Dic.Json.parse line with
        | Ok v ->
          Option.value ~default:"?" (Option.bind (Dic.Json.member "report" v) Dic.Json.str)
        | Error _ -> "?")
      replies
    |> List.sort compare
  in
  let event_file = Filename.temp_file "dic_bench_events" ".jsonl" in
  let event_oc = Out_channel.open_text event_file in
  let telemetry =
    Dic.Telemetry.create ~slow_ms:0. ~collect_traces:true
      ~event_sink:(fun line ->
        Out_channel.output_string event_oc line;
        Out_channel.output_char event_oc '\n';
        Out_channel.flush event_oc)
      ()
  in
  let quiet_server = Dic.Serve.create ~workers:1 rules in
  let loud_server = Dic.Serve.create ~workers:1 ~telemetry rules in
  (* The warm-up round of each side pays the cold parse/elaborate and
     allocator growth, which are not this experiment's subject. *)
  let quiet_replies = ref [] and loud_replies = ref [] and embed_replies = ref [] in
  let pairs =
    paired ~warmup:1 ~pairs:15
      (round quiet_server ~traced:false quiet_replies)
      (round loud_server ~traced:false loud_replies)
  in
  (* Same loud server, but every request also asks for its span tree
     in the reply — the rendering cost a tracing client signs up for. *)
  let embed = series ~warmup:1 ~runs:7 (round loud_server ~traced:true embed_replies) in
  Dic.Serve.shutdown quiet_server;
  Dic.Serve.shutdown loud_server;
  Out_channel.close event_oc;
  let events = List.length (In_channel.with_open_text event_file In_channel.input_lines) in
  Sys.remove event_file;
  let identical =
    let want = reports !quiet_replies in
    reports !loud_replies = want && reports !embed_replies = want
  in
  let quiet_s = stat (seconds_a pairs) and loud_s = stat (seconds_b pairs) in
  let overhead = map_stat (fun r -> 100. *. (r -. 1.)) (stat (ratios pairs)) in
  let embed_s = stat (seconds embed) in
  let embed_pct = 100. *. ((embed_s.median /. Float.max 1e-9 quiet_s.median) -. 1.) in
  Printf.printf "%-16s %22s %22s %24s %22s %8s %10s\n" "workload" "quiet (s)" "loud (s)"
    "overhead (%)" "embed (s)" "events" "identical";
  Printf.printf "%-16s %22s %22s %24s %22s %8d %10b\n"
    (Printf.sprintf "grid-6x6 x%d" reqs) (show quiet_s) (show loud_s) (show overhead)
    (show embed_s) events identical;
  write_bench "telemetry" ~experiment:"serve-telemetry-overhead"
    [ ("workload", Dic.Json.Str "grid-6x6"); ("requests", int_num reqs);
      ("quiet_s", stat_json quiet_s); ("loud_s", stat_json loud_s);
      ("overhead_pct", stat_json overhead); ("embed_s", stat_json embed_s);
      ("embed_pct", num embed_pct); ("events", int_num events);
      ("identical", Dic.Json.Bool identical) ];
  if not identical then
    failwith "telemetry changed report bytes -- the determinism bar is broken";
  if overhead.median >= 5. then
    failwith
      (Printf.sprintf "telemetry overhead %.2f%% breaches the 5%% budget" overhead.median)

(* ------------------------------------------------------------------ *)
(* T2 -- exposure spacing vs expand-overlap, and micro-benchmarks      *)

(* Each figure is a series of 21 loops after a warm-up loop, as ns per
   call; T2 is the ratio of the two spacing predicates' medians. *)
let t2_micro () =
  section
    "T2: exposure-based spacing vs expand-check-overlap predicate,\n\
     and micro-benchmarks (ns/call, median [q1-q3] of 21 loops)";
  let a = Geom.Region.of_rect (Geom.Rect.make 0 0 (4 * lambda) (2 * lambda)) in
  let b = Geom.Region.of_rect (Geom.Rect.make (5 * lambda) 0 (9 * lambda) (2 * lambda)) in
  let ra = Geom.Rect.make 0 0 (4 * lambda) (2 * lambda)
  and rb = Geom.Rect.make (5 * lambda) 0 (9 * lambda) (2 * lambda) in
  let model = Process_model.Exposure.make ~sigma:60. () in
  let grid4 = Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:4 in
  let kit = Layoutgen.Pathology.fig8_accidental ~lambda in
  let ns ~iters f = map_stat (fun s -> s *. 1e9) (stat (per_call ~iters ~runs:21 f)) in
  let predicate =
    ns ~iters:1_000_000 (fun () -> Geom.Rect.chebyshev_gap ra rb < 3 * lambda)
  in
  let exposure = ns ~iters:200 (fun () -> Process_model.Closest.check model ~misalign:0 a b) in
  Printf.printf "%-32s %26s\n" "benchmark" "ns/call";
  List.iter
    (fun (name, s) -> Printf.printf "%-32s %26s\n" name (show s))
    [ ("t2-expand-overlap-predicate", predicate); ("t2-exposure-closest-approach", exposure);
      ("region-union-2", ns ~iters:20_000 (fun () -> Geom.Region.union a b));
      ("dic-check-grid4x4", ns ~iters:10 (fun () -> check grid4));
      ("flat-check-grid4x4",
       ns ~iters:3 (fun () -> Flatdrc.Classic.check flat_orth_ignore rules grid4));
      ("dic-check-fig8-kit", ns ~iters:50 (fun () -> check kit.Layoutgen.Pathology.file)) ];
  Printf.printf
    "\nT2: exposure-based spacing is %.0fx slower than the expand-overlap\n\
     predicate -- 'still slower ... but more correct and may be feasible'.\n"
    (exposure.median /. Float.max 1e-9 predicate.median)

(* ------------------------------------------------------------------ *)
(* M -- Multi-deck checking in one elaboration                         *)

(* The deck-set engine's economy claim: checking one design under N
   rule decks shares the parse, elaboration, packed geometry, nets, and
   (for decks agreeing on max_dist) the interaction worklist; only rule
   evaluation runs N times.  Measured against the baseline of N
   independent single-deck runs over 10 alternated pairs, engine
   construction inside the timed region; the speedup is the median of
   the per-pair independent/deck-set ratios.  Every run's per-deck
   reports must be byte-identical between the two shapes, or the bench
   fails once the file is written.  An engine keeps no state between
   checks, so a long-lived engine times the same as a new one and there
   is no separate warm phase.  Writes BENCH_multideck.json. *)
let multideck_bench () =
  section
    "M: Multi-deck checking in one elaboration\n\
     (three spacing variants of the NMOS deck over pla-48x96; one\n\
     deck-set engine vs three independent engines;\n\
     median [q1-q3] of 10 pairs)";
  let file =
    Layoutgen.Pla.plane ~lambda (Layoutgen.Pla.random_program ~rows:48 ~cols:96 ~seed:7)
  in
  (* Spacing variants below space_diffusion, so every deck has the same
     max_dist and the set shares one interaction plan. *)
  let deck sp =
    let name = Printf.sprintf "sp%d" sp in
    Dic.Engine.deck ~label:name
      { rules with Tech.Rules.space_poly = sp; Tech.Rules.name = name }
  in
  let decks = List.map deck [ 200; 220; 240 ] in
  let n = List.length decks in
  let run_set () =
    let m = check ~engine:(Dic.Engine.create ~decks rules) file in
    List.map
      (fun dr -> Dic.Engine.report_text { m with Dic.Engine.results = [ dr ] })
      m.Dic.Engine.results
  in
  let run_independent () =
    List.map
      (fun (d : Dic.Engine.deck) ->
        Dic.Engine.report_text (check ~engine:(Dic.Engine.create d.Dic.Engine.dk_rules) file))
      decks
  in
  let pairs = paired ~warmup:1 ~pairs:10 run_set run_independent in
  let want = fst (snd (List.hd pairs)) in
  let identical =
    List.for_all (fun ((set, _), (ind, _)) -> set = want && ind = want) pairs
  in
  let set_s = stat (seconds_a pairs) and ind_s = stat (seconds_b pairs) in
  let speedup = stat (ratios pairs) in
  Printf.printf "%26s %26s %22s %10s\n" "independent (s)" "deck set (s)" "speedup (x)"
    "identical";
  Printf.printf "%26s %26s %22s %10b\n" (show ind_s) (show set_s) (show speedup) identical;
  write_bench "multideck" ~experiment:"multideck"
    [ ("workload", Dic.Json.Str "pla-48x96"); ("decks", int_num n);
      ("independent_s", stat_json ind_s); ("deckset_s", stat_json set_s);
      ("speedup", stat_json speedup); ("identical", Dic.Json.Bool identical) ];
  if not identical then failwith "deck-set reports diverged from independent runs"

(* ------------------------------------------------------------------ *)
(* DC -- Deck semantic analysis + certificate pruning                  *)

(* Two claims, both gated:

   - the whole deck pass over a deck (R001–R014, closure included:
     {!Dic.Lint.check_deck}) is a micro-cost — microseconds per deck,
     so `lint` and `serve` can run it on every request: 21 loops of
     1000 passes after a warm-up loop;
   - the static immunity certificates prune a nonzero fraction of rule
     evaluations on the replicated PLA workloads while the analysis
     itself (certify + guard prepass) stays under 5% of check time —
     the median over the pruned runs of each run's analysis share —
     and the pruned report is byte-identical to the unpruned one
     (DIC_NO_CERTS).  Each mode is timed over 10 alternated on/off
     pairs after a warm-up check in each.  Writes BENCH_deckcheck.json,
     each workload's gates recorded as measured, then fails if any gate
     was breached. *)

let deckcheck_bench () =
  section
    "DC: deck constraint-graph analysis and certificate pruning\n\
     (deck pass micro-cost per deck; certificate-pruned checks must be\n\
     byte-identical to unpruned, skip a nonzero fraction of rule\n\
     evaluations, and keep analysis cost under 5% of check time;\n\
     median [q1-q3])";
  let contradictory_src =
    "name contradictory\nlambda 100\npad_metal_surround 40\nwidth_poly 200\n\
     space_diffusion_poly 80\nspace_poly_diffusion 150\n"
  in
  let decks =
    [ ("builtin-nmos", rules);
      ("contradictory",
       match Tech.Rules.of_string contradictory_src with
       | Ok r -> r
       | Error e -> failwith e) ]
  in
  Printf.printf "%-18s %26s %8s\n" "deck" "deck pass (us)" "diags";
  let deck_rows =
    List.map
      (fun (name, r) ->
        let us =
          map_stat (fun s -> s *. 1e6)
            (stat (per_call ~iters:1000 ~runs:21 (fun () -> Dic.Lint.check_deck r)))
        in
        let diags = List.length (Dic.Lint.check_deck r) in
        Printf.printf "%-18s %26s %8d\n" name (show us) diags;
        Dic.Json.Obj
          [ ("deck", Dic.Json.Str name); ("deck_pass_us", stat_json us);
            ("diags", int_num diags) ])
      decks
  in
  let check_once ~certs file () =
    let saved = Dic.Deckcheck.enabled () in
    Dic.Deckcheck.set_enabled certs;
    Fun.protect
      ~finally:(fun () -> Dic.Deckcheck.set_enabled saved)
      (fun () ->
        let m = Dic.Metrics.create () in
        (Dic.Engine.report_text (check ~metrics:m file), m))
  in
  let workloads =
    [ ("pla-48x96", lazy (Layoutgen.Pla.tier ~lambda ~rows:48 ~cols:96));
      ("pla-96x192", lazy (Layoutgen.Pla.tier ~lambda ~rows:96 ~cols:192)) ]
  in
  Printf.printf "\n%-12s %26s %26s %7s %10s %24s %9s\n" "workload" "on (s)" "off (s)" "skips"
    "evals-cut" "analysis (%)" "identical";
  let breaches = ref [] in
  let workload_rows =
    List.map
      (fun (name, file) ->
        let file = Lazy.force file in
        let pairs =
          paired ~warmup:1 ~pairs:10 (check_once ~certs:true file) (check_once ~certs:false file)
        in
        (* The counters do not vary from run to run: the first pair's. *)
        let ((want, m_on), _), ((_, m_off), _) = List.hd pairs in
        let identical =
          List.for_all (fun (((on, _), _), ((off, _), _)) -> on = want && off = want) pairs
        in
        let t_on = stat (seconds_a pairs) and t_off = stat (seconds_b pairs) in
        let skips = Dic.Metrics.counter m_on "analysis.certified_skips" in
        let pairs_on = Dic.Metrics.counter m_on "interactions.pairs" in
        let pairs_off = Dic.Metrics.counter m_off "interactions.pairs" in
        let evals_cut =
          if pairs_off > 0 then 1. -. (float_of_int pairs_on /. float_of_int pairs_off) else 0.
        in
        let analysis_s m =
          Int64.to_float
            (Int64.add
               (Dic.Metrics.cost_ns m "analysis.certify")
               (Dic.Metrics.cost_ns m "analysis.guard"))
          *. 1e-9
        in
        let on_runs = List.map fst pairs in
        let analysis = stat (List.map (fun ((_, m), _) -> analysis_s m) on_runs) in
        let overhead =
          stat
            (List.map (fun ((_, m), t) -> 100. *. analysis_s m /. Float.max 1e-9 t) on_runs)
        in
        Printf.printf "%-12s %26s %26s %7d %9.1f%% %24s %9b\n" name (show t_on) (show t_off)
          skips (100. *. evals_cut) (show overhead) identical;
        let gates =
          [ ("identical", identical, name ^ ": certificate-pruned report differs from unpruned");
            ("skips_nonzero", skips > 0, name ^ ": certificates pruned nothing on a PLA tier");
            ("overhead_under_5pct", overhead.median < 5.,
             Printf.sprintf "%s: analysis overhead %.2f%% breaches the 5%% budget" name
               overhead.median) ]
        in
        List.iter (fun (_, ok, msg) -> if not ok then breaches := msg :: !breaches) gates;
        Dic.Json.Obj
          [ ("workload", Dic.Json.Str name); ("seconds_on", stat_json t_on);
            ("seconds_off", stat_json t_off); ("identical", Dic.Json.Bool identical);
            ("certified_skips", int_num skips); ("pairs_on", int_num pairs_on);
            ("pairs_off", int_num pairs_off); ("eval_skip_fraction", num evals_cut);
            ("analysis_seconds", stat_json analysis);
            ("analysis_overhead_pct", stat_json overhead);
            ("gates",
             Dic.Json.Obj (List.map (fun (gate, ok, _) -> (gate, Dic.Json.Bool ok)) gates)) ])
      workloads
  in
  write_bench "deckcheck" ~experiment:"deckcheck"
    [ ("decks", Dic.Json.Arr deck_rows); ("workloads", Dic.Json.Arr workload_rows) ];
  match List.rev !breaches with
  | [] -> ()
  | msgs -> failwith (String.concat "; " msgs)

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("fig1", fig01_error_venn); ("fig2", fig02_figure_pathologies);
    ("fig3", fig03_expand_shrink); ("fig4", fig04_width_spacing);
    ("fig5", fig05_topological); ("fig6", fig06_device_dependent);
    ("fig7", fig07_contact_gate); ("fig8", fig08_accidental);
    ("fig9", fig09_hierarchy); ("fig10", fig10_pipeline);
    ("fig11", fig11_skeletal); ("fig12", fig12_matrix);
    ("fig13", fig13_proximity); ("fig14", fig14_relational);
    ("fig15", fig15_self_sufficiency); ("t1", t1_runtime_scaling); ("t2", t2_micro);
    ("ablations", ablations);
    ("trace-overhead", trace_overhead); ("lint-overhead", lint_overhead);
    ("kernel", kernel_bench); ("serve", serve_bench);
    ("telemetry", telemetry_overhead); ("multideck", multideck_bench);
    ("deckcheck", deckcheck_bench) ]

let () =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as picks) ->
    List.iter
      (fun pick ->
        match List.assoc_opt pick experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %s (known: %s)\n" pick
            (String.concat " " (List.map fst experiments));
          exit 2)
      picks
  | _ ->
    List.iter (fun (_, f) -> f ()) experiments;
    print_endline "\nAll experiments complete."
