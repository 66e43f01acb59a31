(* Benchmark and experiment harness.

   One experiment per figure of the paper (the paper is a systems paper
   whose "evaluation" is its pathology figures and two quantitative
   claims), each printing the rows/series the figure argues from, plus
   Bechamel micro-benchmarks for the two timing claims:

   - T1: hierarchical checking vs flat checking as replication grows;
   - T2: exposure-based spacing (Eq 1) vs the expand-check-overlap
     predicate ("although still slower ... may be feasible").

   Run with: dune exec bench/main.exe *)

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
(* Shared classification helpers                                       *)

(* One cold engine per outcome: the classification experiments compare
   configurations, so nothing may leak between runs.  [configure] is an
   [Engine.with_*] chain. *)
let dic_outcome ?(configure = fun e -> e) truths file =
  match Result.map Dic.Engine.primary @@ Dic.Engine.check (configure (Dic.Engine.create rules)) file with
  | Error e -> failwith e
  | Ok (result, _) ->
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
      let file = Layoutgen.Cells.grid_blocks ~lambda ~nx:n ~ny:n in
      match Dic.Model.elaborate rules file with
      | Error e -> failwith e
      | Ok (model, _) ->
        let de = Dic.Model.definition_elements model
        and fe = Dic.Model.instantiated_elements model in
        Printf.printf "%6d %9d %8d %14d %14d %8.1fx\n" (n * n)
          (Dic.Model.symbol_count model) (Dic.Model.depth model) de fe
          (float_of_int fe /. float_of_int de))
    [ 4; 8; 16; 24 ]

(* ------------------------------------------------------------------ *)
(* F10 -- Fig 10: the pipeline                                         *)

let fig10_pipeline () =
  section "F10 / Fig 10: per-stage cost of the checking pipeline (8x8 grid)";
  let file = Layoutgen.Cells.grid ~lambda ~nx:8 ~ny:8 in
  match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create rules) file with
  | Error e -> failwith e
  | Ok (result, _) ->
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
  let file = Layoutgen.Cells.grid ~lambda ~nx:8 ~ny:4 in
  match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create rules) file with
  | Error e -> failwith e
  | Ok (result, _) ->
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

(* Wall-clock seconds of one call, on the monotonic clock. *)
let wall f =
  let t0 = Dic.Metrics.now_ns () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Dic.Metrics.now_ns ()) t0) *. 1e-9)

let t1_runtime_scaling () =
  section
    "T1: hierarchical vs flat run time as the array grows\n\
     (the hierarchical checker touches each definition once and\n\
     memoises repeated instance pairs)";
  Printf.printf "%8s %12s %12s %12s %10s %14s\n" "cells" "flat rects" "DIC (s)"
    "flat (s)" "speedup" "memo hit rate";
  List.iter
    (fun n ->
      let file = Layoutgen.Cells.grid ~lambda ~nx:n ~ny:n in
      let dic_result, dic_t =
        wall (fun () ->
            match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create rules) file with
            | Ok (r, _) -> r
            | Error e -> failwith e)
      in
      let flat_errors, flat_t =
        wall (fun () -> Flatdrc.Classic.check flat_orth_ignore rules file)
      in
      let stats = dic_result.Dic.Engine.interaction_stats in
      let hits = stats.Dic.Interactions.memo_hits
      and misses = stats.Dic.Interactions.memo_misses in
      let rects = Flatdrc.Flatten.rect_count (Flatdrc.Flatten.file file) in
      Printf.printf "%8d %12d %12.3f %12.3f %9.1fx %13.1f%%\n" (n * n) rects dic_t
        flat_t
        (flat_t /. Float.max 1e-9 dic_t)
        (100. *. float_of_int hits /. Float.max 1. (float_of_int (hits + misses)));
      ignore flat_errors)
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
(* Shared by the experiments that write BENCH_*.json                   *)

(* Every BENCH_*.json stamps the host it ran on: a timing is
   meaningless in CI history without the thread count, compiler, and
   OS that produced it. *)
let provenance_fields () =
  Printf.sprintf "\"hardware_threads\":%d,\"ocaml_version\":%S,\"os\":%S"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.os_type

(* Median of [runs] timed calls after [warmup] discarded warm-up
   call(s) — the warm-up pages in the workload and triggers the one-off
   allocations, the median shrugs off scheduler noise that best-of-N
   systematically understates.  Returns the last run's value. *)
let median_wall ?(warmup = 1) ?(runs = 5) f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let last = ref None in
  let ts =
    List.init runs (fun _ ->
        let v, t = wall f in
        last := Some v;
        t)
  in
  (Option.get !last, List.nth (List.sort compare ts) (runs / 2))

(* ------------------------------------------------------------------ *)
(* TR -- Tracing overhead                                              *)

(* Cost of the span tracer: disabled (no --trace; every with_span is
   one option match) and enabled (two clock reads and an array store
   per span) on a shift register and a cell grid. *)

let trace_overhead () =
  section
    "TR: span-tracing overhead\n\
     (disabled tracing must be free; enabled, a span is two clock\n\
     reads and one append)";
  let best n f =
    let b = ref infinity in
    for _ = 1 to n do
      let _, t = wall f in
      if t < !b then b := t
    done;
    !b
  in
  Printf.printf "%-26s %12s %12s %10s\n" "workload" "off (s)" "on (s)" "overhead";
  List.iter
    (fun (name, file) ->
      let model =
        match Dic.Model.elaborate rules file with
        | Ok (m, _) -> m
        | Error e -> failwith e
      in
      let nets, _ = Dic.Netgen.build model in
      let off = best 5 (fun () -> Dic.Interactions.check nets) in
      let on_ =
        best 5 (fun () ->
            let tr = Dic.Trace.create () in
            Dic.Interactions.check ~trace:tr nets)
      in
      Printf.printf "%-26s %12.4f %12.4f %+9.2f%%\n" name off on_
        (100. *. (on_ -. off) /. Float.max 1e-9 off))
    [ ("shift-register-256", Layoutgen.Shift.register ~lambda 256);
      ("grid-12x12", Layoutgen.Cells.grid ~lambda ~nx:12 ~ny:12) ];
  (* Whole pipeline, end to end, with the full span set (stages,
     symbols, shards). *)
  let file = Layoutgen.Cells.grid ~lambda ~nx:12 ~ny:12 in
  let run trace () =
    match Result.map Dic.Engine.primary @@ Dic.Engine.check ?trace (Dic.Engine.create rules) file with
    | Ok r -> ignore r
    | Error e -> failwith e
  in
  let off = best 3 (run None) in
  let tr = Dic.Trace.create () in
  let on_ = best 3 (run (Some tr)) in
  Printf.printf "%-26s %12.4f %12.4f %+9.2f%%   (%d spans)\n" "full pipeline (grid-12x12)"
    off on_
    (100. *. (on_ -. off) /. Float.max 1e-9 off)
    (Dic.Trace.length tr)

(* ------------------------------------------------------------------ *)
(* LN -- Static lint overhead                                          *)

(* The lint passes are advertised as linear-ish in the deck and
   hierarchy size, cheap enough to leave on (--lint) for every check.
   Prove it: the deck pass (R001–R014, the closure codes included, as
   --lint runs it) + syntax-tree + model lints on shift-register-1024
   must cost under 5% of a full cold check of the same design, or the
   bench aborts. *)

let lint_overhead () =
  section
    "LN: static lint overhead\n\
     (check_deck + check_ast + check_model must stay under 5% of a\n\
     full cold check on shift-register-1024)";
  let best n f =
    let b = ref infinity in
    for _ = 1 to n do
      let _, t = wall f in
      if t < !b then b := t
    done;
    !b
  in
  let file = Layoutgen.Shift.register ~lambda 1024 in
  let model =
    match Dic.Model.elaborate rules file with
    | Ok (m, _) -> m
    | Error e -> failwith e
  in
  let lint =
    best 5 (fun () ->
        let diags =
          Dic.Lint.check_deck rules @ Dic.Lint.check_ast file
          @ Dic.Lint.check_model model
        in
        if diags <> [] then failwith "shift-register-1024 must lint clean")
  in
  let full =
    best 3 (fun () ->
        match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create rules) file with
        | Ok r -> ignore r
        | Error e -> failwith e)
  in
  let pct = 100. *. lint /. Float.max 1e-9 full in
  Printf.printf "%-26s %12s %12s %10s\n" "workload" "lint (s)" "full (s)" "lint/full";
  Printf.printf "%-26s %12.4f %12.4f %9.2f%%\n" "shift-register-1024" lint full pct;
  if pct >= 5. then
    failwith
      (Printf.sprintf "lint overhead %.2f%% breaches the 5%% budget" pct)

(* ------------------------------------------------------------------ *)
(* K -- Packed-rect gap kernel                                         *)

(* The interaction gap kernel on each workload:

   - the kernel proper, as ns/call over the workload's real element
     geometry (round-robin pairing, the checker's own cutoff): the
     median of 21 timings after a warm-up, with its quartiles;
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
     interaction checking, and net-list composition's allocation)";
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
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"experiment\":\"gap-kernel\",%s,\"workloads\":["
       (provenance_fields ()));
  Printf.printf "%-22s %10s %10s %10s %10s %10s\n" "workload" "sweep ns" "stage s"
    "minor Mw" "major Mw" "netgen Mw";
  List.iteri
    (fun wi (name, file, warmup, runs) ->
      if wi > 0 then Buffer.add_string buf ",";
      let model =
        match Dic.Model.elaborate rules (Lazy.force file) with
        | Ok (m, _) -> m
        | Error e -> failwith e
      in
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
      ignore (loop ());
      let ts = Array.init 21 (fun _ -> snd (wall loop)) in
      Array.sort compare ts;
      let ns_of i = ts.(i) *. 1e9 /. float_of_int iters in
      let sweep_ns = ns_of 10 and sweep_q1 = ns_of 5 and sweep_q3 = ns_of 15 in
      (* Net-list composition: its allocation is deterministic, so one
         build measures it. *)
      let n0 = Gc.minor_words () in
      let nets, _ = Dic.Netgen.build model in
      let netgen_minor = (Gc.minor_words () -. n0) /. 1e6 in
      (* End-to-end serial interaction stage. *)
      let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
      let _, stage_s =
        median_wall ~warmup ~runs (fun () -> fst (Dic.Interactions.check nets))
      in
      let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
      (* warmup + runs checks ran: per-run Mwords. *)
      let per_run w = w /. float_of_int (warmup + runs) /. 1e6 in
      let minor = per_run (minor1 -. minor0) and major = per_run (major1 -. major0) in
      Printf.printf "%-22s %10.1f %10.3f %10.1f %10.1f %10.1f\n" name sweep_ns stage_s minor
        major netgen_minor;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"kernel_ns_sweep\":%.1f,\"kernel_ns_sweep_q1\":%.1f,\
            \"kernel_ns_sweep_q3\":%.1f,\"check_sweep_s\":%.6f,\
            \"sweep_minor_mwords\":%.3f,\"sweep_major_mwords\":%.3f,\
            \"netgen_minor_mwords\":%.3f}"
           name sweep_ns sweep_q1 sweep_q3 stage_s minor major netgen_minor))
    workloads;
  (* Warm-vs-cold cache identity: a fresh engine over a cache
     directory a previous engine filled must replay to the
     byte-identical report. *)
  let file = Layoutgen.Shift.register ~lambda 256 in
  let cache_dir =
    let base = Filename.temp_file "dic_bench_kernel" "" in
    Sys.remove base;
    base
  in
  let check () =
    match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create ~cache_dir rules) file with
    | Ok (r, reuse) ->
      (Format.asprintf "%a" Dic.Report.pp r.Dic.Engine.report, reuse)
    | Error e -> failwith e
  in
  let cold, _ = check () in
  let warm, reuse = check () in
  rm_rf cache_dir;
  let cache_identical = String.equal cold warm in
  if not cache_identical then
    failwith "warm-cache report differs from cold";
  Printf.printf
    "warm-vs-cold cache identity (shift-register-256): %b (%d/%d reused)\n"
    cache_identical reuse.Dic.Engine.symbols_reused reuse.Dic.Engine.symbols_total;
  Buffer.add_string buf
    (Printf.sprintf "],\"cache_identical\":%b}" cache_identical);
  Out_channel.with_open_text "BENCH_kernel.json" (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf);
      Out_channel.output_char oc '\n');
  print_endline "wrote BENCH_kernel.json"

(* ------------------------------------------------------------------ *)
(* S -- Serve daemon under concurrent clients                          *)

(* Mocked concurrent clients against a real [dicheck serve] Unix-domain
   socket: the daemon runs [Dic.Serve.serve_socket] in its own domain
   with a 4-worker pool over a persistent cache, and each client is a
   domain sending sequential inline-CIF requests over its own
   connection.  Measures sustained requests/sec and p50/p99 per-request
   latency at 1/2/4/8 clients after a warm-up round, and holds every
   reply's report to byte-identity with the one-shot text ([identical]
   in the output).  Writes BENCH_serve.json. *)

let serve_bench () =
  section
    "S: serve daemon under concurrent clients\n\
     (4 worker domains over one Unix socket; each client sends\n\
     sequential requests on its own connection; identical = every\n\
     reply's report matched the one-shot bytes)";
  let src = Cif.Print.to_string (Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:4) in
  let expected =
    match Result.map Dic.Engine.primary @@ Dic.Engine.check_string (Dic.Engine.create rules) src with
    | Ok (result, _) ->
      Format.asprintf "%a@." Dic.Report.pp result.Dic.Engine.report
      ^ Format.asprintf "%a@." Dic.Engine.pp_summary result
    | Error e -> failwith e
  in
  let cache_dir = Filename.temp_file "dic_bench_serve" "" in
  Sys.remove cache_dir;
  let sock_path = Filename.temp_file "dic_bench_sock" "" in
  Sys.remove sock_path;
  let workers = 4 and reqs_per_client = 25 in
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
      let t0 = Dic.Metrics.now_ns () in
      send fd (request (Printf.sprintf "%s-%d" name i));
      (match In_channel.input_line ic with
      | None -> incr mismatches
      | Some line -> (
        match Dic.Json.parse line with
        | Ok v
          when Option.bind (Dic.Json.member "report" v) Dic.Json.str = Some expected ->
          ()
        | _ -> incr mismatches));
      lats.(i) <- Int64.to_float (Int64.sub (Dic.Metrics.now_ns ()) t0) *. 1e-9
    done;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (lats, !mismatches)
  in
  (* Warm-up: populate the cache and every worker's engines so the
     measured rounds compare steady-state service, not cold parses. *)
  ignore (run_client "warm" (2 * workers) ());
  let percentile sorted q =
    sorted.(min (Array.length sorted - 1)
              (int_of_float (q *. float_of_int (Array.length sorted - 1))))
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"experiment\":\"serve-concurrency\",\"workers\":%d,%s,\"scaling_meaningful\":%b,\"workload\":\"grid-4x4\",\"requests_per_client\":%d,\"points\":["
       workers
       (provenance_fields ())
       (Domain.recommended_domain_count () > 1)
       reqs_per_client);
  Printf.printf "%8s %9s %9s %9s %9s %9s %9s %10s\n" "clients" "requests" "seconds"
    "rps" "ttfr_ms" "p50_ms" "p99_ms" "identical";
  let all_identical = ref true in
  List.iteri
    (fun i clients ->
      let results, seconds =
        wall (fun () ->
            List.init clients (fun k ->
                Domain.spawn (run_client (Printf.sprintf "c%d" k) reqs_per_client))
            |> List.map Domain.join)
      in
      (* Each client's first round trip pays connection setup and any
         cold worker state: report it as time-to-first-reply (worst
         client) and keep it out of the steady-state percentiles. *)
      let ttfr =
        List.fold_left (fun acc (l, _) -> Float.max acc l.(0)) 0. results
      in
      let lats =
        Array.concat
          (List.map (fun (l, _) -> Array.sub l 1 (Array.length l - 1)) results)
      in
      Array.sort compare lats;
      let total = Array.length lats + List.length results in
      let mismatches = List.fold_left (fun acc (_, m) -> acc + m) 0 results in
      let identical = mismatches = 0 in
      if not identical then all_identical := false;
      let rps = float_of_int total /. seconds in
      let ttfr_ms = ttfr *. 1e3 in
      let p50 = percentile lats 0.5 *. 1e3 and p99 = percentile lats 0.99 *. 1e3 in
      Printf.printf "%8d %9d %9.3f %9.1f %9.2f %9.2f %9.2f %10b\n" clients total
        seconds rps ttfr_ms p50 p99 identical;
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"clients\":%d,\"requests\":%d,\"seconds\":%.6f,\"rps\":%.3f,\"ttfr_ms\":%.4f,\"p50_ms\":%.4f,\"p99_ms\":%.4f,\"identical\":%b}"
           clients total seconds rps ttfr_ms p50 p99 identical))
    [ 1; 2; 4; 8 ];
  Buffer.add_string buf (Printf.sprintf "],\"identical\":%b}" !all_identical);
  (* Graceful teardown: the shutdown handshake drains, and
     serve_socket removes its socket file on the way out. *)
  let fd, ic = connect () in
  send fd "{\"id\":\"bye\",\"shutdown\":true}";
  ignore (In_channel.input_line ic);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Domain.join srv;
  rm_rf cache_dir;
  Out_channel.with_open_text "BENCH_serve.json" (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf);
      Out_channel.output_char oc '\n');
  print_endline "wrote BENCH_serve.json"

(* ------------------------------------------------------------------ *)
(* TL -- Service telemetry overhead                                    *)

(* The telemetry bar: with the daemon-side telemetry fully on —
   structured event log to a real file, slow-entry threshold at 0
   (every request logs one), per-request trace collection for the
   service timeline, rolling metrics — a round of sequential requests
   through an in-process single-worker pool must cost under 5% more
   than the same round on a quiet hub, or the bench aborts.  And not
   one report byte may differ.  The per-request "trace":true reply
   embedding is measured too but not gated: only requests that ask for
   a span tree in their reply pay for its rendering.  Writes
   BENCH_telemetry.json. *)

let telemetry_overhead () =
  section
    "TL: service telemetry overhead\n\
     (event log + slow entries + trace collection + rolling metrics\n\
     against a quiet hub, same sequential requests, single worker;\n\
     must stay under 5% and leave every report byte unchanged)";
  let best n f =
    let b = ref infinity in
    for _ = 1 to n do
      let _, t = wall f in
      if t < !b then b := t
    done;
    !b
  in
  let src = Cif.Print.to_string (Layoutgen.Cells.grid ~lambda ~nx:6 ~ny:6) in
  let reqs = 50 in
  let request ~traced i =
    Dic.Json.to_string
      (Dic.Json.Obj
         (("id", Dic.Json.Str (Printf.sprintf "r%d" i))
          :: ("cif", Dic.Json.Str src)
          :: (if traced then [ ("trace", Dic.Json.Bool true) ] else [])))
  in
  let round server ~traced sink =
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
          Option.value ~default:"?"
            (Option.bind (Dic.Json.member "report" v) Dic.Json.str)
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
  let quiet_replies = ref [] and loud_replies = ref [] in
  (* One unmeasured round per configuration pays the cold
     parse/elaborate and allocator growth (not this experiment's
     subject); then the two sides alternate round by
     round so scheduler and GC drift hit both equally, and best-of
     drops the noise spikes a 5% gate cannot tolerate. *)
  round quiet_server ~traced:false quiet_replies;
  round loud_server ~traced:false loud_replies;
  let rounds = 15 in
  let quiet_best = ref infinity and loud_best = ref infinity in
  let ratios =
    List.init rounds (fun _ ->
        let _, tq = wall (fun () -> round quiet_server ~traced:false quiet_replies) in
        if tq < !quiet_best then quiet_best := tq;
        let _, tl = wall (fun () -> round loud_server ~traced:false loud_replies) in
        if tl < !loud_best then loud_best := tl;
        tl /. Float.max 1e-9 tq)
  in
  let quiet_s = !quiet_best and loud_s = !loud_best in
  (* The overhead estimate is the median of the per-pair ratios, not
     the ratio of the two minima: a scheduler spike lands on one round
     of one side and throws a min-based ratio either way, while the
     median pair — measured back to back under the same conditions —
     shrugs it off. *)
  let ratio = List.nth (List.sort compare ratios) (rounds / 2) in
  (* Same loud server, but every request also asks for its span tree
     in the reply — the rendering cost a tracing client signs up for. *)
  let embed_replies = ref [] in
  round loud_server ~traced:true embed_replies;
  let embed_s = best 7 (fun () -> round loud_server ~traced:true embed_replies) in
  Dic.Serve.shutdown quiet_server;
  Dic.Serve.shutdown loud_server;
  Out_channel.close event_oc;
  let events =
    In_channel.with_open_text event_file (fun ic ->
        let n = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr n
           done
         with End_of_file -> ());
        !n)
  in
  Sys.remove event_file;
  let identical =
    reports !quiet_replies = reports !loud_replies
    && reports !quiet_replies = reports !embed_replies
  in
  let pct = 100. *. (ratio -. 1.) in
  let embed_pct = 100. *. (embed_s -. quiet_s) /. Float.max 1e-9 quiet_s in
  Printf.printf "%-22s %11s %11s %10s %11s %8s %10s\n" "workload" "quiet (s)"
    "loud (s)" "overhead" "embed (s)" "events" "identical";
  Printf.printf "%-22s %11.4f %11.4f %+9.2f%% %11.4f %8d %10b\n"
    (Printf.sprintf "grid-6x6 x%d" reqs) quiet_s loud_s pct embed_s events
    identical;
  Out_channel.with_open_text "BENCH_telemetry.json" (fun oc ->
      Printf.fprintf oc
        "{\"experiment\":\"serve-telemetry-overhead\",%s,\"workload\":\"grid-6x6\",\
         \"requests\":%d,\"quiet_s\":%.6f,\"loud_s\":%.6f,\"overhead_pct\":%.3f,\
         \"embed_s\":%.6f,\"embed_pct\":%.3f,\"events\":%d,\"identical\":%b}\n"
        (provenance_fields ()) reqs quiet_s loud_s pct embed_s embed_pct events
        identical);
  print_endline "wrote BENCH_telemetry.json";
  if not identical then
    failwith "telemetry changed report bytes -- the determinism bar is broken";
  if pct >= 5. then
    failwith
      (Printf.sprintf "telemetry overhead %.2f%% breaches the 5%% budget" pct)

(* ------------------------------------------------------------------ *)
(* T2 and Bechamel micro-benchmarks                                    *)

let bechamel_benches () =
  section
    "Bechamel micro-benchmarks (OLS ns/run)\n\
     T2: exposure-based spacing vs expand-check-overlap predicate";
  let open Bechamel in
  let a = Geom.Region.of_rect (Geom.Rect.make 0 0 (4 * lambda) (2 * lambda)) in
  let b = Geom.Region.of_rect (Geom.Rect.make (5 * lambda) 0 (9 * lambda) (2 * lambda)) in
  let ra = Geom.Rect.make 0 0 (4 * lambda) (2 * lambda)
  and rb = Geom.Rect.make (5 * lambda) 0 (9 * lambda) (2 * lambda) in
  let model = Process_model.Exposure.make ~sigma:60. () in
  let grid4 = Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:4 in
  let kit = Layoutgen.Pathology.fig8_accidental ~lambda in
  let tests =
    Test.make_grouped ~name:"dic" ~fmt:"%s/%s"
      [ Test.make ~name:"t2-expand-overlap-predicate"
          (Staged.stage (fun () -> Geom.Rect.chebyshev_gap ra rb < 3 * lambda));
        Test.make ~name:"t2-exposure-closest-approach"
          (Staged.stage (fun () -> Process_model.Closest.check model ~misalign:0 a b));
        Test.make ~name:"region-union-2"
          (Staged.stage (fun () -> Geom.Region.union a b));
        Test.make ~name:"dic-check-grid4x4"
          (Staged.stage (fun () ->
               match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create rules) grid4 with
               | Ok (r, _) -> r
               | Error e -> failwith e));
        Test.make ~name:"flat-check-grid4x4"
          (Staged.stage (fun () -> Flatdrc.Classic.check flat_orth_ignore rules grid4));
        Test.make ~name:"dic-check-fig8-kit"
          (Staged.stage (fun () ->
               match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create rules) kit.Layoutgen.Pathology.file with
               | Ok (r, _) -> r
               | Error e -> failwith e)) ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name samples ->
      let ols =
        Analyze.OLS.ols ~bootstrap:0 ~r_square:true
          ~responder:(Measure.label Toolkit.Instance.monotonic_clock)
          ~predictors:[| Measure.run |] samples.Benchmark.lr
      in
      Hashtbl.replace results name ols)
    raw;
  Printf.printf "%-34s %16s %10s\n" "benchmark" "ns/run" "r^2";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []
  |> List.sort (fun (x, _) (y, _) -> String.compare x y)
  |> List.iter (fun (name, ols) ->
         let est = match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan in
         let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
         Printf.printf "%-34s %16.1f %10.4f\n" name est r2);
  let find k = Hashtbl.find_opt results k in
  match (find "dic/t2-exposure-closest-approach", find "dic/t2-expand-overlap-predicate") with
  | Some slow, Some fast -> (
    match (Analyze.OLS.estimates slow, Analyze.OLS.estimates fast) with
    | Some [ s ], Some [ f ] when f > 0. ->
      Printf.printf
        "\nT2: exposure-based spacing is %.0fx slower than the expand-overlap\n\
         predicate -- 'still slower ... but more correct and may be feasible'.\n"
        (s /. f)
    | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* M -- Multi-deck checking in one elaboration                         *)

(* The deck-set engine's economy claim: checking one design under N
   rule decks shares the parse, elaboration, packed geometry, nets, and
   (for decks agreeing on max_dist) the interaction worklist; only rule
   evaluation runs N times.  Measured against the baseline of N
   independent single-deck runs, with the per-deck reports asserted
   byte-identical between the two shapes.  An engine keeps no state
   between checks, so a long-lived engine times the same as a new one
   and there is no separate warm phase.  Writes BENCH_multideck.json. *)
let multideck_bench () =
  section
    "M: Multi-deck checking in one elaboration\n\
     (three spacing variants of the NMOS deck over pla-48x96; one\n\
     deck-set engine vs three independent engines;\n\
     median of five runs after a warm-up)";
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
  let report_text (result : Dic.Engine.result) =
    Format.asprintf "%a@." Dic.Report.pp result.Dic.Engine.report
  in
  let run_independent engines =
    List.map
      (fun e ->
        match Result.map Dic.Engine.primary @@ Dic.Engine.check e file with
        | Ok (r, _) -> report_text r
        | Error e -> failwith e)
      engines
  in
  let run_set engine =
    match Dic.Engine.check engine file with
    | Ok m ->
      List.map
        (fun (dr : Dic.Engine.deck_result) -> report_text dr.Dic.Engine.dr_result)
        m.Dic.Engine.results
    | Error e -> failwith e
  in
  let fresh_independent () =
    List.map (fun (d : Dic.Engine.deck) -> Dic.Engine.create d.Dic.Engine.dk_rules) decks
  in
  let fresh_set () =
    Dic.Engine.create ~decks (List.hd decks).Dic.Engine.dk_rules
  in
  (* Engine construction inside the timed region. *)
  let ind_reports, ind_s = median_wall (fun () -> run_independent (fresh_independent ())) in
  let set_reports, set_s = median_wall (fun () -> run_set (fresh_set ())) in
  let identical = ind_reports = set_reports in
  let speedup = ind_s /. set_s in
  Printf.printf "%14s %12s %10s %12s\n" "independent_s" "deckset_s" "speedup" "identical";
  Printf.printf "%14.3f %12.3f %9.2fx %12b\n" ind_s set_s speedup identical;
  if not identical then
    print_endline "WARNING: deck-set reports diverged from independent runs";
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"experiment\":\"multideck\",%s,\"workload\":\"pla-48x96\",\"decks\":%d,\
        \"cold\":{\"independent_s\":%.6f,\"deckset_s\":%.6f,\"speedup\":%.3f,\
        \"identical\":%b}}"
       (provenance_fields ()) n ind_s set_s speedup identical);
  Out_channel.with_open_text "BENCH_multideck.json" (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf);
      Out_channel.output_char oc '\n');
  print_endline "wrote BENCH_multideck.json"

(* ------------------------------------------------------------------ *)
(* DC -- Deck semantic analysis + certificate pruning                  *)

(* Two claims, both gated:

   - the whole deck pass over a deck (R001–R014, closure included:
     {!Dic.Lint.check_deck}) is a micro-cost — microseconds per deck,
     so `lint` and `serve` can run it on every request;
   - the static immunity certificates prune a nonzero fraction of rule
     evaluations on the replicated PLA workloads while the analysis
     itself (certify + guard prepass) stays under 5% of check time,
     and the pruned report is byte-identical to the unpruned one
     (DIC_NO_CERTS).  After a warm-up check in each mode, each mode is
     timed over 7 alternated on/off pairs (the pair's first mode
     alternates too), reported as medians with quartiles.  Writes
     BENCH_deckcheck.json, each workload's gates recorded as measured,
     then fails if any gate was breached. *)

let deckcheck_bench () =
  section
    "DC: deck constraint-graph analysis and certificate pruning\n\
     (deck pass micro-cost per deck; certificate-pruned checks must be\n\
     byte-identical to unpruned, skip a nonzero fraction of rule\n\
     evaluations, and keep analysis cost under 5% of check time)";
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{%s,\"decks\":[" (provenance_fields ()));
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
  Printf.printf "%-18s %14s %8s\n" "deck" "deck pass (us)" "diags";
  let first = ref true in
  List.iter
    (fun (name, r) ->
      let diags = ref [] in
      let _, t =
        wall (fun () ->
            for _ = 1 to 1000 do
              diags := Dic.Lint.check_deck r
            done)
      in
      let us = t /. 1000. *. 1e6 in
      Printf.printf "%-18s %14.2f %8d\n" name us (List.length !diags);
      if not !first then Buffer.add_string buf ",";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf "{\"deck\":%S,\"deck_pass_us\":%.3f,\"diags\":%d}" name us
           (List.length !diags)))
    decks;
  Buffer.add_string buf "],\"workloads\":[";
  let check_once ~certs file =
    let saved = Dic.Deckcheck.enabled () in
    Dic.Deckcheck.set_enabled certs;
    Fun.protect
      ~finally:(fun () -> Dic.Deckcheck.set_enabled saved)
      (fun () ->
        let m = Dic.Metrics.create () in
        let bytes_, t =
          wall (fun () ->
              match
                Result.map Dic.Engine.primary
                @@ Dic.Engine.check ~metrics:m (Dic.Engine.create rules) file
              with
              | Ok (r, _) ->
                Format.asprintf "%a@." Dic.Report.pp r.Dic.Engine.report
                ^ Format.asprintf "%a@." Dic.Engine.pp_summary r
              | Error e -> failwith e)
        in
        (bytes_, t, m))
  in
  let workloads =
    [ ("pla-48x96", lazy (Layoutgen.Pla.tier ~lambda ~rows:48 ~cols:96));
      ("pla-96x192", lazy (Layoutgen.Pla.tier ~lambda ~rows:96 ~cols:192)) ]
  in
  let pairs = 7 in
  (* Median, first and third quartile. *)
  let quartiles xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    (a.(n / 2), a.(n / 4), a.(3 * n / 4))
  in
  Printf.printf "\n%-14s %23s %23s %9s %11s %10s %9s\n" "workload" "on (s) [q1-q3]"
    "off (s) [q1-q3]" "skips" "evals-cut" "analysis" "identical";
  let first = ref true and breaches = ref [] in
  List.iter
    (fun (name, file) ->
      let file = Lazy.force file in
      (* The warm-up pair gives the counters, which do not vary. *)
      let on_bytes, _, m_on = check_once ~certs:true file in
      let off_bytes, _, m_off = check_once ~certs:false file in
      let runs =
        List.init pairs (fun i ->
            if i mod 2 = 0 then
              let on = check_once ~certs:true file in
              (on, check_once ~certs:false file)
            else
              let off = check_once ~certs:false file in
              (check_once ~certs:true file, off))
      in
      let identical =
        on_bytes = off_bytes
        && List.for_all (fun ((b_on, _, _), (b_off, _, _)) -> b_on = on_bytes && b_off = on_bytes)
             runs
      in
      let t_on, t_on_q1, t_on_q3 = quartiles (List.map (fun ((_, t, _), _) -> t) runs) in
      let t_off, t_off_q1, t_off_q3 = quartiles (List.map (fun (_, (_, t, _)) -> t) runs) in
      let skips = Dic.Metrics.counter m_on "analysis.certified_skips" in
      let pairs_on = Dic.Metrics.counter m_on "interactions.pairs" in
      let pairs_off = Dic.Metrics.counter m_off "interactions.pairs" in
      let evals_cut =
        if pairs_off > 0 then
          1. -. (float_of_int pairs_on /. float_of_int pairs_off)
        else 0.
      in
      let cost_s m name = Int64.to_float (Dic.Metrics.cost_ns m name) *. 1e-9 in
      let certify_s, _, _ =
        quartiles (List.map (fun ((_, _, m), _) -> cost_s m "analysis.certify") runs)
      in
      let guard_s, _, _ =
        quartiles (List.map (fun ((_, _, m), _) -> cost_s m "analysis.guard") runs)
      in
      let analysis_s = certify_s +. guard_s in
      let overhead_pct = 100. *. analysis_s /. Float.max 1e-9 t_on in
      Printf.printf
        "%-14s %7.3f [%6.3f-%6.3f] %7.3f [%6.3f-%6.3f] %9d %10.1f%% %9.2f%% %9b  \
         (certify %.1fms, guard %.1fms)\n"
        name t_on t_on_q1 t_on_q3 t_off t_off_q1 t_off_q3 skips (100. *. evals_cut)
        overhead_pct identical (certify_s *. 1e3) (guard_s *. 1e3);
      let gates =
        [ ("identical", identical,
           name ^ ": certificate-pruned report differs from unpruned");
          ("skips_nonzero", skips > 0,
           name ^ ": certificates pruned nothing on a PLA tier");
          ("overhead_under_5pct", overhead_pct < 5.,
           Printf.sprintf "%s: analysis overhead %.2f%% breaches the 5%% budget" name
             overhead_pct) ]
      in
      List.iter (fun (_, ok, msg) -> if not ok then breaches := msg :: !breaches) gates;
      if not !first then Buffer.add_string buf ",";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"workload\":%S,\"timed_pairs\":%d,\"seconds_on\":%.6f,\
            \"seconds_on_q1\":%.6f,\"seconds_on_q3\":%.6f,\"seconds_off\":%.6f,\
            \"seconds_off_q1\":%.6f,\"seconds_off_q3\":%.6f,\
            \"identical\":%b,\"certified_skips\":%d,\"pairs_on\":%d,\
            \"pairs_off\":%d,\"eval_skip_fraction\":%.4f,\
            \"analysis_seconds\":%.6f,\"analysis_overhead_pct\":%.3f,\"gates\":{%s}}"
           name pairs t_on t_on_q1 t_on_q3 t_off t_off_q1 t_off_q3 identical skips
           pairs_on pairs_off evals_cut analysis_s overhead_pct
           (String.concat ","
              (List.map (fun (gate, ok, _) -> Printf.sprintf "%S:%b" gate ok) gates))))
    workloads;
  Buffer.add_string buf "]}";
  Out_channel.with_open_text "BENCH_deckcheck.json" (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf);
      Out_channel.output_char oc '\n');
  print_endline "wrote BENCH_deckcheck.json";
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
    ("fig15", fig15_self_sufficiency); ("t1", t1_runtime_scaling);
    ("ablations", ablations);
    ("trace-overhead", trace_overhead); ("lint-overhead", lint_overhead);
    ("kernel", kernel_bench); ("serve", serve_bench);
    ("telemetry", telemetry_overhead); ("multideck", multideck_bench);
    ("deckcheck", deckcheck_bench); ("bechamel", bechamel_benches) ]

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
