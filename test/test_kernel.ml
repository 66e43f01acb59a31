(* Kernel equivalence: the sweep gap kernel against the brute-force
   oracle, property-tested over adversarial rectangle soup (touching,
   overlapping, coincident, empty), plus end-to-end report identity
   across job counts under the task-queue scheduler. *)

module R = Geom.Rects
module Rect = Geom.Rect
module Transform = Geom.Transform

(* Fixed seed by default (QCHECK_SEED still overrides): the CI and any
   two dev machines explore the same ~1k-case sample, so a failure
   here reproduces everywhere. *)
let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( try int_of_string s with _ -> 0x5eed)
  | None -> 0x5eed

let qsuite name tests =
  ( name,
    List.map
      (fun t ->
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t)
      tests )

(* The oracle: the checker's original list-of-rects brute force, n*m
   axis gaps with no pruning, kept bit-compatible with the sweep.  The
   pair reported for a tied minimum gap is the (ai, bi)-lexicographically
   first over the sorted arrays; [overlap] is exact.  Deliberately left
   on boxed rectangles, independent of the packed kernel it checks. *)
let gap2_naive ~euclid ~cutoff2 a b =
  if R.is_empty a || R.is_empty b then R.no_gap
  else begin
    let best = ref R.no_gap in
    let ra = Array.of_list (R.to_list a) and rb = Array.of_list (R.to_list b) in
    Array.iteri
      (fun i xa ->
        Array.iteri
          (fun j xb ->
            let xg = Rect.gap_x xa xb and yg = Rect.gap_y xa xb in
            let ov = !best.R.overlap || Rect.overlaps ~a:xa ~b:xb in
            let g2 =
              if euclid then (xg * xg) + (yg * yg)
              else
                let m = if xg > yg then xg else yg in
                m * m
            in
            if g2 <= cutoff2 && g2 < !best.R.g2 then
              best := { R.g2; ai = i; bi = j; overlap = ov }
            else if ov <> !best.R.overlap then best := { !best with R.overlap = ov })
          rb)
      ra;
    !best
  end

let gap_eq (a : R.gap) (b : R.gap) =
  a.R.g2 = b.R.g2 && a.R.ai = b.R.ai && a.R.bi = b.R.bi
  && a.R.overlap = b.R.overlap

let pp_gap ppf (g : R.gap) =
  Format.fprintf ppf "{g2=%d; ai=%d; bi=%d; overlap=%b}" g.R.g2 g.R.ai g.R.bi
    g.R.overlap

(* Small coordinates on purpose: touching, overlapping, and coincident
   rectangles must be common in the sample, not one-in-a-million. *)
let rect_gen =
  QCheck2.Gen.(
    map
      (fun ((x, y), (w, h)) -> Rect.make x y (x + w) (y + h))
      (pair
         (pair (int_range (-20) 20) (int_range (-20) 20))
         (pair (int_range 1 12) (int_range 1 12))))

let set_gen = QCheck2.Gen.(list_size (int_range 0 7) rect_gen)

(* All the cutoff regimes the checker uses: degenerate (0), binding
   (small enough to prune most pairs), and unbounded (the exposure
   model's exact minimum). *)
let cutoff_gen =
  QCheck2.Gen.(oneofl [ 0; 9; 25; 100; max_int ])

let case_gen = QCheck2.Gen.(pair (pair set_gen set_gen) (pair bool cutoff_gen))

let prop_sweep_matches_naive =
  QCheck2.Test.make ~name:"sweep = naive (full gap record)" ~count:1000 case_gen
    (fun ((la, lb), (euclid, cutoff2)) ->
      let a = R.of_list la and b = R.of_list lb in
      let ws = R.make_ws () in
      let n = gap2_naive ~euclid ~cutoff2 a b in
      let s = R.gap2 ~euclid ~cutoff2 ws a b in
      if gap_eq n s then true
      else
        QCheck2.Test.fail_reportf "cutoff2=%d euclid=%b: naive=%a sweep=%a"
          cutoff2 euclid pp_gap n pp_gap s)

(* One scratch [ws] reused across calls must not leak state between
   them — that is exactly how the checker uses its per-domain scratch. *)
let prop_ws_reuse =
  QCheck2.Test.make ~name:"ws reuse is stateless" ~count:300
    QCheck2.Gen.(pair case_gen case_gen)
    (fun (((la1, lb1), (e1, c1)), ((la2, lb2), (e2, c2))) ->
      let ws = R.make_ws () in
      let run (la, lb) euclid cutoff2 =
        R.gap2 ~euclid ~cutoff2 ws (R.of_list la) (R.of_list lb)
      in
      let first = run (la1, lb1) e1 c1 in
      ignore (run (la2, lb2) e2 c2);
      gap_eq first (run (la1, lb1) e1 c1))

let transform_gen =
  let open QCheck2.Gen in
  let base =
    oneof
      [ return (Transform.rotate `East); return (Transform.rotate `North);
        return (Transform.rotate `West); return (Transform.rotate `South);
        return Transform.mirror_x; return Transform.mirror_y;
        map2 Transform.translate (int_range (-50) 50) (int_range (-50) 50) ]
  in
  map Transform.seq (list_size (int_range 0 5) base)

let prop_apply_into_matches_list =
  QCheck2.Test.make ~name:"apply_into = of_list . map apply_rect" ~count:500
    QCheck2.Gen.(pair transform_gen set_gen)
    (fun (tr, rects) ->
      let dst = R.empty () in
      R.apply_into tr ~src:(R.of_list rects) ~dst;
      R.to_list dst
      = R.to_list (R.of_list (List.map (Transform.apply_rect tr) rects)))

let prop_separation2_oracle =
  QCheck2.Test.make ~name:"separation2 agrees with the oracle" ~count:300
    QCheck2.Gen.(pair (pair set_gen set_gen) bool)
    (fun ((la, lb), euclid) ->
      let ra = Geom.Region.of_rects la and rb = Geom.Region.of_rects lb in
      let metric =
        if euclid then Geom.Measure.Euclidean else Geom.Measure.Orthogonal
      in
      match Geom.Measure.separation2 ~metric ra rb with
      | None -> Geom.Region.rects ra = [] || Geom.Region.rects rb = []
      | Some g2 ->
        let n =
          gap2_naive ~euclid ~cutoff2:max_int
            (R.of_list (Geom.Region.rects ra))
            (R.of_list (Geom.Region.rects rb))
        in
        g2 = n.R.g2)

(* ------------------------------------------------------------------ *)
(* End-to-end identity                                                 *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda

let run_ok ?config file =
  match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create ?config rules) file with
  | Ok (r, _) -> r
  | Error e -> Alcotest.fail e

let with_jobs jobs =
  { Dic.Engine.default_config with
    Dic.Engine.interactions =
      { Dic.Interactions.default_config with Dic.Interactions.jobs } }

let render r = Format.asprintf "%a" Dic.Report.pp r.Dic.Engine.report

let workloads () =
  [ Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:4;
    (Layoutgen.Pathology.fig8_accidental ~lambda).Layoutgen.Pathology.file;
    (Layoutgen.Pathology.fig2_figures_illegal ~lambda).Layoutgen.Pathology.file ]

let test_jobs_byte_identity () =
  List.iter
    (fun file ->
      let serial = render (run_ok ~config:(with_jobs 1) file) in
      let queued = render (run_ok ~config:(with_jobs 4) file) in
      Alcotest.(check string) "byte-identical rendered report" serial queued)
    (workloads ())

let () =
  Alcotest.run "kernel"
    [ qsuite "gap2.props"
        [ prop_sweep_matches_naive; prop_ws_reuse; prop_apply_into_matches_list;
          prop_separation2_oracle ];
      ( "end-to-end",
        [ Alcotest.test_case "jobs=1 vs jobs=4 report" `Quick
            test_jobs_byte_identity ] ) ]
