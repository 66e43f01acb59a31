(* Unit and property tests for the geometry kernel. *)

open Geom

let rect = Alcotest.testable Rect.pp Rect.equal
let region = Alcotest.testable Region.pp Region.equal

(* ------------------------------------------------------------------ *)
(* Pt                                                                  *)

let test_pt_distances () =
  let a = Pt.make 0 0 and b = Pt.make 3 4 in
  Alcotest.(check int) "dist2" 25 (Pt.dist2 a b);
  Alcotest.(check int) "chebyshev" 4 (Pt.chebyshev a b);
  Alcotest.(check int) "manhattan" 7 (Pt.manhattan a b)

let test_pt_arith () =
  let a = Pt.make 2 (-3) and b = Pt.make (-1) 5 in
  Alcotest.(check bool) "add/sub roundtrip" true Pt.(equal a (sub (add a b) b));
  Alcotest.(check bool) "neg" true Pt.(equal (neg (neg a)) a)

(* ------------------------------------------------------------------ *)
(* Rect                                                                *)

let test_rect_normalise () =
  Alcotest.(check rect) "corner order" (Rect.make 0 0 4 6) (Rect.make 4 6 0 0)

let test_rect_center_wh () =
  let r = Rect.of_center_wh ~cx:10 ~cy:20 ~w:4 ~h:6 in
  Alcotest.(check rect) "centered" (Rect.make 8 17 12 23) r;
  Alcotest.(check int) "w" 4 (Rect.width r);
  Alcotest.(check int) "h" 6 (Rect.height r)

let test_rect_predicates () =
  let a = Rect.make 0 0 10 10 and b = Rect.make 10 0 20 10 and c = Rect.make 11 0 20 10 in
  Alcotest.(check bool) "abutting do not overlap" false (Rect.overlaps ~a ~b);
  Alcotest.(check bool) "abutting touch" true (Rect.touches ~a ~b);
  Alcotest.(check bool) "separated do not touch" false (Rect.touches ~a ~b:c);
  Alcotest.(check int) "chebyshev gap" 1 (Rect.chebyshev_gap a c);
  Alcotest.(check int) "euclid gap2" 1 (Rect.euclidean_gap2 a c)

let test_rect_diagonal_gaps () =
  let a = Rect.make 0 0 10 10 and b = Rect.make 13 14 20 20 in
  Alcotest.(check int) "gap_x" 3 (Rect.gap_x a b);
  Alcotest.(check int) "gap_y" 4 (Rect.gap_y a b);
  Alcotest.(check int) "chebyshev" 4 (Rect.chebyshev_gap a b);
  Alcotest.(check int) "euclid2 = 3^2+4^2" 25 (Rect.euclidean_gap2 a b)

let test_rect_inter () =
  let a = Rect.make 0 0 10 10 and b = Rect.make 5 5 15 15 in
  (match Rect.inter a b with
  | Some r -> Alcotest.(check rect) "intersection" (Rect.make 5 5 10 10) r
  | None -> Alcotest.fail "expected intersection");
  Alcotest.(check bool) "disjoint inter" true
    (Rect.inter a (Rect.make 20 20 30 30) = None)

let test_rect_inflate () =
  let a = Rect.make 0 0 10 10 in
  (match Rect.inflate a 3 with
  | Some r -> Alcotest.(check rect) "grow" (Rect.make (-3) (-3) 13 13) r
  | None -> Alcotest.fail "inflate grow");
  (match Rect.inflate a (-5) with
  | Some r -> Alcotest.(check rect) "shrink to degenerate" (Rect.make 5 5 5 5) r
  | None -> Alcotest.fail "shrink to exactly degenerate should survive");
  Alcotest.(check bool) "over-shrink dies" true (Rect.inflate a (-6) = None)

(* ------------------------------------------------------------------ *)
(* Transform                                                           *)

let test_transform_rotate () =
  let p = Pt.make 3 1 in
  Alcotest.(check bool) "north" true
    (Pt.equal (Transform.apply_pt (Transform.rotate `North) p) (Pt.make (-1) 3));
  Alcotest.(check bool) "west" true
    (Pt.equal (Transform.apply_pt (Transform.rotate `West) p) (Pt.make (-3) (-1)));
  Alcotest.(check bool) "south" true
    (Pt.equal (Transform.apply_pt (Transform.rotate `South) p) (Pt.make 1 (-3)))

let test_transform_seq_order () =
  (* CIF order: first list element applied first. *)
  let t = Transform.seq [ Transform.translate 5 0; Transform.rotate `North ] in
  (* (1,0) -> translate -> (6,0) -> rotate ccw -> (0,6) *)
  Alcotest.(check bool) "seq order" true
    (Pt.equal (Transform.apply_pt t (Pt.make 1 0)) (Pt.make 0 6))

let test_transform_rect () =
  let t = Transform.compose (Transform.translate 10 0) (Transform.rotate `North) in
  let r = Transform.apply_rect t (Rect.make 0 0 4 2) in
  Alcotest.(check rect) "rect rotates to normalised corners" (Rect.make 8 0 10 4) r

let test_transform_det () =
  Alcotest.(check int) "mirror is a reflection" (-1) (Transform.det Transform.mirror_x);
  Alcotest.(check int) "rotation preserves orientation" 1
    (Transform.det (Transform.rotate `North))

(* Transforms key placement classes in hash tables, so [equal] must
   agree with [compare], and equal transforms must hash alike.  Seeded,
   over the eight orientations and offsets up to 2^30 either way; the
   pairs include ones that differ in exactly one matrix entry (rotating
   and mirroring give those) or one offset, so a field that [equal]
   forgets shows up. *)
let test_transform_key () =
  let st = Random.State.make [| 2020 |] in
  let orientations =
    List.concat_map
      (fun r -> [ Transform.rotate r; Transform.compose Transform.mirror_x (Transform.rotate r) ])
      [ `East; `North; `West; `South ]
  in
  let place o tx ty = Transform.compose (Transform.translate tx ty) o in
  let agree what a b =
    let eq = Transform.equal a b and cmp = Transform.compare a b in
    if eq <> (cmp = 0) then
      Alcotest.failf "%s: equal %b but compare %d for %a and %a" what eq cmp Transform.pp a
        Transform.pp b;
    if eq && Transform.hash a <> Transform.hash b then
      Alcotest.failf "%s: equal transforms %a hash apart" what Transform.pp a;
    if Transform.hash a < 0 then Alcotest.failf "%s: negative hash" what
  in
  let bound = 1 lsl 30 in
  let offsets =
    [ (0, 0); (bound, -bound); (-bound, bound) ]
    @ List.init 300 (fun _ ->
          ( Random.State.full_int st ((2 * bound) + 1) - bound,
            Random.State.full_int st ((2 * bound) + 1) - bound ))
  in
  List.iter
    (fun (tx, ty) ->
      List.iter
        (fun oa ->
          let a = place oa tx ty in
          agree "rebuilt" a (place oa tx ty);
          agree "offset x" a (place oa (tx + 1) ty);
          agree "offset y" a (place oa tx (ty - 1));
          List.iter (fun ob -> agree "orientation" a (place ob tx ty)) orientations)
        orientations)
    offsets

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

let prop_transform_inverse =
  QCheck2.Test.make ~name:"transform: inverse cancels" ~count:500
    QCheck2.Gen.(
      pair transform_gen (pair (int_range (-100) 100) (int_range (-100) 100)))
    (fun (t, (x, y)) ->
      let p = Pt.make x y in
      Pt.equal (Transform.apply_pt (Transform.inverse t) (Transform.apply_pt t p)) p)

let prop_transform_rect_pointwise =
  QCheck2.Test.make ~name:"transform: rect image contains corner images" ~count:500
    QCheck2.Gen.(pair transform_gen (quad (int_range (-50) 50) (int_range (-50) 50)
                                       (int_range 0 40) (int_range 0 40)))
    (fun (t, (x, y, w, h)) ->
      let r = Rect.make x y (x + w) (y + h) in
      let img = Transform.apply_rect t r in
      List.for_all
        (fun (px, py) -> Rect.contains img (Transform.apply_pt t (Pt.make px py)))
        [ (x, y); (x + w, y); (x, y + h); (x + w, y + h) ])

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)

let span lo hi = { Interval.lo; hi }

let test_interval_normalise () =
  let t = Interval.normalise [ span 5 7; span 0 2; span 2 4; span 6 9 ] in
  Alcotest.(check bool) "merged adjacents" true
    (Interval.equal t [ span 0 4; span 5 9 ])

let test_interval_ops () =
  let a = [ span 0 10 ] and b = [ span 3 5; span 8 12 ] in
  Alcotest.(check bool) "inter" true
    (Interval.equal (Interval.inter a b) [ span 3 5; span 8 10 ]);
  Alcotest.(check bool) "diff" true
    (Interval.equal (Interval.diff a b) [ span 0 3; span 5 8 ]);
  Alcotest.(check int) "length" 10 (Interval.length a);
  Alcotest.(check bool) "mem lo edge" true (Interval.mem 0 a);
  Alcotest.(check bool) "mem hi edge is out (half-open)" false (Interval.mem 10 a)

let test_interval_inflate () =
  let t = Interval.inflate 2 [ span 0 2; span 5 7 ] in
  Alcotest.(check bool) "inflation merges the gap" true (Interval.equal t [ span (-2) 9 ]);
  let s = Interval.inflate (-2) [ span 0 10; span 20 23 ] in
  Alcotest.(check bool) "shrink drops vanishing spans" true (Interval.equal s [ span 2 8 ])

let interval_gen =
  QCheck2.Gen.(
    map Interval.normalise
      (list_size (int_range 0 8)
         (map2 (fun lo len -> span lo (lo + len)) (int_range (-50) 50) (int_range 1 20))))

let prop_interval_diff_self =
  QCheck2.Test.make ~name:"interval: a - a = empty" ~count:500 interval_gen (fun a ->
      Interval.is_empty (Interval.diff a a))

let prop_interval_incl_excl =
  QCheck2.Test.make ~name:"interval: |a u b| = |a| + |b| - |a n b|" ~count:500
    QCheck2.Gen.(pair interval_gen interval_gen)
    (fun (a, b) ->
      Interval.length (Interval.union a b)
      = Interval.length a + Interval.length b - Interval.length (Interval.inter a b))

let prop_interval_demorgan =
  QCheck2.Test.make ~name:"interval: a - b = a n C(b)" ~count:500
    QCheck2.Gen.(pair interval_gen interval_gen)
    (fun (a, b) ->
      let c = Interval.complement ~lo:(-200) ~hi:200 b in
      Interval.equal (Interval.diff a b) (Interval.inter a c))

(* ------------------------------------------------------------------ *)
(* Region                                                              *)

let test_region_canonical_equal () =
  (* Same point set from two different rectangle decompositions. *)
  let a = Region.of_rects [ Rect.make 0 0 10 5; Rect.make 0 5 10 10 ] in
  let b = Region.of_rects [ Rect.make 0 0 5 10; Rect.make 5 0 10 10 ] in
  Alcotest.(check region) "canonical form" a b;
  Alcotest.(check region) "single rect" (Region.of_rect (Rect.make 0 0 10 10)) a

let test_region_area () =
  let l =
    Region.of_rects [ Rect.make 0 0 10 2; Rect.make 0 0 2 10 ]
  in
  Alcotest.(check int) "L-shape area" 36 (Region.area l)

let test_region_bool_ops () =
  let a = Region.of_rect (Rect.make 0 0 10 10)
  and b = Region.of_rect (Rect.make 5 5 15 15) in
  Alcotest.(check int) "union area" 175 (Region.area (Region.union a b));
  Alcotest.(check int) "inter area" 25 (Region.area (Region.inter a b));
  Alcotest.(check int) "diff area" 75 (Region.area (Region.diff a b));
  Alcotest.(check region) "inter" (Region.of_rect (Rect.make 5 5 10 10)) (Region.inter a b)

let test_region_contains () =
  let a = Region.of_rects [ Rect.make 0 0 10 2; Rect.make 0 0 2 10 ] in
  Alcotest.(check bool) "inside arm" true (Region.contains_pt a 1 8);
  Alcotest.(check bool) "outside notch" false (Region.contains_pt a 5 5);
  Alcotest.(check bool) "covered rect" true (Region.contains_rect a (Rect.make 0 0 10 2));
  Alcotest.(check bool) "not covered" false (Region.contains_rect a (Rect.make 0 0 3 3))

let test_region_expand_shrink_orth () =
  let a = Region.of_rect (Rect.make 0 0 10 10) in
  Alcotest.(check region) "expand rect"
    (Region.of_rect (Rect.make (-3) (-3) 13 13))
    (Region.expand_orth a 3);
  Alcotest.(check region) "shrink rect"
    (Region.of_rect (Rect.make 3 3 7 7))
    (Region.shrink_orth a 3);
  Alcotest.(check region) "shrink-expand identity on a big rect" a
    (Region.expand_orth (Region.shrink_orth a 3) 3);
  Alcotest.(check bool) "over-shrink vanishes" true
    (Region.is_empty (Region.shrink_orth a 5))

let test_region_expand_merges_gap () =
  let a = Region.of_rects [ Rect.make 0 0 4 4; Rect.make 8 0 12 4 ] in
  let e = Region.expand_orth a 2 in
  Alcotest.(check int) "one component after expand" 1 (List.length (Region.components e));
  Alcotest.(check int) "two components before" 2 (List.length (Region.components a))

let test_region_shrink_kills_neck () =
  (* Two 10x10 pads joined by a 2-wide neck: shrinking by 2 removes the
     neck entirely, leaving two components. *)
  let r =
    Region.of_rects
      [ Rect.make 0 0 10 10; Rect.make 20 0 30 10; Rect.make 10 4 20 6 ]
  in
  let s = Region.shrink_orth r 2 in
  Alcotest.(check int) "neck severed" 2 (List.length (Region.components s))

let test_region_euclid_expand_cuts_corners () =
  let a = Region.of_rect (Rect.make 0 0 10 10) in
  let d = 8 in
  let orth = Region.expand_orth a d and eucl = Region.expand_euclid a d in
  Alcotest.(check bool) "euclid inside orth" true
    (Region.is_empty (Region.diff eucl orth));
  Alcotest.(check bool) "corner cell cut" false
    (Region.contains_pt eucl (-8) (-8));
  Alcotest.(check bool) "axis cell kept" true (Region.contains_pt eucl (-8) 5);
  Alcotest.(check bool) "orth keeps corner" true (Region.contains_pt orth (-8) (-8))

let test_region_components () =
  let r =
    Region.of_rects
      [ Rect.make 0 0 5 5; Rect.make 5 0 10 5; (* abut: same component *)
        Rect.make 20 20 25 25; (* far: separate *)
        Rect.make 25 25 30 30 (* corner-touch only: separate under 4-conn *) ]
  in
  Alcotest.(check int) "components" 3 (List.length (Region.components r))

let test_region_transform () =
  let r = Region.of_rects [ Rect.make 0 0 10 2; Rect.make 0 0 2 10 ] in
  let t = Transform.rotate `North in
  let r' = Region.transform t r in
  Alcotest.(check int) "area preserved" (Region.area r) (Region.area r');
  Alcotest.(check bool) "rotated arm present" true (Region.contains_pt r' (-2) 1)

let rect_gen =
  QCheck2.Gen.(
    map
      (fun (x, y, w, h) -> Rect.make x y (x + w) (y + h))
      (quad (int_range (-40) 40) (int_range (-40) 40) (int_range 1 30) (int_range 1 30)))

let region_gen =
  QCheck2.Gen.(map Region.of_rects (list_size (int_range 0 6) rect_gen))

let prop_region_incl_excl =
  QCheck2.Test.make ~name:"region: |a u b| = |a|+|b|-|a n b|" ~count:300
    QCheck2.Gen.(pair region_gen region_gen)
    (fun (a, b) ->
      Region.area (Region.union a b)
      = Region.area a + Region.area b - Region.area (Region.inter a b))

let prop_region_diff_disjoint =
  QCheck2.Test.make ~name:"region: (a-b) n b = empty" ~count:300
    QCheck2.Gen.(pair region_gen region_gen)
    (fun (a, b) -> Region.is_empty (Region.inter (Region.diff a b) b))

let prop_region_union_idempotent =
  QCheck2.Test.make ~name:"region: a u a = a" ~count:300 region_gen (fun a ->
      Region.equal (Region.union a a) a)

let prop_region_expand_shrink_contains =
  QCheck2.Test.make ~name:"region: shrink(expand(a,d),d) contains a" ~count:200
    QCheck2.Gen.(pair region_gen (int_range 1 5))
    (fun (a, d) ->
      Region.is_empty (Region.diff a (Region.shrink_orth (Region.expand_orth a d) d)))

let prop_region_shrink_expand_subset =
  QCheck2.Test.make ~name:"region: expand(shrink(a,d),d) subset of a" ~count:200
    QCheck2.Gen.(pair region_gen (int_range 1 5))
    (fun (a, d) ->
      Region.is_empty (Region.diff (Region.expand_orth (Region.shrink_orth a d) d) a))

let prop_region_transform_compose =
  QCheck2.Test.make ~name:"region: transform composes" ~count:200
    QCheck2.Gen.(triple transform_gen transform_gen region_gen)
    (fun (t1, t2, r) ->
      Region.equal
        (Region.transform (Transform.compose t1 t2) r)
        (Region.transform t1 (Region.transform t2 r)))

let prop_region_euclid_in_orth =
  QCheck2.Test.make ~name:"region: euclid expand inside orth expand" ~count:100
    QCheck2.Gen.(pair region_gen (int_range 1 12))
    (fun (a, d) ->
      Region.is_empty (Region.diff (Region.expand_euclid a d) (Region.expand_orth a d)))

let prop_region_expand_monotone =
  QCheck2.Test.make ~name:"region: expand monotone in d" ~count:150
    QCheck2.Gen.(triple region_gen (int_range 1 6) (int_range 1 6))
    (fun (a, d1, d2) ->
      let lo = min d1 d2 and hi = max d1 d2 in
      Region.is_empty (Region.diff (Region.expand_orth a lo) (Region.expand_orth a hi)))

let prop_corners_mod4 =
  (* Every closed rectilinear boundary contributes +-4 to the convex
     minus concave corner count, so the total is always a multiple of
     four. *)
  QCheck2.Test.make ~name:"edges: convex - concave corners is 0 mod 4" ~count:300
    region_gen
    (fun r ->
      let cs = Edges.corners r in
      let convex = List.length (List.filter (fun (c : Edges.corner) -> c.Edges.convex) cs) in
      let concave = List.length cs - convex in
      (convex - concave) mod 4 = 0)

let prop_skeleton_inside =
  QCheck2.Test.make ~name:"skeleton: of_rect stays inside the rect" ~count:300
    QCheck2.Gen.(pair rect_gen (int_range 0 10))
    (fun (r, half) ->
      let s = Skeleton.of_rect ~half r in
      Rect.contains_rect r s)

(* ------------------------------------------------------------------ *)
(* Edges                                                               *)

let test_edges_rect () =
  let r = Region.of_rect (Rect.make 0 0 10 6) in
  Alcotest.(check int) "4 edges" 4 (List.length (Edges.of_region r));
  Alcotest.(check int) "perimeter" 32 (Edges.perimeter r)

let test_edges_diagonal_pinch () =
  (* Two squares meeting at a corner: the shared point carries two
     convex corners (one per quadrant), for eight in total. *)
  let r = Region.of_rects [ Rect.make 0 0 4 4; Rect.make 4 4 8 8 ] in
  let cs = Edges.corners r in
  Alcotest.(check int) "eight convex corners" 8
    (List.length (List.filter (fun (c : Edges.corner) -> c.Edges.convex) cs));
  Alcotest.(check int) "no concave corners" 0
    (List.length (List.filter (fun (c : Edges.corner) -> not c.Edges.convex) cs))

let test_edges_lshape () =
  let l = Region.of_rects [ Rect.make 0 0 10 2; Rect.make 0 0 2 10 ] in
  let cs = Edges.corners l in
  let convex = List.filter (fun (c : Edges.corner) -> c.Edges.convex) cs in
  let concave = List.filter (fun (c : Edges.corner) -> not c.Edges.convex) cs in
  Alcotest.(check int) "L-shape convex corners" 5 (List.length convex);
  Alcotest.(check int) "L-shape concave corners" 1 (List.length concave);
  Alcotest.(check int) "L-shape edges" 6 (List.length (Edges.of_region l))

let prop_edges_perimeter_even =
  QCheck2.Test.make ~name:"edges: horizontal extent = vertical extent per region"
    ~count:300 region_gen (fun r ->
      let es = Edges.of_region r in
      let len o =
        List.fold_left
          (fun acc (e : Edges.t) -> if e.Edges.orient = o then acc + Edges.length e else acc)
          0 es
      in
      (* Boundary alternates directions: total H length equals total V
         length for any rectilinear region?  Not in general -- but left
         boundary total equals right boundary total. *)
      let side o s =
        List.fold_left
          (fun acc (e : Edges.t) ->
            if e.Edges.orient = o && e.Edges.inside = s then acc + Edges.length e else acc)
          0 es
      in
      side Edges.V Edges.Hi = side Edges.V Edges.Lo
      && side Edges.H Edges.Hi = side Edges.H Edges.Lo
      && len Edges.V >= 0)

(* ------------------------------------------------------------------ *)
(* Measure                                                             *)

let test_width_ok () =
  let r = Region.of_rect (Rect.make 0 0 10 10) in
  Alcotest.(check int) "wide rect clean" 0
    (List.length (Measure.min_width ~metric:Measure.Orthogonal ~width:5 r))

let test_width_narrow_bar () =
  let r = Region.of_rect (Rect.make 0 0 3 20) in
  let vs = Measure.min_width ~metric:Measure.Orthogonal ~width:5 r in
  Alcotest.(check bool) "narrow bar flagged" true (List.length vs >= 1);
  match vs with
  | v :: _ -> Alcotest.(check int) "measured 3" 9 v.Measure.gap2
  | [] -> Alcotest.fail "expected violation"

let test_width_neck () =
  (* Two wide pads joined by a narrow neck. *)
  let r =
    Region.of_rects
      [ Rect.make 0 0 10 10; Rect.make 20 0 30 10; Rect.make 10 4 20 6 ]
  in
  let vs = Measure.min_width ~metric:Measure.Orthogonal ~width:4 r in
  Alcotest.(check bool) "neck flagged" true
    (List.exists (fun v -> v.Measure.gap2 = 4) vs);
  let clean = Measure.min_width ~metric:Measure.Orthogonal ~width:2 r in
  Alcotest.(check int) "neck legal at 2" 0 (List.length clean)

let test_width_diagonal_neck_euclid () =
  (* Stair: two squares overlapping by a small diagonal joint.  The
     Euclidean metric sees the short diagonal through the interior. *)
  let r = Region.of_rects [ Rect.make 0 0 10 10; Rect.make 8 8 18 18 ] in
  let vs_e = Measure.min_width ~metric:Measure.Euclidean ~width:5 r in
  Alcotest.(check bool) "euclid catches diagonal neck" true
    (List.exists (fun v -> v.Measure.kind = Measure.Width && v.Measure.gap2 = 8) vs_e);
  let vs_o = Measure.min_width ~metric:Measure.Orthogonal ~width:5 r in
  Alcotest.(check bool) "orthogonal straight-edge scan misses it" false
    (List.exists (fun v -> v.Measure.gap2 = 8) vs_o)

let test_notch () =
  (* A U shape whose slot is 3 wide. *)
  let r =
    Region.of_rects
      [ Rect.make 0 0 13 4; Rect.make 0 4 5 14; Rect.make 8 4 13 14 ]
  in
  let vs = Measure.notch ~metric:Measure.Orthogonal ~space:5 r in
  Alcotest.(check bool) "slot flagged" true
    (List.exists (fun v -> v.Measure.gap2 = 9) vs);
  Alcotest.(check int) "slot legal at 3" 0
    (List.length (Measure.notch ~metric:Measure.Orthogonal ~space:3 r))

let test_spacing_pair () =
  let a = Region.of_rect (Rect.make 0 0 10 10)
  and b = Region.of_rect (Rect.make 14 0 24 10) in
  let vs = Measure.spacing ~metric:Measure.Orthogonal ~space:6 a b in
  Alcotest.(check int) "one close pair" 1 (List.length vs);
  Alcotest.(check int) "gap 4" 16 (List.hd vs).Measure.gap2;
  Alcotest.(check int) "legal at 4" 0
    (List.length (Measure.spacing ~metric:Measure.Orthogonal ~space:4 a b))

let test_spacing_corner_metric_divergence () =
  (* Diagonal corner-to-corner: Chebyshev gap 3, Euclidean gap 3*sqrt2.
     An orthogonal rule of 4 flags it; a Euclidean rule of 4 does not. *)
  let a = Region.of_rect (Rect.make 0 0 10 10)
  and b = Region.of_rect (Rect.make 13 13 20 20) in
  Alcotest.(check int) "orthogonal flags corner" 1
    (List.length (Measure.spacing ~metric:Measure.Orthogonal ~space:4 a b));
  Alcotest.(check int) "euclidean passes corner" 0
    (List.length (Measure.spacing ~metric:Measure.Euclidean ~space:4 a b))

let test_notch_euclid_corner () =
  (* Two arms of one region approaching corner-to-corner: the exterior
     diagonal is a Euclidean notch the straight-edge scan cannot see. *)
  let r = Region.of_rects [ Rect.make 0 0 10 10; Rect.make 12 12 22 22 ] in
  let vs_e = Measure.notch ~metric:Measure.Euclidean ~space:5 r in
  Alcotest.(check bool) "euclid notch flagged" true
    (List.exists (fun v -> v.Measure.kind = Measure.Notch && v.Measure.gap2 = 8) vs_e);
  let vs_o = Measure.notch ~metric:Measure.Orthogonal ~space:5 r in
  Alcotest.(check bool) "orthogonal scan blind to the diagonal" false
    (List.exists (fun v -> v.Measure.gap2 = 8) vs_o)

let test_separation2 () =
  let a = Region.of_rect (Rect.make 0 0 10 10)
  and b = Region.of_rect (Rect.make 13 14 20 20) in
  Alcotest.(check (option int)) "euclid" (Some 25)
    (Measure.separation2 ~metric:Measure.Euclidean a b);
  Alcotest.(check (option int)) "orth" (Some 16)
    (Measure.separation2 ~metric:Measure.Orthogonal a b);
  Alcotest.(check (option int)) "empty" None
    (Measure.separation2 ~metric:Measure.Orthogonal a Region.empty)

let prop_width_scale =
  (* A w-wide bar violates any width rule > w and passes any <= w. *)
  QCheck2.Test.make ~name:"measure: bar width threshold" ~count:200
    QCheck2.Gen.(pair (int_range 1 20) (int_range 1 25))
    (fun (w, rule) ->
      let r = Region.of_rect (Rect.make 0 0 w 100) in
      let vs = Measure.min_width ~metric:Measure.Orthogonal ~width:rule r in
      if rule > w then vs <> [] else vs = [])

let prop_spacing_symmetric =
  QCheck2.Test.make ~name:"measure: separation symmetric" ~count:200
    QCheck2.Gen.(pair region_gen region_gen)
    (fun (a, b) ->
      Measure.separation2 ~metric:Measure.Euclidean a b
      = Measure.separation2 ~metric:Measure.Euclidean b a)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

let test_wire_straight () =
  let w = Wire.make ~width:4 [ Pt.make 0 0; Pt.make 10 0 ] in
  Alcotest.(check int) "one segment rect" 1 (List.length (Wire.to_rects w));
  Alcotest.(check rect) "swept extent" (Rect.make (-2) (-2) 12 2)
    (List.hd (Wire.to_rects w))

let test_wire_bend_area () =
  let w = Wire.make ~width:4 [ Pt.make 0 0; Pt.make 10 0; Pt.make 10 10 ] in
  (* Two 14x4 segments overlapping in a 4x4 elbow. *)
  Alcotest.(check int) "elbow area" (56 + 56 - 16) (Region.area (Wire.to_region w))

let test_wire_diagonal_rejected () =
  Alcotest.check_raises "diagonal wire"
    (Invalid_argument "Wire.make: diagonal wire segments are not allowed") (fun () ->
      ignore (Wire.make ~width:4 [ Pt.make 0 0; Pt.make 5 5 ]))

let test_wire_skeleton () =
  let w = Wire.make ~width:4 [ Pt.make 0 0; Pt.make 10 0 ] in
  (match Wire.skeleton ~half:2 w with
  | [ r ] ->
    Alcotest.(check bool) "min-width wire skeleton is its centreline" true
      (Rect.is_degenerate r);
    Alcotest.(check rect) "centreline extent" (Rect.make 0 0 10 0) r
  | _ -> Alcotest.fail "expected one skeleton rect");
  let w6 = Wire.make ~width:6 [ Pt.make 0 0; Pt.make 10 0 ] in
  match Wire.skeleton ~half:2 w6 with
  | [ r ] -> Alcotest.(check rect) "2-wide skeleton" (Rect.make (-1) (-1) 11 1) r
  | _ -> Alcotest.fail "expected one skeleton rect"

(* ------------------------------------------------------------------ *)
(* Poly                                                                *)

let test_poly_area () =
  let p = Poly.make [ Pt.make 0 0; Pt.make 10 0; Pt.make 10 10; Pt.make 0 10 ] in
  Alcotest.(check int) "square area" 100 (Poly.area p);
  Alcotest.(check bool) "rectilinear" true (Poly.is_rectilinear p)

let test_poly_lshape_region () =
  let p =
    Poly.make
      [ Pt.make 0 0; Pt.make 10 0; Pt.make 10 2; Pt.make 2 2; Pt.make 2 10; Pt.make 0 10 ]
  in
  match Poly.to_region p with
  | Some r ->
    Alcotest.(check region) "L region"
      (Region.of_rects [ Rect.make 0 0 10 2; Rect.make 0 0 2 10 ])
      r;
    Alcotest.(check int) "areas agree" (Poly.area p) (Region.area r)
  | None -> Alcotest.fail "rectilinear polygon must convert"

let test_poly_diagonal () =
  let p = Poly.make [ Pt.make 0 0; Pt.make 10 0; Pt.make 5 8 ] in
  Alcotest.(check bool) "triangle is not rectilinear" false (Poly.is_rectilinear p);
  Alcotest.(check bool) "no region" true (Poly.to_region p = None);
  Alcotest.(check int) "triangle area" 40 (Poly.area p)

(* ------------------------------------------------------------------ *)
(* Skeleton (paper Fig 11)                                             *)

let test_skeleton_of_rect () =
  Alcotest.(check rect) "wide rect shrinks" (Rect.make 2 2 8 8)
    (Skeleton.of_rect ~half:2 (Rect.make 0 0 10 10));
  let s = Skeleton.of_rect ~half:2 (Rect.make 0 0 4 10) in
  Alcotest.(check rect) "min-width rect collapses to line" (Rect.make 2 2 2 8) s

let test_skeletal_connectivity_fig11 () =
  let half = 2 in
  (* Substantially overlapping boxes: skeletons overlap => connected. *)
  let a = Skeleton.of_rect ~half (Rect.make 0 0 10 10)
  and b = Skeleton.of_rect ~half (Rect.make 5 0 15 10) in
  Alcotest.(check bool) "overlap connected" true (Skeleton.connected [ a ] [ b ]);
  (* Corner-nick overlap: geometry overlaps but skeletons do not touch
     => NOT a legal connection (paper Fig 11 right). *)
  let c = Skeleton.of_rect ~half (Rect.make 9 9 19 19) in
  Alcotest.(check bool) "corner nick not connected" false (Skeleton.connected [ a ] [ c ]);
  (* End-to-end abutment of two minimum-width bars: skeletons stop half
     a width short of each end, so mere abutment is NOT a legal
     connection -- this is exactly the Fig 15 butting error.  Overlap
     of at least the minimum width is required. *)
  let d = Skeleton.of_rect ~half (Rect.make 0 0 4 10)
  and e = Skeleton.of_rect ~half (Rect.make 0 10 4 20) in
  Alcotest.(check bool) "abutting min-width bars do not connect" false
    (Skeleton.connected [ d ] [ e ]);
  let f = Skeleton.of_rect ~half (Rect.make 0 6 4 20) in
  Alcotest.(check bool) "min-width overlap connects" true
    (Skeleton.connected [ d ] [ f ]);
  (* Wires keep their full centreline (round-pen semantics), so wires
     that share an endpoint do connect. *)
  let w1 = Wire.skeleton ~half (Wire.make ~width:4 [ Pt.make 0 0; Pt.make 10 0 ])
  and w2 = Wire.skeleton ~half (Wire.make ~width:4 [ Pt.make 10 0; Pt.make 10 10 ]) in
  Alcotest.(check bool) "wires sharing an endpoint connect" true
    (Skeleton.connected w1 w2)

let test_skeleton_union_width_theorem () =
  (* If two legal-width elements are skeletally connected, the union is
     of legal width (the paper's key claim).  Spot-check a bend. *)
  let min_w = 4 and half = 2 in
  let a = Rect.make 0 0 4 12 and b = Rect.make 0 8 12 12 in
  Alcotest.(check bool) "connected" true
    (Skeleton.connected [ Skeleton.of_rect ~half a ] [ Skeleton.of_rect ~half b ]);
  let u = Region.of_rects [ a; b ] in
  Alcotest.(check int) "union legal" 0
    (List.length (Measure.min_width ~metric:Measure.Orthogonal ~width:min_w u))

(* ------------------------------------------------------------------ *)
(* Grid index                                                          *)

let test_grid_index_query () =
  let idx = Grid_index.create ~cell:10 () in
  Grid_index.add idx (Rect.make 0 0 5 5) "a";
  Grid_index.add idx (Rect.make 100 100 105 105) "b";
  Grid_index.add idx (Rect.make 4 4 8 8) "c";
  let hits = Grid_index.query idx (Rect.make 0 0 6 6) in
  Alcotest.(check (list string)) "window hits" [ "a"; "c" ] (List.map snd hits);
  Alcotest.(check int) "far item not hit" 1
    (List.length (Grid_index.query idx (Rect.make 99 99 101 101)))

let test_grid_index_pairs () =
  let idx = Grid_index.create ~cell:10 () in
  Grid_index.add idx (Rect.make 0 0 5 5) 1;
  Grid_index.add idx (Rect.make 8 0 12 5) 2;
  Grid_index.add idx (Rect.make 100 0 105 5) 3;
  let ps = Grid_index.pairs_within idx 4 in
  Alcotest.(check int) "one close pair" 1 (List.length ps);
  let (_, a), (_, b) = List.hd ps in
  Alcotest.(check bool) "the right pair" true (a + b = 3)

let prop_grid_index_complete =
  QCheck2.Test.make ~name:"grid index: pairs_within matches brute force" ~count:100
    QCheck2.Gen.(list_size (int_range 0 12) rect_gen)
    (fun rs ->
      let idx = Grid_index.create ~cell:16 () in
      List.iteri (fun i r -> Grid_index.add idx r i) rs;
      let d = 6 in
      let got = List.length (Grid_index.pairs_within idx d) in
      let arr = Array.of_list rs in
      let want = ref 0 in
      Array.iteri
        (fun i a ->
          Array.iteri (fun j b -> if i < j && Rect.chebyshev_gap a b <= d then incr want) arr)
        arr;
      got = !want)

(* The hashed grid [Grid_index] replaced, kept verbatim as the oracle
   for the flat one: every query and both pair enumerations must give
   the same items in the same order. *)
module Hashed_grid = struct
  type 'a item = { id : int; box : Rect.t; value : 'a }

  type 'a t = {
    cell : int;
    buckets : (int * int, 'a item list ref) Hashtbl.t;
    mutable items : 'a item list;  (** newest first *)
    mutable next_id : int;
  }

  let create ~cell () =
    if cell <= 0 then invalid_arg "Grid_index.create: cell must be positive";
    { cell; buckets = Hashtbl.create 256; items = []; next_id = 0 }

  let fdiv a b = if a >= 0 then a / b else ((a + 1) / b) - 1

  let cells_of t box f =
    let cx0 = fdiv (Rect.x0 box) t.cell
    and cy0 = fdiv (Rect.y0 box) t.cell
    and cx1 = fdiv (Rect.x1 box) t.cell
    and cy1 = fdiv (Rect.y1 box) t.cell in
    for cx = cx0 to cx1 do
      for cy = cy0 to cy1 do
        f (cx, cy)
      done
    done

  let add t box value =
    let item = { id = t.next_id; box; value } in
    t.next_id <- t.next_id + 1;
    t.items <- item :: t.items;
    cells_of t box (fun key ->
        match Hashtbl.find_opt t.buckets key with
        | Some l -> l := item :: !l
        | None -> Hashtbl.add t.buckets key (ref [ item ]))

  let length t = t.next_id

  (* Every item whose box touches [window], once each, in ascending id
     (insertion) order. *)
  let window_hits t window f =
    let seen = Hashtbl.create 16 in
    let hits = ref [] in
    cells_of t window (fun key ->
        match Hashtbl.find_opt t.buckets key with
        | None -> ()
        | Some l ->
          List.iter
            (fun it ->
              if (not (Hashtbl.mem seen it.id)) && Rect.touches ~a:it.box ~b:window then begin
                Hashtbl.add seen it.id ();
                hits := it :: !hits
              end)
            !l);
    List.iter f (List.sort (fun a b -> Int.compare a.id b.id) !hits)

  let query t window =
    let hits = ref [] in
    window_hits t window (fun it -> hits := (it.box, it.value) :: !hits);
    List.rev !hits

  let pairs_within t d =
    let out = ref [] in
    List.iter
      (fun a ->
        match Rect.inflate a.box d with
        | None -> ()
        | Some window ->
          let seen = Hashtbl.create 8 in
          cells_of t window (fun key ->
              match Hashtbl.find_opt t.buckets key with
              | None -> ()
              | Some l ->
                List.iter
                  (fun b ->
                    if
                      b.id < a.id
                      && (not (Hashtbl.mem seen b.id))
                      && Rect.chebyshev_gap a.box b.box <= d
                    then begin
                      Hashtbl.add seen b.id ();
                      out := ((a.box, a.value), (b.box, b.value)) :: !out
                    end)
                  !l))
      t.items;
    !out

  let fold f acc t =
    List.fold_left (fun acc it -> f acc it.box it.value) acc (List.rev t.items)

  (* Callback forms: same hits as [query]/[pairs_within] with a
     documented canonical order (ascending ids) and no result list.  The
     per-window candidate sets are tiny, so sorting a scratch buffer of
     ids costs less than materialising pairs ever did.  [pairs_within]
     itself is left untouched: its historical order fixes the order of
     the findings of its two users, the flat baseline checker and the
     net-list stage's legal-connection pass. *)

  let iter_query t window f = window_hits t window (fun it -> f it.box it.value)

  let iter_pairs_within t d f =
    List.iter
      (fun a ->
        match Rect.inflate a.box d with
        | None -> ()
        | Some window ->
          let seen = Hashtbl.create 8 in
          let near = ref [] in
          cells_of t window (fun key ->
              match Hashtbl.find_opt t.buckets key with
              | None -> ()
              | Some l ->
                List.iter
                  (fun b ->
                    if
                      b.id < a.id
                      && (not (Hashtbl.mem seen b.id))
                      && Rect.chebyshev_gap a.box b.box <= d
                    then begin
                      Hashtbl.add seen b.id ();
                      near := b :: !near
                    end)
                  !l);
          List.iter
            (fun b -> f (a.box, a.value) (b.box, b.value))
            (List.sort (fun x y -> Int.compare x.id y.id) !near))
      (List.rev t.items)
end

(* One seeded box set.  [shape] 0 packs boxes around the origin
   (negative coordinates included); 1 scatters four clusters millions
   of units apart, so most of the grid's hull is empty; 2 adds one box
   spanning the whole set; 3 adds one box 10^8 units away; 4 adds long
   strips and large squares, some too large for the grid to file under
   its cells, which keeps them on its side list.  A fifth of the
   extents are zero, and the added boxes land at seeded insertion
   positions. *)
let grid_boxes st ~shape ~cell =
  let n = Random.State.int st 40 in
  let extent () = if Random.State.int st 5 = 0 then 0 else Random.State.int st 120 in
  let centres = [| (-3_000_000, 0); (0, 2_000_000); (5_000_000, -5_000_000); (0, 0) |] in
  let box () =
    let ox, oy = if shape = 1 then centres.(Random.State.int st 4) else (0, 0) in
    let x = ox + Random.State.int st 1000 - 500 and y = oy + Random.State.int st 1000 - 500 in
    Rect.make x y (x + extent ()) (y + extent ())
  in
  let big () =
    let x = Random.State.int st 1000 - 500 and y = Random.State.int st 1000 - 500 in
    match Random.State.int st 3 with
    | 0 -> Rect.make (x - Random.State.int st 40_000) y (x + Random.State.int st 40_000) (y + 20)
    | 1 -> Rect.make x (y - Random.State.int st 40_000) (x + 20) (y + Random.State.int st 40_000)
    | _ ->
      let half = 250 + Random.State.int st 1000 in
      Rect.make (x - half) (y - half) (x + half) (y + half)
  in
  let insert boxes extra =
    List.fold_left
      (fun boxes b ->
        let k = Random.State.int st (List.length boxes + 1) in
        List.filteri (fun i _ -> i < k) boxes @ [ b ] @ List.filteri (fun i _ -> i >= k) boxes)
      boxes extra
  in
  let boxes = List.init n (fun _ -> box ()) in
  match shape with
  | 2 ->
    let half = 25 * cell in
    insert boxes [ Rect.make (-half) (-half) half half ]
  | 3 -> insert boxes [ Rect.make 100_000_000 (-100_000_000) 100_000_040 (-99_999_990) ]
  | 4 -> insert boxes (List.init (1 + Random.State.int st 4) (fun _ -> big ()))
  | _ -> boxes

(* Everything observable about an index, as comparable data: windows
   near the items, a thin one across many columns, one empty far away
   and one on shape 3's far box; pair orders at [d = 0], [d < cell] and
   [d > cell]; the fold and the length. *)
let grid_observe ~query ~iter_query ~pairs_within ~iter_pairs_within ~fold ~length idx st
    ~cell =
  let windows =
    List.init 6 (fun _ ->
        let x = Random.State.int st 1400 - 700 and y = Random.State.int st 1400 - 700 in
        Rect.make x y (x + Random.State.int st 300) (y + Random.State.int st 300))
    @ [ Rect.make (-3000) 5 3000 15;
        Rect.make 9_000_000 9_000_000 9_000_001 9_000_001;
        Rect.make 99_999_990 (-100_000_020) 100_000_100 (-99_999_900) ]
  in
  let ds = [ 0; max 0 (cell / 2); (2 * cell) + Random.State.int st 50 ] in
  let ids l = List.map snd l in
  ( List.map (fun w -> ids (query idx w)) windows,
    List.map
      (fun w ->
        let acc = ref [] in
        iter_query idx w (fun _ v -> acc := v :: !acc);
        List.rev !acc)
      windows,
    List.map (fun d -> List.map (fun ((_, a), (_, b)) -> (a, b)) (pairs_within idx d)) ds,
    List.map
      (fun d ->
        let acc = ref [] in
        iter_pairs_within idx d (fun (_, a) (_, b) -> acc := (a, b) :: !acc);
        List.rev !acc)
      ds,
    fold (fun acc box v -> (box, v) :: acc) [] idx,
    length idx )

let test_grid_index_oracle () =
  for seed = 0 to 999 do
    let st = Random.State.make [| seed |] in
    let shape = seed mod 5 in
    (* Shape 4's boxes span thousands of units; a coarser nominal cell
       keeps the hashed grid's per-cell walk short. *)
    let cell = (if shape = 4 then 40 else 8) + Random.State.int st 33 in
    let boxes = grid_boxes st ~shape ~cell in
    let split = Random.State.int st (List.length boxes + 1) in
    let flat = Grid_index.create ~cell () and hashed = Hashed_grid.create ~cell () in
    (* Query the empty index, then between two batches of adds, then
       after the rest; both indexes see the same windows and
       distances. *)
    let phase () =
      let got =
        grid_observe ~query:Grid_index.query ~iter_query:Grid_index.iter_query
          ~pairs_within:Grid_index.pairs_within ~iter_pairs_within:Grid_index.iter_pairs_within
          ~fold:Grid_index.fold ~length:Grid_index.length flat (Random.State.copy st) ~cell
      and want =
        grid_observe ~query:Hashed_grid.query ~iter_query:Hashed_grid.iter_query
          ~pairs_within:Hashed_grid.pairs_within ~iter_pairs_within:Hashed_grid.iter_pairs_within
          ~fold:Hashed_grid.fold ~length:Hashed_grid.length hashed (Random.State.copy st) ~cell
      in
      if got <> want then
        Alcotest.failf "seed %d (shape %d, cell %d, %d boxes): flat grid differs from the hashed one"
          seed shape cell (Grid_index.length flat)
    in
    phase ();
    List.iteri
      (fun i r ->
        if i = split then phase ();
        Grid_index.add flat r i;
        Hashed_grid.add hashed r i)
      boxes;
    phase ()
  done

(* A dense 141 x 142 lattice of boxes beside one box 10^8 units away.
   The far box must leave the lattice's cells as they are: a grid sized
   from the items' hull folded the whole lattice into one cell, so that
   every pair query scanned all of it.  The bound leaves room for a slow
   host; the lattice takes milliseconds. *)
let test_grid_index_far_outlier () =
  let nx = 141 and ny = 142 in
  let idx = Grid_index.create ~cell:10 () in
  for i = 0 to nx - 1 do
    for j = 0 to ny - 1 do
      Grid_index.add idx (Rect.make (20 * i) (20 * j) ((20 * i) + 10) ((20 * j) + 10)) ()
    done
  done;
  Grid_index.add idx (Rect.make 100_000_000 100_000_000 100_000_010 100_000_010) ();
  let t0 = Sys.time () in
  let iterated = ref 0 in
  Grid_index.iter_pairs_within idx 10 (fun _ _ -> incr iterated);
  let listed = List.length (Grid_index.pairs_within idx 10) in
  let lattice = List.length (Grid_index.query idx (Rect.make 0 0 (20 * nx) (20 * ny))) in
  let secs = Sys.time () -. t0 in
  (* Each box meets its neighbours across, up and on both diagonals. *)
  let want = ((nx - 1) * ny) + (nx * (ny - 1)) + (2 * (nx - 1) * (ny - 1)) in
  Alcotest.(check int) "iter_pairs_within" want !iterated;
  Alcotest.(check int) "pairs_within" want listed;
  Alcotest.(check int) "lattice window" (nx * ny) lattice;
  if secs > 5. then Alcotest.failf "far box took %.1f s" secs

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "geom"
    [ ( "pt",
        [ Alcotest.test_case "distances" `Quick test_pt_distances;
          Alcotest.test_case "arith" `Quick test_pt_arith ] );
      ( "rect",
        [ Alcotest.test_case "normalise" `Quick test_rect_normalise;
          Alcotest.test_case "of_center_wh" `Quick test_rect_center_wh;
          Alcotest.test_case "predicates" `Quick test_rect_predicates;
          Alcotest.test_case "diagonal gaps" `Quick test_rect_diagonal_gaps;
          Alcotest.test_case "inter" `Quick test_rect_inter;
          Alcotest.test_case "inflate" `Quick test_rect_inflate ] );
      ( "transform",
        [ Alcotest.test_case "rotate" `Quick test_transform_rotate;
          Alcotest.test_case "seq order" `Quick test_transform_seq_order;
          Alcotest.test_case "rect image" `Quick test_transform_rect;
          Alcotest.test_case "determinant" `Quick test_transform_det;
          Alcotest.test_case "equal, compare and hash agree" `Quick test_transform_key ] );
      qsuite "transform.props" [ prop_transform_inverse; prop_transform_rect_pointwise ];
      ( "interval",
        [ Alcotest.test_case "normalise" `Quick test_interval_normalise;
          Alcotest.test_case "ops" `Quick test_interval_ops;
          Alcotest.test_case "inflate" `Quick test_interval_inflate ] );
      qsuite "interval.props"
        [ prop_interval_diff_self; prop_interval_incl_excl; prop_interval_demorgan ];
      ( "region",
        [ Alcotest.test_case "canonical equality" `Quick test_region_canonical_equal;
          Alcotest.test_case "area" `Quick test_region_area;
          Alcotest.test_case "boolean ops" `Quick test_region_bool_ops;
          Alcotest.test_case "contains" `Quick test_region_contains;
          Alcotest.test_case "expand/shrink orth" `Quick test_region_expand_shrink_orth;
          Alcotest.test_case "expand merges gap" `Quick test_region_expand_merges_gap;
          Alcotest.test_case "shrink kills neck" `Quick test_region_shrink_kills_neck;
          Alcotest.test_case "euclid expand corners" `Quick
            test_region_euclid_expand_cuts_corners;
          Alcotest.test_case "components" `Quick test_region_components;
          Alcotest.test_case "transform" `Quick test_region_transform ] );
      qsuite "region.props"
        [ prop_region_incl_excl; prop_region_diff_disjoint; prop_region_union_idempotent;
          prop_region_expand_shrink_contains; prop_region_shrink_expand_subset;
          prop_region_transform_compose; prop_region_euclid_in_orth;
          prop_region_expand_monotone; prop_corners_mod4; prop_skeleton_inside ];
      ( "edges",
        [ Alcotest.test_case "rect" `Quick test_edges_rect;
          Alcotest.test_case "diagonal pinch" `Quick test_edges_diagonal_pinch;
          Alcotest.test_case "L-shape" `Quick test_edges_lshape ] );
      qsuite "edges.props" [ prop_edges_perimeter_even ];
      ( "measure",
        [ Alcotest.test_case "wide ok" `Quick test_width_ok;
          Alcotest.test_case "narrow bar" `Quick test_width_narrow_bar;
          Alcotest.test_case "neck" `Quick test_width_neck;
          Alcotest.test_case "diagonal neck (euclid)" `Quick test_width_diagonal_neck_euclid;
          Alcotest.test_case "notch" `Quick test_notch;
          Alcotest.test_case "spacing pair" `Quick test_spacing_pair;
          Alcotest.test_case "corner metric divergence" `Quick
            test_spacing_corner_metric_divergence;
          Alcotest.test_case "euclid corner notch" `Quick test_notch_euclid_corner;
          Alcotest.test_case "separation2" `Quick test_separation2 ] );
      qsuite "measure.props" [ prop_width_scale; prop_spacing_symmetric ];
      ( "wire",
        [ Alcotest.test_case "straight" `Quick test_wire_straight;
          Alcotest.test_case "bend area" `Quick test_wire_bend_area;
          Alcotest.test_case "diagonal rejected" `Quick test_wire_diagonal_rejected;
          Alcotest.test_case "skeleton" `Quick test_wire_skeleton ] );
      ( "poly",
        [ Alcotest.test_case "area" `Quick test_poly_area;
          Alcotest.test_case "L-shape region" `Quick test_poly_lshape_region;
          Alcotest.test_case "diagonal" `Quick test_poly_diagonal ] );
      ( "skeleton",
        [ Alcotest.test_case "of_rect" `Quick test_skeleton_of_rect;
          Alcotest.test_case "fig11 connectivity" `Quick test_skeletal_connectivity_fig11;
          Alcotest.test_case "union width theorem" `Quick test_skeleton_union_width_theorem ] );
      ( "grid_index",
        [ Alcotest.test_case "query" `Quick test_grid_index_query;
          Alcotest.test_case "pairs" `Quick test_grid_index_pairs;
          Alcotest.test_case "hashed-grid oracle" `Quick test_grid_index_oracle;
          Alcotest.test_case "far outlier" `Quick test_grid_index_far_outlier ] );
      qsuite "grid_index.props" [ prop_grid_index_complete ] ]
