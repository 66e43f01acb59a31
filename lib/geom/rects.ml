(* Packed rectangle sets and the minimum-gap kernel.

   One flat [int array] of (x0,y0,x1,y1) quadruples, kept sorted by
   Rect.compare order (x0, then y0, x1, y1), with the bounding box
   cached alongside.  The record is mutable so a set can double as a
   reusable scratch buffer for [apply_into]; sets that escape into
   shared structures (elaborated elements, memo entries) are never
   mutated after construction.

   The sweep kernel itself is allocation-free: all of its mutable state
   (best pair, overlap flag, active-band cursors) lives in the
   caller-owned [ws] scratch record, and its helpers are top-level
   functions rather than closures, so a gap query allocates nothing
   beyond the returned [gap] record. *)

type t = {
  mutable buf : int array;  (* quadruples, 4 * count used *)
  mutable count : int;
  mutable bx0 : int;
  mutable by0 : int;
  mutable bx1 : int;
  mutable by1 : int;
}

let empty () = { buf = [||]; count = 0; bx0 = 0; by0 = 0; bx1 = 0; by1 = 0 }

let length t = t.count
let is_empty t = t.count = 0

let get t i =
  if i < 0 || i >= t.count then invalid_arg "Rects.get: index out of bounds";
  let o = 4 * i in
  Rect.make t.buf.(o) t.buf.(o + 1) t.buf.(o + 2) t.buf.(o + 3)

let bbox t = if t.count = 0 then None else Some (Rect.make t.bx0 t.by0 t.bx1 t.by1)

(* Insertion sort over quadruples in lexicographic (Rect.compare)
   order.  Sets are per-element geometry (a box, the strips of one wire
   or polygon), so n is small; and the common transform is a
   translation, which keeps the source order and makes this a single
   linear pass. *)
let sort_quads (d : int array) n =
  for i = 1 to n - 1 do
    let x0 = d.(4 * i)
    and y0 = d.((4 * i) + 1)
    and x1 = d.((4 * i) + 2)
    and y1 = d.((4 * i) + 3) in
    let j = ref (i - 1) in
    let less_than_key j =
      let b = 4 * j in
      let c = Int.compare x0 d.(b) in
      if c <> 0 then c < 0
      else
        let c = Int.compare y0 d.(b + 1) in
        if c <> 0 then c < 0
        else
          let c = Int.compare x1 d.(b + 2) in
          if c <> 0 then c < 0 else y1 < d.(b + 3)
    in
    if less_than_key !j then begin
      while !j >= 0 && less_than_key !j do
        Array.blit d (4 * !j) d (4 * (!j + 1)) 4;
        decr j
      done;
      let o = 4 * (!j + 1) in
      d.(o) <- x0;
      d.(o + 1) <- y0;
      d.(o + 2) <- x1;
      d.(o + 3) <- y1
    end
  done

let recompute_bbox t =
  if t.count > 0 then begin
    let d = t.buf in
    let bx0 = ref d.(0) and by0 = ref d.(1) and bx1 = ref d.(2) and by1 = ref d.(3) in
    for i = 1 to t.count - 1 do
      let o = 4 * i in
      if d.(o) < !bx0 then bx0 := d.(o);
      if d.(o + 1) < !by0 then by0 := d.(o + 1);
      if d.(o + 2) > !bx1 then bx1 := d.(o + 2);
      if d.(o + 3) > !by1 then by1 := d.(o + 3)
    done;
    t.bx0 <- !bx0;
    t.by0 <- !by0;
    t.bx1 <- !bx1;
    t.by1 <- !by1
  end

let of_list rects =
  let n = List.length rects in
  let d = Array.make (4 * n) 0 in
  List.iteri
    (fun i r ->
      let o = 4 * i in
      d.(o) <- Rect.x0 r;
      d.(o + 1) <- Rect.y0 r;
      d.(o + 2) <- Rect.x1 r;
      d.(o + 3) <- Rect.y1 r)
    rects;
  sort_quads d n;
  let t = { buf = d; count = n; bx0 = 0; by0 = 0; bx1 = 0; by1 = 0 } in
  recompute_bbox t;
  t

let to_list t =
  let out = ref [] in
  for i = t.count - 1 downto 0 do
    out := get t i :: !out
  done;
  !out

let apply_into tr ~src ~dst =
  if Array.length dst.buf < 4 * src.count then dst.buf <- Array.make (4 * src.count) 0;
  dst.count <- src.count;
  let s = src.buf and d = dst.buf in
  for i = 0 to src.count - 1 do
    let o = 4 * i in
    let px = Transform.apply_x tr s.(o) s.(o + 1)
    and py = Transform.apply_y tr s.(o) s.(o + 1)
    and qx = Transform.apply_x tr s.(o + 2) s.(o + 3)
    and qy = Transform.apply_y tr s.(o + 2) s.(o + 3) in
    d.(o) <- (if px < qx then px else qx);
    d.(o + 1) <- (if py < qy then py else qy);
    d.(o + 2) <- (if px < qx then qx else px);
    d.(o + 3) <- (if py < qy then qy else py)
  done;
  sort_quads d dst.count;
  (* Orthogonal transforms map boxes to boxes: the transformed source
     bbox is exact. *)
  if src.count > 0 then begin
    let px = Transform.apply_x tr src.bx0 src.by0
    and py = Transform.apply_y tr src.bx0 src.by0
    and qx = Transform.apply_x tr src.bx1 src.by1
    and qy = Transform.apply_y tr src.bx1 src.by1 in
    dst.bx0 <- (if px < qx then px else qx);
    dst.by0 <- (if py < qy then py else qy);
    dst.bx1 <- (if px < qx then qx else px);
    dst.by1 <- (if py < qy then qy else py)
  end

let apply tr src =
  let dst = empty () in
  apply_into tr ~src ~dst;
  dst

(* ------------------------------------------------------------------ *)
(* Minimum-gap kernel                                                  *)

type gap = { g2 : int; ai : int; bi : int; overlap : bool }

let no_gap = { g2 = max_int; ai = -1; bi = -1; overlap = false }

(* The sweep's entire mutable state, owned by the caller and reused
   across calls: active-band index arrays plus the best-so-far pair,
   the overlap flag, and the band lengths.  Keeping these here (rather
   than in per-call refs and closures) is what makes a kernel call
   allocation-free — on the PLA workloads the old per-call refs were
   the dominant source of minor-heap churn. *)
type ws = {
  mutable wa : int array;
  mutable wb : int array;
  mutable s_best2 : int;
  mutable s_ai : int;
  mutable s_bi : int;
  mutable s_overlap : bool;
  mutable s_na : int;
  mutable s_nb : int;
}

let make_ws () =
  { wa = [||]; wb = [||]; s_best2 = max_int; s_ai = -1; s_bi = -1; s_overlap = false;
    s_na = 0; s_nb = 0 }

let ensure_ws ws na nb =
  if Array.length ws.wa < na then ws.wa <- Array.make na 0;
  if Array.length ws.wb < nb then ws.wb <- Array.make nb 0

(* One pair test of the sweep: the coordinate loads happen in [drive],
   this only judges them and updates the state in [ws].  Eviction
   elsewhere uses a strict comparison, so pairs tying the current best
   survive and the (ai, bi)-lexicographic tie-break here returns
   exactly the pair an n*m brute force finds.  Overlapping pairs have
   zero x gap and are never evicted, so [overlap] is exact too. *)
let[@inline] consider_pair ws ~euclid ~cutoff2 ai bi ax0 ay0 ax1 ay1 bx0 by0 bx1 by1 =
  let xg =
    let d1 = bx0 - ax1 and d2 = ax0 - bx1 in
    let m = if d1 > d2 then d1 else d2 in
    if m > 0 then m else 0
  in
  let yg =
    let d1 = by0 - ay1 and d2 = ay0 - by1 in
    let m = if d1 > d2 then d1 else d2 in
    if m > 0 then m else 0
  in
  if xg = 0 && yg = 0 && ax0 < bx1 && bx0 < ax1 && ay0 < by1 && by0 < ay1 then
    ws.s_overlap <- true;
  let g2 =
    if euclid then (xg * xg) + (yg * yg)
    else
      let m = if xg > yg then xg else yg in
      m * m
  in
  if g2 <= cutoff2 then
    if
      g2 < ws.s_best2
      || (g2 = ws.s_best2 && (ai < ws.s_ai || (ai = ws.s_ai && bi < ws.s_bi)))
    then begin
      ws.s_best2 <- g2;
      ws.s_ai <- ai;
      ws.s_bi <- bi
    end

(* Evict active rectangles whose x gap to the sweep position [x] (and
   to every later opening, since x0 only grows) already exceeds the
   bound [b2]; returns the compacted band length.  Tail-recursive with
   the cursor in an argument: no ref, no allocation. *)
let rec prune act (d : int array) x b2 i n k =
  if i >= n then k
  else begin
    let ri = Array.unsafe_get act i in
    let dx = x - Array.unsafe_get d ((4 * ri) + 2) in
    if dx <= 0 || dx * dx <= b2 then begin
      Array.unsafe_set act k ri;
      prune act d x b2 (i + 1) n (k + 1)
    end
    else prune act d x b2 (i + 1) n k
  end

let[@inline] bound2 ws cutoff2 = if ws.s_best2 < cutoff2 then ws.s_best2 else cutoff2

(* The x-sweep driver.  Rectangles of both sets are visited in
   ascending x0 (merged); each opening rectangle is compared against
   the other set's active band, pruned against [min best2 cutoff2]. *)
let rec drive ~euclid ~cutoff2 ws (da : int array) ca (db : int array) cb ia ib =
  if ia < ca || ib < cb then begin
    let take_a =
      if ib >= cb then true
      else if ia >= ca then false
      else Array.unsafe_get da (4 * ia) <= Array.unsafe_get db (4 * ib)
    in
    if take_a then begin
      let oa = 4 * ia in
      let ax0 = Array.unsafe_get da oa
      and ay0 = Array.unsafe_get da (oa + 1)
      and ax1 = Array.unsafe_get da (oa + 2)
      and ay1 = Array.unsafe_get da (oa + 3) in
      ws.s_nb <- prune ws.wb db ax0 (bound2 ws cutoff2) 0 ws.s_nb 0;
      for j = 0 to ws.s_nb - 1 do
        let bi = Array.unsafe_get ws.wb j in
        let ob = 4 * bi in
        consider_pair ws ~euclid ~cutoff2 ia bi ax0 ay0 ax1 ay1
          (Array.unsafe_get db ob)
          (Array.unsafe_get db (ob + 1))
          (Array.unsafe_get db (ob + 2))
          (Array.unsafe_get db (ob + 3))
      done;
      Array.unsafe_set ws.wa ws.s_na ia;
      ws.s_na <- ws.s_na + 1;
      drive ~euclid ~cutoff2 ws da ca db cb (ia + 1) ib
    end
    else begin
      let ob = 4 * ib in
      let bx0 = Array.unsafe_get db ob
      and by0 = Array.unsafe_get db (ob + 1)
      and bx1 = Array.unsafe_get db (ob + 2)
      and by1 = Array.unsafe_get db (ob + 3) in
      ws.s_na <- prune ws.wa da bx0 (bound2 ws cutoff2) 0 ws.s_na 0;
      for i = 0 to ws.s_na - 1 do
        let ai = Array.unsafe_get ws.wa i in
        let oa = 4 * ai in
        consider_pair ws ~euclid ~cutoff2 ai ib
          (Array.unsafe_get da oa)
          (Array.unsafe_get da (oa + 1))
          (Array.unsafe_get da (oa + 2))
          (Array.unsafe_get da (oa + 3))
          bx0 by0 bx1 by1
      done;
      Array.unsafe_set ws.wb ws.s_nb ib;
      ws.s_nb <- ws.s_nb + 1;
      drive ~euclid ~cutoff2 ws da ca db cb ia (ib + 1)
    end
  end

let gap2 ~euclid ~cutoff2 ws a b =
  if a.count = 0 || b.count = 0 then no_gap
  else begin
    ensure_ws ws a.count b.count;
    ws.s_best2 <- max_int;
    ws.s_ai <- -1;
    ws.s_bi <- -1;
    ws.s_overlap <- false;
    ws.s_na <- 0;
    ws.s_nb <- 0;
    drive ~euclid ~cutoff2 ws a.buf a.count b.buf b.count 0 0;
    if ws.s_ai < 0 then if ws.s_overlap then { no_gap with overlap = true } else no_gap
    else { g2 = ws.s_best2; ai = ws.s_ai; bi = ws.s_bi; overlap = ws.s_overlap }
  end

let pp ppf t =
  Format.fprintf ppf "@[<h>{";
  for i = 0 to t.count - 1 do
    if i > 0 then Format.fprintf ppf " ";
    Rect.pp ppf (get t i)
  done;
  Format.fprintf ppf "}@]"
