(* Represented as p -> M p + t where M has rows (a b) (c d), each of the
   eight orthogonal matrices. *)
type t = { a : int; b : int; c : int; d : int; tx : int; ty : int }

let identity = { a = 1; b = 0; c = 0; d = 1; tx = 0; ty = 0 }
let translate tx ty = { identity with tx; ty }

let rotate = function
  | `East -> identity
  | `North -> { a = 0; b = -1; c = 1; d = 0; tx = 0; ty = 0 }
  | `West -> { a = -1; b = 0; c = 0; d = -1; tx = 0; ty = 0 }
  | `South -> { a = 0; b = 1; c = -1; d = 0; tx = 0; ty = 0 }

let mirror_x = { a = -1; b = 0; c = 0; d = 1; tx = 0; ty = 0 }
let mirror_y = { a = 1; b = 0; c = 0; d = -1; tx = 0; ty = 0 }

let compose f g =
  (* (f o g) p = f (g p) = Mf (Mg p + tg) + tf *)
  { a = (f.a * g.a) + (f.b * g.c);
    b = (f.a * g.b) + (f.b * g.d);
    c = (f.c * g.a) + (f.d * g.c);
    d = (f.c * g.b) + (f.d * g.d);
    tx = (f.a * g.tx) + (f.b * g.ty) + f.tx;
    ty = (f.c * g.tx) + (f.d * g.ty) + f.ty }

let seq ts = List.fold_left (fun acc t -> compose t acc) identity ts

let apply_pt t (p : Pt.t) =
  Pt.make ((t.a * p.Pt.x) + (t.b * p.Pt.y) + t.tx)
    ((t.c * p.Pt.x) + (t.d * p.Pt.y) + t.ty)

let apply_x t x y = (t.a * x) + (t.b * y) + t.tx
let apply_y t x y = (t.c * x) + (t.d * y) + t.ty

let apply_rect t r =
  let p = apply_pt t (Pt.make (Rect.x0 r) (Rect.y0 r))
  and q = apply_pt t (Pt.make (Rect.x1 r) (Rect.y1 r)) in
  Rect.make p.Pt.x p.Pt.y q.Pt.x q.Pt.y

let det t = (t.a * t.d) - (t.b * t.c)

let equal x y =
  x.a = y.a && x.b = y.b && x.c = y.c && x.d = y.d && x.tx = y.tx && x.ty = y.ty

let compare (x : t) (y : t) = Stdlib.compare x y

(* FNV-1a over the six fields, then the high bits folded down: array
   placements differ by multiples of a pitch, which leaves the low
   bits of a plain product all alike. *)
let hash t =
  let mix h v = (h lxor v) * 0x100000001b3 in
  let h = mix (mix (mix (mix (mix (mix 0x811c9dc5 t.a) t.b) t.c) t.d) t.tx) t.ty in
  (h lxor (h lsr 29)) land max_int

let inverse t =
  (* M is orthogonal with entries in {-1,0,1}: M^-1 = M^T. *)
  let a = t.a and b = t.c and c = t.b and d = t.d in
  { a; b; c; d; tx = -((a * t.tx) + (b * t.ty)); ty = -((c * t.tx) + (d * t.ty)) }

let pp ppf t =
  Format.fprintf ppf "[%d %d; %d %d]+(%d,%d)" t.a t.b t.c t.d t.tx t.ty
