type t = int * int * Geom.Transform.t

let equal ((sa, sb, rel) : t) ((sa', sb', rel') : t) =
  sa = sa' && sb = sb' && Geom.Transform.equal rel rel'

let hash ((sa, sb, rel) : t) =
  ((((Geom.Transform.hash rel * 31) + sa) * 31) + sb) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
