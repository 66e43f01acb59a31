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
