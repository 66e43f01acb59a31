(* The grid a query reads: a snapshot of the first [n] items, the few
   that cover too many cells to file, and the ids of the rest by the
   cells they cover, in two compressed levels: occupied columns, then
   each column's occupied cells.  It is built whole, published once,
   and never written again. *)
type 'a frozen = {
  n : int;
  items : (Rect.t * 'a) array;
  edge : int;
  wide : int array;  (** items covering more than [max_cells] cells, ascending *)
  cols : int array;  (** occupied columns, ascending *)
  cstart : int array;  (** column [p] holds cells [cstart.(p) .. cstart.(p+1) - 1] *)
  rows : int array;  (** each cell's row, ascending within a column *)
  start : int array;  (** cell [j] holds [ids.(start.(j)) .. ids.(start.(j+1) - 1)] *)
  ids : int array;  (** ascending within each cell *)
}

type 'a t = {
  cell : int;
  mutable items : (Rect.t * 'a) array;  (** by insertion id *)
  mutable n : int;
  grid : 'a frozen option Atomic.t;  (** [None] until the first query after an [add] *)
}

let create ~cell () =
  if cell <= 0 then invalid_arg "Grid_index.create: cell must be positive";
  { cell; items = [||]; n = 0; grid = Atomic.make None }

let add t box value =
  let n = t.n and item = (box, value) in
  if n = Array.length t.items then begin
    let items = Array.make (max 16 (2 * n)) item in
    Array.blit t.items 0 items 0 n;
    t.items <- items
  end;
  t.items.(n) <- item;
  t.n <- n + 1;
  Atomic.set t.grid None

let length t = t.n

let fdiv a b = if a >= 0 then a / b else ((a + 1) / b) - 1

(* An item covering more cells than this is kept off the grid, on the
   side list every query tests. *)
let max_cells = 256

(* [order], a permutation of indices into [key], stably reordered so
   that [key] ascends along it: an LSD radix sort, eight bits a pass, so
   as many passes as the keys' spread has bytes. *)
let radix_sort key order =
  let m = Array.length order in
  let base = Array.fold_left Int.min max_int key in
  let spread = Array.fold_left Int.max min_int key - base in
  let src = ref order and dst = ref (Array.make m 0) and shift = ref 0 in
  while m > 1 && !shift < Sys.int_size && spread lsr !shift > 0 do
    let src' = !src and dst' = !dst and sh = !shift in
    let next = Array.make 257 0 in
    for j = 0 to m - 1 do
      let d = ((key.(src'.(j)) - base) lsr sh) land 255 in
      next.(d + 1) <- next.(d + 1) + 1
    done;
    for d = 1 to 256 do
      next.(d) <- next.(d) + next.(d - 1)
    done;
    for j = 0 to m - 1 do
      let p = src'.(j) in
      let d = ((key.(p) - base) lsr sh) land 255 in
      dst'.(next.(d)) <- p;
      next.(d) <- next.(d) + 1
    done;
    src := dst';
    dst := src';
    shift := sh + 8
  done;
  !src

(* The cell edge is the larger of [~cell] and twice the median item
   extent, so at least half the items are no wider than half a cell and
   a typical item covers one to four cells.  Only occupied cells are
   kept, so how far apart the items lie leaves memory as it is and
   changes freeze time only through the number of radix passes. *)
let freeze t =
  let n = t.n and items = t.items in
  let box i = fst items.(i) in
  let edge =
    if n = 0 then t.cell
    else begin
      let extents = Array.init n (fun i -> Int.max (Rect.width (box i)) (Rect.height (box i))) in
      Int.max t.cell (2 * extents.((radix_sort extents (Array.init n Fun.id)).(n / 2)))
    end
  in
  let span lo hi = fdiv hi edge - fdiv lo edge + 1 in
  (* The number of cells item [i] is filed under; 0 puts it on the side
     list. *)
  let cells i =
    let b = box i in
    let w = span (Rect.x0 b) (Rect.x1 b) and h = span (Rect.y0 b) (Rect.y1 b) in
    if w > max_cells || h > max_cells / w then 0 else w * h
  in
  let counts = Array.init n cells in
  let wide = ref [] in
  for i = n - 1 downto 0 do
    if counts.(i) = 0 then wide := i :: !wide
  done;
  (* One entry per (cell, item), in ascending item order, sorted by
     column then row; the sorts are stable, so each cell's items stay
     ascending. *)
  let m = Array.fold_left ( + ) 0 counts in
  let ex = Array.make m 0 and ey = Array.make m 0 and eid = Array.make m 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if counts.(i) > 0 then begin
      let b = box i in
      for cx = fdiv (Rect.x0 b) edge to fdiv (Rect.x1 b) edge do
        for cy = fdiv (Rect.y0 b) edge to fdiv (Rect.y1 b) edge do
          ex.(!k) <- cx;
          ey.(!k) <- cy;
          eid.(!k) <- i;
          incr k
        done
      done
    end
  done;
  let order = radix_sort ex (radix_sort ey (Array.init m Fun.id)) in
  (* Compress: a cell starts where the column or the row changes, a
     column where the column does. *)
  let new_col j = j = 0 || ex.(order.(j)) <> ex.(order.(j - 1)) in
  let new_cell j = new_col j || ey.(order.(j)) <> ey.(order.(j - 1)) in
  let ncols = ref 0 and ncells = ref 0 in
  for j = 0 to m - 1 do
    if new_col j then incr ncols;
    if new_cell j then incr ncells
  done;
  let cols = Array.make !ncols 0 and cstart = Array.make (!ncols + 1) !ncells in
  let rows = Array.make !ncells 0 and start = Array.make (!ncells + 1) m in
  let p = ref 0 and c = ref 0 in
  for j = 0 to m - 1 do
    if new_col j then begin
      cols.(!p) <- ex.(order.(j));
      cstart.(!p) <- !c;
      incr p
    end;
    if new_cell j then begin
      rows.(!c) <- ey.(order.(j));
      start.(!c) <- j;
      incr c
    end
  done;
  { n;
    items;
    edge;
    wide = Array.of_list !wide;
    cols;
    cstart;
    rows;
    start;
    ids = Array.map (fun p -> eid.(p)) order }

let frozen t =
  match Atomic.get t.grid with
  | Some g -> g
  | None ->
    let g = freeze t in
    Atomic.set t.grid (Some g);
    g

let meets b x0 y0 x1 y1 = Rect.x0 b <= x1 && x0 <= Rect.x1 b && Rect.y0 b <= y1 && y0 <= Rect.y1 b

(* The first [i] in [lo .. hi - 1] with [a.(i) >= v], or [hi]; [a] is
   strictly ascending there.  Where its values are consecutive, as the
   columns and rows of a filled region are, [lo + v - a.(lo)] is the
   answer and is taken at once; otherwise a binary search finds it. *)
let lower_bound a lo hi v =
  let guess = if lo < hi then lo + v - a.(lo) else hi in
  if guess >= lo && guess < hi && a.(guess) = v then guess
  else begin
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if a.(mid) < v then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* [scan g ~below x0 y0 x1 y1 f] calls [f i] for every item [i < below]
   whose box meets the closed window, once each, in ascending id order.
   It visits only occupied cells: one search finds the window's first
   occupied column, and one more per column its first cell.  An item
   covering several cells of the window is taken only from the first
   of them (the lowest column, then the lowest row, of the overlap), so
   no item is marked and nothing shared is written: the hits collect in
   a list of the query's own. *)
let scan g ~below x0 y0 x1 y1 f =
  let e = g.edge in
  let cx0 = fdiv x0 e and cx1 = fdiv x1 e and cy0 = fdiv y0 e and cy1 = fdiv y1 e in
  let hits = ref [] in
  for w = 0 to Array.length g.wide - 1 do
    let i = g.wide.(w) in
    if i < below && meets (fst g.items.(i)) x0 y0 x1 y1 then hits := i :: !hits
  done;
  let ncols = Array.length g.cols in
  let p = ref (lower_bound g.cols 0 ncols cx0) in
  while !p < ncols && g.cols.(!p) <= cx1 do
    let cx = g.cols.(!p) and last = g.cstart.(!p + 1) in
    let left = cx * e in
    let j = ref (lower_bound g.rows g.cstart.(!p) last cy0) in
    while !j < last && g.rows.(!j) <= cy1 do
      let cy = g.rows.(!j) in
      let bottom = cy * e in
      let k = ref g.start.(!j) and stop = g.start.(!j + 1) in
      while !k < stop && g.ids.(!k) < below do
        let i = g.ids.(!k) in
        let b = fst g.items.(i) in
        if
          meets b x0 y0 x1 y1
          && (cx = cx0 || Rect.x0 b >= left)
          && (cy = cy0 || Rect.y0 b >= bottom)
        then hits := i :: !hits;
        incr k
      done;
      incr j
    done;
    incr p
  done;
  List.iter f (List.sort Int.compare !hits)

let iter_query t window f =
  let g = frozen t in
  scan g ~below:g.n (Rect.x0 window) (Rect.y0 window) (Rect.x1 window) (Rect.y1 window)
    (fun i ->
      let box, v = g.items.(i) in
      f box v)

let query t window =
  let g = frozen t in
  let hits = ref [] in
  scan g ~below:g.n (Rect.x0 window) (Rect.y0 window) (Rect.x1 window) (Rect.y1 window)
    (fun i -> hits := g.items.(i) :: !hits);
  List.rev !hits

(* Chebyshev gap [<= d] is exactly "meets the box inflated by [d]";
   the gap is never negative, so [d < 0] has no pairs. *)
let iter_pairs_within t d f =
  if d >= 0 then begin
    let g = frozen t in
    for a = 0 to g.n - 1 do
      let ((ba, _) as ia) = g.items.(a) in
      scan g ~below:a (Rect.x0 ba - d) (Rect.y0 ba - d) (Rect.x1 ba + d) (Rect.y1 ba + d)
        (fun b -> f ia g.items.(b))
    done
  end

(* The historical order: [a] newest first, and for each [a] its
   partners keyed by the first nominal cell of [a]'s inflated window
   they cover (column, then row), newest first within a cell; the list
   is that sequence reversed. *)
let pairs_within t d =
  let out = ref [] in
  if d >= 0 then begin
    let g = frozen t and cell = t.cell in
    for a = g.n - 1 downto 0 do
      let ba = fst g.items.(a) in
      let x0 = Rect.x0 ba - d and y0 = Rect.y0 ba - d in
      let wcx = fdiv x0 cell and wcy = fdiv y0 cell in
      let near = ref [] in
      scan g ~below:a x0 y0 (Rect.x1 ba + d) (Rect.y1 ba + d) (fun b ->
          let bb = fst g.items.(b) in
          near := (max wcx (fdiv (Rect.x0 bb) cell), max wcy (fdiv (Rect.y0 bb) cell), b) :: !near);
      (* [!near] is newest first; the stable sort keeps that per cell. *)
      List.iter
        (fun (_, _, b) -> out := (g.items.(a), g.items.(b)) :: !out)
        (List.stable_sort
           (fun (x, y, _) (x', y', _) ->
             let c = Int.compare x x' in
             if c <> 0 then c else Int.compare y y')
           !near)
    done
  end;
  !out

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.n - 1 do
    let box, v = t.items.(i) in
    acc := f !acc box v
  done;
  !acc
