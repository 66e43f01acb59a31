let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else begin
    (* 1-based position q*(n+1); the lower neighbour is clamped to
       1..n-1 exactly as statistics.quantiles does, which extrapolates
       past the extremes on tiny samples rather than saturating. *)
    let h = q *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (truncate h)) in
    let frac = h -. float_of_int j in
    a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. frac)
  end

let median xs = quantile xs 0.5
let quartiles xs = (quantile xs 0.25, quantile xs 0.5, quantile xs 0.75)

let tail_percentile n =
  List.find_opt (fun p -> n * (100 - p) >= 1000) [ 99; 95; 90; 75; 50 ]

type span = {
  sp_name : string;
  sp_start : float;
  sp_dur : float;
}

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (total +. (b -. a), b) else (total, reach))
      (0., neg_infinity)
      (List.sort compare clipped)
  in
  total

let self_times spans =
  let arr = Array.of_list spans in
  let n = Array.length arr in
  let children = Array.make n [] in
  (* Visit spans by start time, longest first on ties, so a parent is
     always visited before the spans it contains; the stack holds the
     chain of spans still open at the current start. *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      match Float.compare arr.(i).sp_start arr.(j).sp_start with
      | 0 -> Float.compare arr.(j).sp_dur arr.(i).sp_dur
      | c -> c)
    order;
  let stop i = arr.(i).sp_start +. arr.(i).sp_dur in
  let stack = ref [] in
  Array.iter
    (fun i ->
      (* Pop the open spans that end before this one does; the
         nanosecond slack absorbs float rounding of a child that ends
         on its parent's last tick. *)
      let rec unwind () =
        match !stack with
        | top :: rest when stop top < stop i -. 1e-9 ->
          stack := rest;
          unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | parent :: _ ->
        children.(parent) <- (arr.(i).sp_start, stop i) :: children.(parent)
      | [] -> ());
      stack := i :: !stack)
    order;
  List.init n (fun i ->
      let s = arr.(i) in
      (s.sp_name, s.sp_dur -. covered ~lo:s.sp_start ~hi:(stop i) children.(i)))

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type side = {
  median : float;
  q1 : float;
  q3 : float;
  samples : float list;
}

let side_of_samples samples =
  let q1, median, q3 = quartiles samples in
  { median; q1; q3; samples }

type verdict = Improved | Unchanged | Worse | Unresolved

let string_of_verdict = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let worsening ~better a b =
  let d = (b.median -. a.median) /. Float.abs a.median in
  match better with Lower -> d | Higher -> -.d

let side_spread s = if s.median = 0. then infinity else (s.q3 -. s.q1) /. Float.abs s.median

let verdict ~better ~bound a b =
  let beats x y = match better with Lower -> x < y | Higher -> x > y in
  let dominates xs ys =
    xs <> [] && ys <> [] && List.for_all (fun x -> List.for_all (fun y -> beats x y) ys) xs
  in
  if Float.max (side_spread a) (side_spread b) > bound then
    if dominates b.samples a.samples then Improved
    else if dominates a.samples b.samples then Worse
    else Unresolved
  else
    let w = worsening ~better a b in
    if w > bound then Worse else if w < -.bound then Improved else Unchanged

let first_difference ~expected actual =
  let n = min (String.length expected) (String.length actual) in
  let rec go i =
    if i = n then
      if String.length expected = String.length actual then None else Some n
    else if expected.[i] <> actual.[i] then Some i
    else go (i + 1)
  in
  if String.equal expected actual then None else go 0

let identical ~what ~expected actual =
  match first_difference ~expected actual with
  | None -> Ok ()
  | Some at ->
    Error
      (Printf.sprintf "%s differs from the reference at byte %d (%d bytes, reference %d)"
         what at (String.length actual) (String.length expected))
