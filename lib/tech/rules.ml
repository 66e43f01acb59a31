type t = {
  name : string;
  lambda : int;
  width_diffusion : int;
  width_poly : int;
  width_metal : int;
  contact_size : int;
  space_diffusion : int;
  space_poly : int;
  space_metal : int;
  space_contact : int;
  space_poly_diffusion : int;
  gate_poly_overhang : int;
  gate_diff_extension : int;
  contact_surround : int;
  implant_gate_surround : int;
  buried_overlap : int;
  pad_metal_surround : int;
  pair_spaces : ((Layer.t * Layer.t) * int) list;
  key_positions : (string * int) list;
  waivers : string list;
}

let nmos ?(lambda = 100) () =
  { name = "nmos-lambda";
    lambda;
    width_diffusion = 2 * lambda;
    width_poly = 2 * lambda;
    width_metal = 3 * lambda;
    contact_size = 2 * lambda;
    space_diffusion = 3 * lambda;
    space_poly = 2 * lambda;
    space_metal = 3 * lambda;
    space_contact = 2 * lambda;
    space_poly_diffusion = lambda;
    gate_poly_overhang = 2 * lambda;
    gate_diff_extension = 2 * lambda;
    contact_surround = lambda;
    implant_gate_surround = 3 * lambda / 2;
    buried_overlap = 2 * lambda;
    pad_metal_surround = 2 * lambda;
    pair_spaces = [];
    key_positions = [];
    waivers = [] }

let position t key = List.assoc_opt key t.key_positions

let min_width t = function
  | Layer.Diffusion -> t.width_diffusion
  | Layer.Poly -> t.width_poly
  | Layer.Metal -> t.width_metal
  | Layer.Contact -> t.contact_size
  | Layer.Implant -> t.width_poly
  | Layer.Buried -> t.contact_size
  | Layer.Glass -> t.contact_size

let width_key = function
  | Layer.Diffusion -> "width_diffusion"
  | Layer.Poly | Layer.Implant -> "width_poly"
  | Layer.Metal -> "width_metal"
  | Layer.Contact | Layer.Buried | Layer.Glass -> "contact_size"

let skeleton_half t layer = min_width t layer / 2

let same_layer_space t = function
  | Layer.Diffusion -> t.space_diffusion
  | Layer.Poly -> t.space_poly
  | Layer.Metal -> t.space_metal
  | Layer.Contact -> t.space_contact
  | Layer.Implant -> t.space_poly
  | Layer.Buried -> t.space_contact
  | Layer.Glass -> t.space_metal

let space_key = function
  | Layer.Diffusion -> "space_diffusion"
  | Layer.Poly | Layer.Implant -> "space_poly"
  | Layer.Metal | Layer.Glass -> "space_metal"
  | Layer.Contact | Layer.Buried -> "space_contact"

let cross_layer_space t a b =
  let pair x y = (min (Layer.index x) (Layer.index y), max (Layer.index x) (Layer.index y)) in
  let key = pair a b in
  if key = pair Layer.Poly Layer.Diffusion then Some t.space_poly_diffusion else None

let layer_name = function
  | Layer.Diffusion -> "diffusion"
  | Layer.Poly -> "poly"
  | Layer.Metal -> "metal"
  | Layer.Contact -> "contact"
  | Layer.Implant -> "implant"
  | Layer.Buried -> "buried"
  | Layer.Glass -> "glass"

let layer_of_name s = List.find_opt (fun l -> String.equal (layer_name l) s) Layer.all

let pair_key_name (a, b) = Printf.sprintf "space_%s_%s" (layer_name a) (layer_name b)

let pair_space t a b =
  List.find_map
    (fun ((x, y), v) -> if Layer.equal x a && Layer.equal y b then Some v else None)
    t.pair_spaces

let cell_space_override t a b =
  let lo, hi = if Layer.index a <= Layer.index b then (a, b) else (b, a) in
  match pair_space t lo hi with Some v -> Some v | None -> pair_space t hi lo

let pp ppf t =
  Format.fprintf ppf "%s (lambda=%d)" t.name t.lambda

(* Field table shared by the reader and the writer. *)
let int_fields =
  [ ("width_diffusion", (fun t -> t.width_diffusion), fun t v -> { t with width_diffusion = v });
    ("width_poly", (fun t -> t.width_poly), fun t v -> { t with width_poly = v });
    ("width_metal", (fun t -> t.width_metal), fun t v -> { t with width_metal = v });
    ("contact_size", (fun t -> t.contact_size), fun t v -> { t with contact_size = v });
    ("space_diffusion", (fun t -> t.space_diffusion), fun t v -> { t with space_diffusion = v });
    ("space_poly", (fun t -> t.space_poly), fun t v -> { t with space_poly = v });
    ("space_metal", (fun t -> t.space_metal), fun t v -> { t with space_metal = v });
    ("space_contact", (fun t -> t.space_contact), fun t v -> { t with space_contact = v });
    ("space_poly_diffusion", (fun t -> t.space_poly_diffusion),
     fun t v -> { t with space_poly_diffusion = v });
    ("gate_poly_overhang", (fun t -> t.gate_poly_overhang),
     fun t v -> { t with gate_poly_overhang = v });
    ("gate_diff_extension", (fun t -> t.gate_diff_extension),
     fun t v -> { t with gate_diff_extension = v });
    ("contact_surround", (fun t -> t.contact_surround), fun t v -> { t with contact_surround = v });
    ("implant_gate_surround", (fun t -> t.implant_gate_surround),
     fun t v -> { t with implant_gate_surround = v });
    ("buried_overlap", (fun t -> t.buried_overlap), fun t v -> { t with buried_overlap = v });
    ("pad_metal_surround", (fun t -> t.pad_metal_surround),
     fun t v -> { t with pad_metal_surround = v }) ]

let fields t =
  ("lambda", t.lambda) :: List.map (fun (key, get, _) -> (key, get t)) int_fields

(* The checker squares rule values in native ints (the gap kernels and
   the pair judge compare squared distances), so a value must square,
   and two squares must add, without overflow: (2^30)^2 = 2^60. *)
let max_value = 1 lsl 30
let in_range v = v >= 1 && v <= max_value

let known_keys = "name" :: "lambda" :: List.map (fun (k, _, _) -> k) int_fields

(* A directed [space_<a>_<b>] key over two layer names.  The canonical
   field names ([space_poly_diffusion], [space_diffusion], ...) are
   matched against [int_fields] first, so this only sees the generic
   directed spellings. *)
let pair_key key =
  match String.split_on_char '_' key with
  | [ "space"; a; b ] -> (
    match (layer_of_name a, layer_of_name b) with
    | Some a, Some b -> Some (a, b)
    | _ -> None)
  | _ -> None

let compare_pair ((a, b), _) ((c, d), _) =
  compare (Layer.index a, Layer.index b) (Layer.index c, Layer.index d)

let out_of_range t =
  List.filter
    (fun (_, v) -> not (in_range v))
    (fields t @ List.map (fun (pair, v) -> (pair_key_name pair, v)) t.pair_spaces)

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "name %s\nlambda %d\n" t.name t.lambda);
  List.iter
    (fun (key, get, _) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" key (get t)))
    int_fields;
  List.iter
    (fun (pair, v) ->
      Buffer.add_string buf (Printf.sprintf "%s %d\n" (pair_key_name pair) v))
    (List.sort compare_pair t.pair_spaces);
  Buffer.contents buf

type entry_src = { eline : int; key : string; value : string }

(* [# lint: allow R003] (or a comma/space-separated list of codes) in a
   deck comment suppresses those lint codes for this deck.  Like
   [key_positions], waivers are provenance-adjacent: they never affect
   checking semantics and are not emitted by [to_string], so a waived
   and an unwaived deck share cache entries. *)
let scan_waivers src =
  let codes = ref [] in
  List.iter
    (fun line ->
      match String.index_opt line '#' with
      | None -> ()
      | Some j ->
        let comment =
          String.trim (String.sub line (j + 1) (String.length line - j - 1))
        in
        let accept rest =
          String.split_on_char ',' rest
          |> List.concat_map (String.split_on_char ' ')
          |> List.iter (fun c ->
                 let c = String.trim c in
                 if c <> "" && not (List.mem c !codes) then codes := c :: !codes)
        in
        (match String.index_opt comment ':' with
        | Some k when String.trim (String.sub comment 0 k) = "lint" ->
          let rest =
            String.trim (String.sub comment (k + 1) (String.length comment - k - 1))
          in
          let prefix = "allow" in
          let plen = String.length prefix in
          if
            String.length rest > plen
            && String.sub rest 0 plen = prefix
            && (rest.[plen] = ' ' || rest.[plen] = '\t')
          then accept (String.sub rest plen (String.length rest - plen))
        | _ -> ()))
    (String.split_on_char '\n' src);
  List.sort_uniq compare !codes

let scan src =
  let entries = ref [] and malformed = ref [] in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      match
        String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")
      with
      | [] -> ()
      | [ k; v ] -> entries := { eline = ln; key = k; value = v } :: !entries
      | _ -> malformed := (ln, String.trim line) :: !malformed)
    (String.split_on_char '\n' src);
  (List.rev !entries, List.rev !malformed)

let of_entries entries =
  let rec find_dup seen = function
    | [] -> None
    | e :: rest -> (
      match List.assoc_opt e.key seen with
      | Some first -> Some (e.eline, e.key, first)
      | None -> find_dup ((e.key, e.eline) :: seen) rest)
  in
  match find_dup [] entries with
  | Some (line, key, first) ->
    Error
      (Printf.sprintf "line %d: duplicate key %S (first defined on line %d)" line key first)
  | None ->
    let int_of ~line key v =
      match int_of_string_opt v with
      | Some n when in_range n -> Ok n
      | _ ->
        Error
          (Printf.sprintf "line %d: %s: expected a positive integer no larger than %d, got %S"
             line key max_value v)
    in
    (* lambda first: it sets the defaults. *)
    let base =
      match List.find_opt (fun e -> e.key = "lambda") entries with
      | None -> Ok (nmos ())
      | Some e -> Result.map (fun lambda -> nmos ~lambda ()) (int_of ~line:e.eline "lambda" e.value)
    in
    Result.map
      (fun t ->
        { t with
          pair_spaces = List.sort compare_pair t.pair_spaces;
          (* Source positions ride along so diagnostics (and SARIF) can
             point at the defining line in this deck; they never affect
             checking semantics or the canonical [to_string] form. *)
          key_positions = List.map (fun e -> (e.key, e.eline)) entries })
      (List.fold_left
         (fun acc e ->
           Result.bind acc (fun t ->
               if e.key = "lambda" then Ok t
               else if e.key = "name" then Ok { t with name = e.value }
               else
                 match List.find_opt (fun (k, _, _) -> k = e.key) int_fields with
                 | Some (_, _, set) -> Result.map (set t) (int_of ~line:e.eline e.key e.value)
                 | None -> (
                   match pair_key e.key with
                   | Some pair ->
                     Result.map
                       (fun v -> { t with pair_spaces = t.pair_spaces @ [ (pair, v) ] })
                       (int_of ~line:e.eline e.key e.value)
                   | None ->
                     Error (Printf.sprintf "line %d: unknown rule key %S" e.eline e.key))))
         base entries)

let of_string src =
  match scan src with
  | _, (line, text) :: _ -> Error (Printf.sprintf "line %d: malformed line: %S" line text)
  | entries, [] -> (
    match of_entries entries with
    | Error _ as e -> e
    | Ok t -> (
      (* Written values were range-checked entry by entry, so anything
         left out of range is a default that [lambda] scaled. *)
      match out_of_range t with
      | (key, v) :: _ ->
        Error
          (Printf.sprintf "line %d: lambda %d makes %s %d, above the largest rule value %d"
             (Option.value ~default:0 (position t "lambda"))
             t.lambda key v max_value)
      | [] -> Ok { t with waivers = scan_waivers src }))
