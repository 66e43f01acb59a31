type terminal = {
  device_path : string;
  device : Tech.Device.kind;
  port : string;
}

let is_functional = function
  | Tech.Device.Enhancement | Tech.Device.Depletion | Tech.Device.Resistor
  | Tech.Device.Pad ->
    true
  | Tech.Device.Contact_cut | Tech.Device.Butting_contact | Tech.Device.Buried_contact
  | Tech.Device.Checked ->
    false

type terminals = {
  count : int;
  functional : int;
  depletion : int;
  shape : shape;
}

and shape =
  | Port of Tech.Device.kind * string
  | Union of (string * terminals) list

let empty = { count = 0; functional = 0; depletion = 0; shape = Union [] }

let port kind name =
  { count = 1;
    functional = (if is_functional kind then 1 else 0);
    depletion = (if Tech.Device.equal kind Tech.Device.Depletion then 1 else 0);
    shape = Port (kind, name) }

let union = function
  | [] -> empty
  | parts ->
    let rec sum c f d = function
      | [] -> { count = c; functional = f; depletion = d; shape = Union parts }
      | (_, t) :: rest -> sum (c + t.count) (f + t.functional) (d + t.depletion) rest
    in
    sum 0 0 0 parts

let count t = t.count
let functional t = t.functional
let depletion t = t.depletion

(* [go path t acc] puts [t]'s terminals, under [path], in front of
   [acc]; folding each union's parts from the right keeps their order
   without a reversal. *)
let flatten t =
  let rec go path t acc =
    match t.shape with
    | Port (device, port) -> { device_path = path; device; port } :: acc
    | Union parts ->
      List.fold_right
        (fun (inst, sub) acc -> go (if path = "" then inst else path ^ "." ^ inst) sub acc)
        parts acc
  in
  go "" t []

type net = {
  names : string list;
  auto_name : string;
  classes : Tech.Netclass.t list;
  terminals : terminals;
  element_count : int;
}

type t = { nets : net list }

let class_bit = function
  | Tech.Netclass.Power -> 1
  | Tech.Netclass.Ground -> 2
  | Tech.Netclass.Bus -> 4
  | Tech.Netclass.Signal -> 0

let classes_of = function
  | [] -> []
  | names ->
    let bits = List.fold_left (fun b n -> b lor class_bit (Tech.Netclass.classify n)) 0 names in
    List.filter
      (fun c -> bits land class_bit c <> 0)
      [ Tech.Netclass.Power; Tech.Netclass.Ground; Tech.Netclass.Bus ]

let display_name n = match n.names with name :: _ -> name | [] -> n.auto_name
let has_class n c = List.exists (Tech.Netclass.equal c) n.classes

let find_by_name t name =
  List.find_opt (fun n -> List.mem name n.names || n.auto_name = name) t.nets

let pp_net ppf n =
  Format.fprintf ppf "%s: %d element(s), %d terminal(s)%s" (display_name n)
    n.element_count n.terminals.count
    (match n.classes with
    | [] -> ""
    | cs -> " [" ^ String.concat "," (List.map Tech.Netclass.to_string cs) ^ "]")

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list pp_net) t.nets
