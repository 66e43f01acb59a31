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

let is_global name = String.length name > 0 && name.[String.length name - 1] = '!'

let class_bit = function
  | Tech.Netclass.Power -> 1
  | Tech.Netclass.Ground -> 2
  | Tech.Netclass.Bus -> 4
  | Tech.Netclass.Signal -> 0

let class_bits names =
  List.fold_left (fun b n -> b lor class_bit (Tech.Netclass.classify n)) 0 names

type terminals = {
  count : int;
  functional : int;
  depletion : int;
  labels : string list;  (** own labels, as drawn *)
  globals : string list;  (** distinct global names merged into the net *)
  classes : int;  (** {!class_bit}s of [globals] and [labels] *)
  locals : bool;  (** a non-global label here or in a part *)
  shape : shape;
}

and shape =
  | Port of Tech.Device.kind * string
  | Union of (string * terminals) list

let empty =
  { count = 0; functional = 0; depletion = 0; labels = []; globals = []; classes = 0;
    locals = false; shape = Union [] }

let has_local labels = List.exists (fun l -> not (is_global l)) labels

let port ?(labels = []) kind name =
  { count = 1;
    functional = (if is_functional kind then 1 else 0);
    depletion = (if Tech.Device.equal kind Tech.Device.Depletion then 1 else 0);
    labels;
    globals = List.filter is_global labels;
    classes = class_bits labels;
    locals = has_local labels;
    shape = Port (kind, name) }

(* Qualified labels begin with an instance label ([3:sbit.]), which
   classifies as [Signal]: the parts add nothing to [classes]. *)
let union ?(labels = []) ?(globals = []) parts =
  match (labels, globals, parts) with
  | [], [], [] -> empty
  | _ ->
    let rec sum c f d locals = function
      | [] ->
        { count = c; functional = f; depletion = d; labels; globals;
          classes = class_bits globals lor class_bits labels;
          locals = locals || has_local labels; shape = Union parts }
      | (_, t) :: rest ->
        sum (c + t.count) (f + t.functional) (d + t.depletion) (locals || t.locals) rest
    in
    sum 0 0 0 false parts

let count t = t.count
let functional t = t.functional
let depletion t = t.depletion
let globals t = t.globals
let needs_part t = t.count > 0 || t.locals

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

(* The non-global labels of [t]'s parts, each under [prefix], its
   part's instance label and a [.], in front of [acc]. *)
let rec qualified prefix t acc =
  match t.shape with
  | Port _ -> acc
  | Union parts ->
    List.fold_left
      (fun acc (inst, sub) ->
        if not sub.locals then acc
        else
          let prefix = prefix ^ inst ^ "." in
          let acc =
            List.fold_left
              (fun acc l -> if is_global l then acc else (prefix ^ l) :: acc)
              acc sub.labels
          in
          qualified prefix sub acc)
      acc parts

let labels t = List.sort_uniq String.compare (t.labels @ t.globals @ qualified "" t [])

type net = {
  gid : int;
  terminals : terminals;
  element_count : int;
}

type t = { nets : net list }

let auto_name n = "n" ^ string_of_int n.gid
let names n = labels n.terminals
let display_name_of n names = match names with name :: _ -> name | [] -> auto_name n
let display_name n = display_name_of n (names n)

let has_class n c = n.terminals.classes land class_bit c <> 0

let classes n =
  List.filter (has_class n) [ Tech.Netclass.Power; Tech.Netclass.Ground; Tech.Netclass.Bus ]

let find_by_name t name =
  List.find_opt (fun n -> auto_name n = name || List.mem name (names n)) t.nets

let pp_net ppf n =
  Format.fprintf ppf "%s: %d element(s), %d terminal(s)%s" (display_name n)
    n.element_count n.terminals.count
    (match classes n with
    | [] -> ""
    | cs -> " [" ^ String.concat "," (List.map Tech.Netclass.to_string cs) ^ "]")

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list pp_net) t.nets
