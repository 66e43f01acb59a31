type severity = Error | Warning | Info

type stage =
  | Parse_stage
  | Elements
  | Devices
  | Connections
  | Netlist_gen
  | Interactions
  | Integrity
  | Electrical

type violation = {
  stage : stage;
  rule : string;
  severity : severity;
  where : Geom.Rect.t option;
  context : string;
  path : string option;
  loc : Cif.Loc.t option;
  message : string;
}

type t = { violations : violation list }

let empty = { violations = [] }

let count ?severity t =
  match severity with
  | None -> List.length t.violations
  | Some s -> List.length (List.filter (fun v -> v.severity = s) t.violations)

let errors t = List.filter (fun v -> v.severity = Error) t.violations
let by_stage t stage = List.filter (fun v -> v.stage = stage) t.violations

let by_rule_prefix t prefix =
  let n = String.length prefix in
  List.filter
    (fun v -> String.length v.rule >= n && String.sub v.rule 0 n = prefix)
    t.violations

let stage_name = function
  | Parse_stage -> "parse"
  | Elements -> "elements"
  | Devices -> "devices"
  | Connections -> "connections"
  | Netlist_gen -> "netlist"
  | Interactions -> "interactions"
  | Integrity -> "integrity"
  | Electrical -> "electrical"

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let instance_path v = match v.path with Some p -> p | None -> v.context

let add_int buf n = Buffer.add_string buf (string_of_int n)

let add_violation buf v =
  let add = Buffer.add_string buf in
  add "[";
  add (stage_name v.stage);
  add "/";
  add (severity_name v.severity);
  add "] ";
  add v.rule;
  add ": ";
  add v.message;
  (match v.where with
  | None -> ()
  | Some r ->
    (* {!Geom.Rect.pp}'s [[x0,y0 - x1,y1]]. *)
    add " at [";
    add_int buf (Geom.Rect.x0 r);
    add ",";
    add_int buf (Geom.Rect.y0 r);
    add " - ";
    add_int buf (Geom.Rect.x1 r);
    add ",";
    add_int buf (Geom.Rect.y1 r);
    add "]");
  (match instance_path v with
  | "" -> ()
  | p ->
    add " in ";
    add p);
  match v.loc with
  | None -> ()
  | Some l ->
    add " (cif ";
    add_int buf l.Cif.Loc.line;
    add ":";
    add_int buf l.Cif.Loc.col;
    add ")"

let add_lines buf t =
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf '\n';
      add_violation buf v)
    (List.rev t.violations)

let render add x =
  let buf = Buffer.create 256 in
  add buf x;
  Buffer.contents buf

let pp_violation ppf v = Format.pp_print_string ppf (render add_violation v)
let pp ppf t = Format.pp_print_string ppf (render add_lines t)

let make severity ~stage ~rule ?where ~context ?path ?loc message =
  { stage; rule; severity; where; context; path; loc; message }

let error ~stage ~rule ?where ~context ?path ?loc message =
  make Error ~stage ~rule ?where ~context ?path ?loc message

let warning ~stage ~rule ?where ~context ?path ?loc message =
  make Warning ~stage ~rule ?where ~context ?path ?loc message

let info ~stage ~rule ?where ~context ?path ?loc message =
  make Info ~stage ~rule ?where ~context ?path ?loc message
