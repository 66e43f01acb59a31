type error = { offset : int; line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message
let string_of_error e = Format.asprintf "%a" pp_error e

exception Fail of int * string

(* The cursor tracks line/beginning-of-line incrementally so stamping
   every element with a location costs one comparison per character
   instead of an O(n) rescan. *)
type cursor = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the current line's first character *)
}

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c =
  if c.pos < String.length c.src && c.src.[c.pos] = '\n' then begin
    c.line <- c.line + 1;
    c.bol <- c.pos + 1
  end;
  c.pos <- c.pos + 1

(* Location of the character the cursor stands on (1-based column). *)
let here c = Loc.make ~line:c.line ~col:(c.pos - c.bol + 1)
let fail c msg = raise (Fail (c.pos, msg))

let is_digit ch = ch >= '0' && ch <= '9'
let is_alpha ch = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')

(* Blanks in CIF are any characters that are not digits, letters, '-',
   '(', ')' or ';'.  Comments nest. *)
let rec skip_blanks c =
  match peek c with
  | Some '(' ->
    let rec comment depth =
      match peek c with
      | None -> fail c "unterminated comment"
      | Some '(' -> advance c; comment (depth + 1)
      | Some ')' -> advance c; if depth > 1 then comment (depth - 1)
      | Some _ -> advance c; comment depth
    in
    advance c;
    comment 1;
    skip_blanks c
  | Some ch when (not (is_digit ch)) && (not (is_alpha ch)) && ch <> '-' && ch <> ';' ->
    advance c;
    skip_blanks c
  | _ -> ()

let semi c =
  skip_blanks c;
  match peek c with
  | Some ';' -> advance c
  | Some ch -> fail c (Printf.sprintf "expected ';', found %C" ch)
  | None -> fail c "expected ';', found end of input"

let max_literal = 1 lsl 30

(* A digit string is refused as soon as it passes [max_literal], before
   [acc * 10] could wrap. *)
let integer c =
  skip_blanks c;
  let neg =
    match peek c with
    | Some '-' -> advance c; true
    | _ -> false
  in
  let start = c.pos in
  let rec digits acc =
    match peek c with
    | Some ch when is_digit ch ->
      let acc = (acc * 10) + Char.code ch - Char.code '0' in
      if acc > max_literal then
        fail c (Printf.sprintf "integer literal out of range: magnitude above 2^30 = %d" max_literal);
      advance c;
      digits acc
    | _ -> acc
  in
  let v = digits 0 in
  if c.pos = start then fail c "expected an integer";
  if neg then -v else v

(* An identifier for layer names, net names, device tags: letters,
   digits, and a few punctuation characters CIF texts use in names. *)
let ident c =
  skip_blanks c;
  let buf = Buffer.create 8 in
  let rec go () =
    match peek c with
    | Some ch when is_alpha ch || is_digit ch || ch = '_' || ch = '!' || ch = '.'
                   || ch = '[' || ch = ']' || ch = '-' ->
      advance c;
      Buffer.add_char buf ch;
      go ()
    | _ -> ()
  in
  go ();
  if Buffer.length buf = 0 then fail c "expected a name";
  Buffer.contents buf

let point c =
  let x = integer c in
  let y = integer c in
  Geom.Pt.make x y

let rec points c acc =
  skip_blanks c;
  match peek c with
  | Some ch when is_digit ch || ch = '-' ->
    let p = point c in
    points c (p :: acc)
  | _ -> List.rev acc

(* Scaling by the DS factor a/b, rounding to nearest. *)
let scale_int (a, b) v =
  let n = v * a in
  if b = 1 then n
  else if n >= 0 then ((2 * n) + b) / (2 * b)
  else -(((2 * -n) + b) / (2 * b))

let scale_pt sc (p : Geom.Pt.t) =
  Geom.Pt.make (scale_int sc p.Geom.Pt.x) (scale_int sc p.Geom.Pt.y)

type pending_symbol = {
  id : int;
  scale : int * int;
  sym_loc : Loc.t option;
  mutable name : string option;
  mutable device : string option;
  mutable elements : Ast.element list;  (** reversed *)
  mutable calls : Ast.call list;  (** reversed *)
}

type state = {
  mutable layer : string;
  mutable symbols : Ast.symbol list;  (** reversed *)
  mutable current : pending_symbol option;
  mutable top_elements : Ast.element list;  (** reversed *)
  mutable top_calls : Ast.call list;  (** reversed *)
  mutable waivers : string list;  (** reversed *)
  mutable ended : bool;
}

let add_element st c e =
  match st.current with
  | Some sym -> sym.elements <- e :: sym.elements
  | None ->
    ignore c;
    st.top_elements <- e :: st.top_elements

let add_call st call =
  match st.current with
  | Some sym -> sym.calls <- call :: sym.calls
  | None -> st.top_calls <- call :: st.top_calls

let current_scale st = match st.current with Some s -> s.scale | None -> (1, 1)

let require_layer st c =
  if st.layer = "" then fail c "element before any L (layer) command";
  st.layer

let parse_box st ~loc c =
  let layer = require_layer st c in
  let sc = current_scale st in
  let length = scale_int sc (integer c) in
  let width = scale_int sc (integer c) in
  let cx = scale_int sc (integer c) in
  let cy = scale_int sc (integer c) in
  skip_blanks c;
  let w, h =
    match peek c with
    | Some ch when is_digit ch || ch = '-' ->
      let dx = integer c in
      let dy = integer c in
      if dy = 0 && dx <> 0 then (length, width)
      else if dx = 0 && dy <> 0 then (width, length)
      else fail c "non-orthogonal box direction"
    | _ -> (length, width)
  in
  if w <= 0 || h <= 0 then fail c "box with non-positive dimensions";
  semi c;
  add_element st c
    (Ast.Box { layer; rect = Geom.Rect.of_center_wh ~cx ~cy ~w ~h; net = None; loc = Some loc })

let parse_wire st ~loc c =
  let layer = require_layer st c in
  let sc = current_scale st in
  let width = scale_int sc (integer c) in
  if width <= 0 then fail c "wire with non-positive width";
  let path = List.map (scale_pt sc) (points c []) in
  if path = [] then fail c "wire with empty path";
  semi c;
  add_element st c (Ast.Wire { layer; width; path; net = None; loc = Some loc })

let parse_polygon st ~loc c =
  let layer = require_layer st c in
  let sc = current_scale st in
  let pts = List.map (scale_pt sc) (points c []) in
  if List.length pts < 3 then fail c "polygon needs at least three points";
  semi c;
  add_element st c (Ast.Polygon { layer; pts; net = None; loc = Some loc })

let parse_layer st c =
  st.layer <- ident c;
  semi c

let parse_call st ~loc c =
  let callee = integer c in
  let rec transforms acc =
    skip_blanks c;
    match peek c with
    | Some ('T' | 't') ->
      advance c;
      let p = point c in
      transforms (Geom.Transform.translate p.Geom.Pt.x p.Geom.Pt.y :: acc)
    | Some ('M' | 'm') -> (
      advance c;
      skip_blanks c;
      match peek c with
      | Some ('X' | 'x') -> advance c; transforms (Geom.Transform.mirror_x :: acc)
      | Some ('Y' | 'y') -> advance c; transforms (Geom.Transform.mirror_y :: acc)
      | _ -> fail c "M must be followed by X or Y")
    | Some ('R' | 'r') -> (
      advance c;
      let dx = integer c in
      let dy = integer c in
      match (compare dx 0, compare dy 0) with
      | 1, 0 -> transforms (Geom.Transform.rotate `East :: acc)
      | 0, 1 -> transforms (Geom.Transform.rotate `North :: acc)
      | -1, 0 -> transforms (Geom.Transform.rotate `West :: acc)
      | 0, -1 -> transforms (Geom.Transform.rotate `South :: acc)
      | _ -> fail c "non-orthogonal rotation")
    | _ -> List.rev acc
  in
  let ts = transforms [] in
  semi c;
  add_call st { Ast.callee; transform = Geom.Transform.seq ts; call_loc = Some loc }

let close_symbol st c =
  match st.current with
  | None -> fail c "DF without matching DS"
  | Some p ->
    let symbol =
      { Ast.id = p.id;
        name = p.name;
        device = p.device;
        elements = List.rev p.elements;
        calls = List.rev p.calls;
        sym_loc = p.sym_loc }
    in
    if List.exists (fun (s : Ast.symbol) -> s.id = p.id) st.symbols then
      fail c (Printf.sprintf "symbol %d defined twice" p.id);
    st.symbols <- symbol :: st.symbols;
    st.current <- None

let parse_definition st ~loc c =
  skip_blanks c;
  match peek c with
  | Some ('S' | 's') ->
    advance c;
    if st.current <> None then fail c "nested DS";
    let id = integer c in
    skip_blanks c;
    let scale =
      match peek c with
      | Some ch when is_digit ch ->
        let a = integer c in
        let b = integer c in
        if a <= 0 || b <= 0 then fail c "DS scale factors must be positive";
        (a, b)
      | _ -> (1, 1)
    in
    semi c;
    st.current <-
      Some
        { id; scale; sym_loc = Some loc; name = None; device = None; elements = [];
          calls = [] }
  | Some ('F' | 'f') ->
    advance c;
    semi c;
    close_symbol st c
  | Some ('D' | 'd') -> fail c "DD (delete definition) is not supported"
  | _ -> fail c "expected DS, DF after D"

(* User extension commands.  [9 name] names the current symbol; [4N n]
   attaches net [n] to the most recent element; [4D t] declares the
   device type of the current symbol.  Unknown user commands are
   skipped to the terminating semicolon, as the CIF standard requires. *)
let skip_user_command c =
  let rec go () =
    match peek c with
    | Some ';' -> advance c
    | Some '(' -> skip_blanks c; go ()
    | Some _ -> advance c; go ()
    | None -> fail c "unterminated user command"
  in
  go ()

let parse_user st c digit =
  match digit with
  | '9' ->
    let name = ident c in
    semi c;
    (match st.current with
    | Some sym -> sym.name <- Some name
    | None -> fail c "9 (symbol name) outside a symbol definition")
  | '4' -> (
    skip_blanks c;
    match peek c with
    | Some ('N' | 'n') -> (
      advance c;
      let net = ident c in
      semi c;
      let attach_last = function
        | [] -> fail c "4N (net) with no preceding element"
        | e :: rest -> Ast.with_net e (Some net) :: rest
      in
      match st.current with
      | Some sym -> sym.elements <- attach_last sym.elements
      | None -> st.top_elements <- attach_last st.top_elements)
    | Some ('D' | 'd') -> (
      advance c;
      let tag = ident c in
      semi c;
      match st.current with
      | Some sym -> sym.device <- Some tag
      | None -> fail c "4D (device type) outside a symbol definition")
    | Some ('L' | 'l') ->
      (* [4L CODE;] — waive a lint code, file-wide.  Legal anywhere:
         waivers annotate the design, not a particular symbol. *)
      advance c;
      let code = ident c in
      semi c;
      st.waivers <- code :: st.waivers
    | _ -> skip_user_command c)
  | _ -> skip_user_command c

let rec commands st c =
  skip_blanks c;
  match peek c with
  | None -> fail c "missing E (end) command"
  | Some ';' -> advance c; commands st c
  | Some ('E' | 'e') ->
    advance c;
    if st.current <> None then fail c "E inside a symbol definition";
    st.ended <- true
  | Some ('B' | 'b') ->
    let loc = here c in
    advance c; parse_box st ~loc c; commands st c
  | Some ('W' | 'w') ->
    let loc = here c in
    advance c; parse_wire st ~loc c; commands st c
  | Some ('P' | 'p') ->
    let loc = here c in
    advance c; parse_polygon st ~loc c; commands st c
  | Some ('L' | 'l') -> advance c; parse_layer st c; commands st c
  | Some ('C' | 'c') ->
    let loc = here c in
    advance c; parse_call st ~loc c; commands st c
  | Some ('D' | 'd') ->
    let loc = here c in
    advance c; parse_definition st ~loc c; commands st c
  | Some ch when is_digit ch -> advance c; parse_user st c ch; commands st c
  | Some ch -> fail c (Printf.sprintf "unknown command %C" ch)

let file src =
  let c = { src; pos = 0; line = 1; bol = 0 } in
  let st =
    { layer = ""; symbols = []; current = None; top_elements = []; top_calls = [];
      waivers = []; ended = false }
  in
  match commands st c with
  | () ->
    Ok
      { Ast.symbols = List.rev st.symbols;
        top_elements = List.rev st.top_elements;
        top_calls = List.rev st.top_calls;
        waivers = List.sort_uniq compare st.waivers }
  | exception Fail (offset, message) ->
    (* The cursor's incremental line count is valid at the failure
       point: [fail] always raises at the current position. *)
    Error { offset; line = c.line; message }
