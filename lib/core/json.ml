type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

(* The one JSON string escaper: quotes, backslashes and control bytes
   are escaped, every other byte (UTF-8 included) is copied.  [short]
   gives backspace and form feed their two-character forms, as {!quote}
   always has; the structured outputs (SARIF, metrics, traces) spell
   them [\u0008] and [\u000c]. *)
let add_literal ~short buf s =
  Buffer.add_char buf '"';
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\b' when short -> Buffer.add_string buf "\\b"
    | '\012' when short -> Buffer.add_string buf "\\f"
    | c when c < ' ' ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
      Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

let add_quoted buf s = add_literal ~short:false buf s

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  add_literal ~short:true buf s;
  Buffer.contents buf

(* Non-integers print with the fewest significant digits (15 to 17)
   that read back as the same float. *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    let exact digits = Printf.sprintf "%.*g" digits f in
    match List.find_opt (fun s -> float_of_string s = f) [ exact 15; exact 16 ] with
    | Some s -> s
    | None -> exact 17

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s -> add_literal ~short:true buf s
    | Arr vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        vs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_literal ~short:true buf k;
          Buffer.add_char buf ':';
          go v)
        kvs;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Parse_error of int * string

let parse src =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub src !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  (* Encode a Unicode code point as UTF-8. *)
  let add_codepoint buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub src !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
        advance ();
        Buffer.contents buf
      | Some '\\' -> (
        advance ();
        match peek () with
        | None -> fail "truncated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> (
            let cp = try hex4 () with _ -> fail "bad \\u escape" in
            (* Surrogate pair: combine with the low half if present. *)
            if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n
               && src.[!pos] = '\\' && src.[!pos + 1] = 'u'
            then begin
              pos := !pos + 2;
              let lo = try hex4 () with _ -> fail "bad \\u escape" in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                add_codepoint buf
                  (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
              else begin
                add_codepoint buf cp;
                add_codepoint buf lo
              end
            end
            else add_codepoint buf cp)
          | _ -> fail "unknown escape");
          go ())
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let consume pred =
      while (match peek () with Some c -> pred c | None -> false) do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    consume (fun c -> c >= '0' && c <= '9');
    if peek () = Some '.' then begin
      advance ();
      consume (fun c -> c >= '0' && c <= '9')
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      consume (fun c -> c >= '0' && c <= '9')
    | _ -> ());
    match float_of_string_opt (String.sub src start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (items [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos < n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Parse_error (at, msg) -> Error (Printf.sprintf "%s at offset %d" msg at)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

let int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e9 -> Some (int_of_float f)
  | _ -> None
let bool = function Bool b -> Some b | _ -> None
let arr = function Arr vs -> Some vs | _ -> None
