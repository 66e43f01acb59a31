type entry = {
  violation : Report.violation;
  decks : int list;
}

type deck_summary = {
  ds_label : string;
  ds_errors : int;
  ds_warnings : int;
}

type t = {
  entries : entry list;
  summaries : deck_summary list;
  relations : string list;
}

(* Group by structural equality of the whole violation record.  The
   merged order is the first deck's print order, then each later deck's
   previously-unseen violations in its own print order — so the merge
   of equal inputs is always the same bytes, and for a single deck the
   entry sequence is exactly that deck's report. *)
let make ?(relations = []) reports =
  let printed (r : Report.t) = List.rev r.Report.violations in
  let tbl : (Report.violation, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  List.iteri
    (fun di (_, r) ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt tbl v with
          | Some decks -> if not (List.mem di !decks) then decks := di :: !decks
          | None ->
            let decks = ref [ di ] in
            Hashtbl.add tbl v decks;
            order := (v, decks) :: !order)
        (printed r))
    reports;
  let entries =
    List.rev_map (fun (v, decks) -> { violation = v; decks = List.rev !decks }) !order
  in
  let summaries =
    List.map
      (fun (label, r) ->
        { ds_label = label;
          ds_errors = Report.count ~severity:Report.Error r;
          ds_warnings = Report.count ~severity:Report.Warning r })
      reports
  in
  { entries; summaries; relations }

let count sev t =
  List.length
    (List.filter (fun e -> e.violation.Report.severity = sev) t.entries)

let errors = count Report.Error
let warnings = count Report.Warning

let compliant t =
  List.filter_map
    (fun s -> if s.ds_errors = 0 then Some s.ds_label else None)
    t.summaries

let all_compliant t = List.for_all (fun s -> s.ds_errors = 0) t.summaries

let add_lines buf t =
  let labels = Array.of_list (List.map (fun s -> s.ds_label) t.summaries) in
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf '\n';
      Report.add_violation buf e.violation;
      Buffer.add_string buf " [decks: ";
      Buffer.add_string buf (String.concat "," (List.map (fun i -> labels.(i)) e.decks));
      Buffer.add_char buf ']')
    t.entries

let add_summary buf t =
  List.iter
    (fun s ->
      Printf.bprintf buf "deck %s: %d error(s), %d warning(s) — %s\n" s.ds_label
        s.ds_errors s.ds_warnings
        (if s.ds_errors = 0 then "compliant" else "violating"))
    t.summaries;
  (* Deck-relation verdicts (R015), only ever present for multi-deck
     sessions, so single-deck summary bytes are untouched. *)
  List.iter (fun line -> Printf.bprintf buf "deck relation: %s\n" line) t.relations;
  let n = List.length t.summaries in
  match compliant t with
  | [] -> Printf.bprintf buf "compliant with none of %d deck(s)" n
  | ls when List.length ls = n -> Printf.bprintf buf "compliant with all %d deck(s)" n
  | ls ->
    Printf.bprintf buf "compliant with %d of %d deck(s): %s" (List.length ls) n
      (String.concat ", " ls)

let render add t =
  let buf = Buffer.create 256 in
  add buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (render add_lines t)
let pp_summary ppf t = Format.pp_print_string ppf (render add_summary t)
