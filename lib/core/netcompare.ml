type terminal_spec = { device : string; port : string }

type net_spec = {
  nname : string;
  terminals : terminal_spec list;
  closed : bool;
}

type expected = { nets : net_spec list }

type mismatch =
  | Missing_net of string
  | Missing_terminal of { net : string; spec : terminal_spec }
  | Misplaced_terminal of {
      expected_net : string;
      actual_net : string;
      spec : terminal_spec;
    }
  | Extra_terminal of { net : string; device : string; port : string }

let pp_mismatch ppf = function
  | Missing_net n -> Format.fprintf ppf "expected net %s not found in the layout" n
  | Missing_terminal { net; spec } ->
    Format.fprintf ppf "terminal %s.%s expected on net %s is nowhere in the layout"
      spec.device spec.port net
  | Misplaced_terminal { expected_net; actual_net; spec } ->
    Format.fprintf ppf "terminal %s.%s expected on net %s but found on %s" spec.device
      spec.port expected_net actual_net
  | Extra_terminal { net; device; port } ->
    Format.fprintf ppf "unexpected terminal %s.%s on net %s" device port net

let parse src =
  let lines = String.split_on_char '\n' src in
  let current = ref None in
  let nets = ref [] in
  let err = ref None in
  List.iteri
    (fun i line ->
      if !err = None then begin
        let line =
          match String.index_opt line '#' with
          | Some j -> String.sub line 0 j
          | None -> line
        in
        let close () =
          match !current with
          | Some (n, ts, closed) ->
            nets := { nname = n; terminals = List.rev ts; closed } :: !nets
          | None -> ()
        in
        match
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> s <> "")
        with
        | [] -> ()
        | [ "net"; name ] ->
          close ();
          current := Some (name, [], false)
        | [ "net"; name; "exact" ] ->
          close ();
          current := Some (name, [], true)
        | [ device; port ] -> (
          match !current with
          | Some (n, ts, closed) -> current := Some (n, { device; port } :: ts, closed)
          | None -> err := Some (Printf.sprintf "line %d: terminal before any net" (i + 1)))
        | _ -> err := Some (Printf.sprintf "line %d: expected 'net NAME [exact]' or 'DEVICE PORT'" (i + 1))
      end)
    lines;
  match !err with
  | Some e -> Error e
  | None ->
    (match !current with
    | Some (n, ts, closed) ->
      nets := { nname = n; terminals = List.rev ts; closed } :: !nets
    | None -> ());
    Ok { nets = List.rev !nets }

(* Terminals of functional devices only: contacts are wiring and would
   make every expected list tediously long.  Each net is flattened at
   most once, and a net with no functional terminal not at all.  Each
   net's labels and display name are built at most once, and only for
   a net that an expected name is looked for in or that holds a
   terminal expected elsewhere. *)
let compare expected (actual : Netlist.Net.t) =
  let significant (n : Netlist.Net.net) =
    if Netlist.Net.functional n.Netlist.Net.terminals = 0 then []
    else
      List.filter
        (fun (t : Netlist.Net.terminal) -> Netlist.Net.is_functional t.Netlist.Net.device)
        (Netlist.Net.flatten n.Netlist.Net.terminals)
  in
  let labelled n =
    lazy
      (let names = Netlist.Net.names n in
       (Netlist.Net.display_name_of n names, names))
  in
  let nets = List.map (fun n -> (labelled n, significant n)) actual.Netlist.Net.nets in
  let display labels = fst (Lazy.force labels) in
  (* Index every significant terminal in the layout by (device, port). *)
  let location = Hashtbl.create 64 in
  List.iter
    (fun (labels, terminals) ->
      List.iter
        (fun (t : Netlist.Net.terminal) ->
          Hashtbl.replace location (t.Netlist.Net.device_path, t.Netlist.Net.port) labels)
        terminals)
    nets;
  let named name (labels, _) =
    let display, names = Lazy.force labels in
    display = name || List.mem name names
  in
  List.concat_map
    (fun { nname = name; terminals = specs; closed } ->
      match List.find_opt (named name) nets with
      | None -> [ Missing_net name ]
      | Some (labels, terminals) ->
        let actual_name = display labels in
        let missing_or_misplaced =
          List.filter_map
            (fun spec ->
              match Hashtbl.find_opt location (spec.device, spec.port) with
              | None -> Some (Missing_terminal { net = name; spec })
              | Some where when display where <> actual_name ->
                Some
                  (Misplaced_terminal { expected_net = name; actual_net = display where; spec })
              | Some _ -> None)
            specs
        in
        let extras =
          if not closed then []
          else
            List.filter_map
              (fun (t : Netlist.Net.terminal) ->
                if
                  not
                    (List.exists
                       (fun s ->
                         s.device = t.Netlist.Net.device_path
                         && s.port = t.Netlist.Net.port)
                       specs)
                then
                  Some
                    (Extra_terminal
                       { net = name;
                         device = t.Netlist.Net.device_path;
                         port = t.Netlist.Net.port })
                else None)
              terminals
        in
        missing_or_misplaced @ extras)
    expected.nets

let check expected actual =
  List.map
    (fun m ->
      let rule =
        match m with
        | Missing_net _ -> "netcmp.missing-net"
        | Missing_terminal _ -> "netcmp.missing-terminal"
        | Misplaced_terminal _ -> "netcmp.misplaced-terminal"
        | Extra_terminal _ -> "netcmp.extra-terminal"
      in
      Report.error ~stage:Report.Netlist_gen ~rule ~context:"netlist"
        (Format.asprintf "%a" pp_mismatch m))
    (compare expected actual)
