(* sarif_same CLI.sarif REPLIES.jsonl ID

   Exit 0 when the SARIF document `dicheck check --sarif` wrote equals
   the one `dicheck serve` embedded in its reply to request ID, both
   parsed and with every artifact URI replaced by one placeholder (the
   CLI and the daemon may name the input differently).  Exit 1, naming
   the first differing document, otherwise. *)

let rec normalise = function
  | Dic.Json.Obj kvs ->
    Dic.Json.Obj
      (List.map
         (fun (k, v) -> (k, if k = "uri" then Dic.Json.Str "<artifact>" else normalise v))
         kvs)
  | Dic.Json.Arr vs -> Dic.Json.Arr (List.map normalise vs)
  | v -> v

let parse what text =
  match Dic.Json.parse text with
  | Ok v -> v
  | Error e ->
    Printf.eprintf "sarif_same: %s is not JSON: %s\n" what e;
    exit 1

let () =
  match Sys.argv with
  | [| _; cli; replies; id |] ->
    let cli_doc = parse cli (In_channel.with_open_text cli In_channel.input_all) in
    let reply =
      In_channel.with_open_text replies In_channel.input_lines
      |> List.map (parse replies)
      |> List.find_opt (fun r -> Dic.Json.member "id" r = Some (Dic.Json.Str id))
    in
    (match Option.bind reply (Dic.Json.member "sarif") with
    | None ->
      Printf.eprintf "sarif_same: no reply %S with a \"sarif\" member in %s\n" id replies;
      exit 1
    | Some served ->
      let a = Dic.Json.to_string (normalise cli_doc)
      and b = Dic.Json.to_string (normalise served) in
      if a <> b then begin
        Printf.eprintf "sarif_same: %s differs from the SARIF serve sent for %S\n  cli:   %s\n  serve: %s\n"
          cli id a b;
        exit 1
      end)
  | _ ->
    prerr_endline "usage: sarif_same CLI.sarif REPLIES.jsonl ID";
    exit 2
