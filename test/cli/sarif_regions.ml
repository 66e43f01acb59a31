(* sarif_regions FILE MODE [COUNT]

   Read FILE as a SARIF document and check where its results point.
   MODE is [no-deck-regions] (no [lint.R*] result — a rule-deck
   diagnostic — carries a region, which would be read as a line of an
   artifact that is not its deck) or [all-regions] (every result
   carries one).  With COUNT the document holds exactly COUNT results.
   Exit 0 when it does, 1 naming the first offence (a FILE that is not
   JSON included). *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("sarif_regions: " ^ m); exit 1) fmt

let field path v =
  List.fold_left (fun acc k -> Option.bind acc (Dic.Json.member k)) (Some v) path

let list path v = Option.value ~default:[] (Option.bind (field path v) Dic.Json.arr)

let () =
  let file, mode, count =
    match Sys.argv with
    | [| _; file; mode |] -> (file, mode, None)
    | [| _; file; mode; n |] -> (file, mode, int_of_string_opt n)
    | _ ->
      prerr_endline "usage: sarif_regions FILE no-deck-regions|all-regions [COUNT]";
      exit 2
  in
  let doc =
    match Dic.Json.parse (In_channel.with_open_text file In_channel.input_all) with
    | Ok v -> v
    | Error e -> fail "%s is not JSON: %s" file e
  in
  let results = List.concat_map (list [ "results" ]) (list [ "runs" ] doc) in
  List.iter
    (fun r ->
      let rule = Option.value ~default:"?" (Option.bind (field [ "ruleId" ] r) Dic.Json.str) in
      let region =
        List.exists
          (fun l -> field [ "physicalLocation"; "region" ] l <> None)
          (list [ "locations" ] r)
      in
      match mode with
      | "no-deck-regions" ->
        if region && String.starts_with ~prefix:"lint.R" rule then
          fail "%s: deck result %s has a region" file rule
      | "all-regions" -> if not region then fail "%s: result %s has no region" file rule
      | m -> fail "unknown mode %S" m)
    results;
  match count with
  | Some n when n <> List.length results ->
    fail "%s: %d result(s), expected %d" file (List.length results) n
  | _ -> ()
