(* sarif_regions FILE MODE [COUNT]

   Read FILE as a SARIF document and check where its results point.
   MODE is [no-deck-regions] (no [lint.R*] result — a rule-deck
   diagnostic — carries a region, which would be read as a line of an
   artifact that is not its deck), [all-regions] (every result carries
   one) or [run-artifacts] (every result's artifact URI is its run's
   [automationDetails.id], the deck that run checked).  With COUNT the
   document holds exactly COUNT results.
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
      prerr_endline
        "usage: sarif_regions FILE no-deck-regions|all-regions|run-artifacts [COUNT]";
      exit 2
  in
  let doc =
    match Dic.Json.parse (In_channel.with_open_text file In_channel.input_all) with
    | Ok v -> v
    | Error e -> fail "%s is not JSON: %s" file e
  in
  let str path v = Option.bind (field path v) Dic.Json.str in
  let results =
    List.concat_map
      (fun run -> List.map (fun r -> (str [ "automationDetails"; "id" ] run, r)) (list [ "results" ] run))
      (list [ "runs" ] doc)
  in
  List.iter
    (fun (run_id, r) ->
      let rule = Option.value ~default:"?" (str [ "ruleId" ] r) in
      let locations = list [ "locations" ] r in
      let region =
        List.exists (fun l -> field [ "physicalLocation"; "region" ] l <> None) locations
      in
      match mode with
      | "no-deck-regions" ->
        if region && String.starts_with ~prefix:"lint.R" rule then
          fail "%s: deck result %s has a region" file rule
      | "all-regions" -> if not region then fail "%s: result %s has no region" file rule
      | "run-artifacts" ->
        let id = Option.value ~default:"(no automationDetails.id)" run_id in
        List.iter
          (fun l ->
            match str [ "physicalLocation"; "artifactLocation"; "uri" ] l with
            | Some uri when uri = id -> ()
            | Some uri -> fail "%s: result %s of run %s names %s" file rule id uri
            | None -> fail "%s: result %s of run %s names no artifact" file rule id)
          locations
      | m -> fail "unknown mode %S" m)
    results;
  match count with
  | Some n when n <> List.length results ->
    fail "%s: %d result(s), expected %d" file (List.length results) n
  | _ -> ()
