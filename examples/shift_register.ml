(* A two-phase NMOS dynamic shift register, checked geometrically and
   then verified against an intended net list — the paper's "check the
   net list against an input net list for consistency".

   Run with: dune exec examples/shift_register.exe *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda

let () =
  let bits = 4 in
  let design = Layoutgen.Shift.register ~lambda bits in

  (* One engine session for the whole walkthrough: the geometric model
     is shared, only the expected net list changes between runs. *)
  let engine = Dic.Engine.create rules in

  (* Geometric + electrical check. *)
  (match Result.map Dic.Engine.primary @@ Dic.Engine.check engine design with
  | Error e -> failwith e
  | Ok (result, _) ->
    Format.printf "--- %d-bit shift register ---@.%a@." bits Dic.Engine.pp_summary result;
    Format.printf "clock nets merge globally:@.";
    List.iter
      (fun name ->
        match Netlist.Net.find_by_name result.Dic.Engine.netlist name with
        | Some net ->
          Format.printf "  %s: %d pass-gate terminal(s)@." name
            (Netlist.Net.count net.Netlist.Net.terminals)
        | None -> Format.printf "  %s: MISSING@." name)
      [ "PHI1!"; "PHI2!" ]);

  (* Net-list consistency: the first bit's first pass transistor must
     gate on PHI1 and feed the first inverter. *)
  let expected_src =
    "# intended connectivity of bit 0, stage 1\n\
     net PHI1!\n\
     0:sbit.0:pass_PHI1.1:enhh gate\n\
     net PHI2!\n\
     0:sbit.2:pass_PHI2.1:enhh gate\n"
  in
  let expected =
    match Dic.Netcompare.parse expected_src with
    | Ok e -> e
    | Error msg -> failwith msg
  in
  (match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.with_expected_netlist engine (Some expected)) design with
  | Error e -> failwith e
  | Ok (result, _) ->
    let mismatches = Dic.Report.by_rule_prefix result.Dic.Engine.report "netcmp" in
    Format.printf "@.--- net list vs intent (correct design) ---@.";
    if List.exists (fun (v : Dic.Report.violation) -> v.Dic.Report.severity = Dic.Report.Error) mismatches
    then List.iter (fun v -> Format.printf "%a@." Dic.Report.pp_violation v) mismatches
    else Format.printf "consistent.@.");

  (* Now claim the wrong intent: stage 1 clocked by PHI2. *)
  let wrong =
    match Dic.Netcompare.parse "net PHI2!\n0:sbit.0:pass_PHI1.1:enhh gate\n" with
    | Ok e -> e
    | Error msg -> failwith msg
  in
  match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.with_expected_netlist engine (Some wrong)) design with
  | Error e -> failwith e
  | Ok (result, _) ->
    Format.printf "@.--- net list vs a wrong intent ---@.";
    List.iter
      (fun v -> Format.printf "%a@." Dic.Report.pp_violation v)
      (Dic.Report.by_rule_prefix result.Dic.Engine.report "netcmp")
