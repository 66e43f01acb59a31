(* A programmable logic array plane: the regular, structured workload
   the paper's hierarchical checking is designed for.  Generates a
   small programmed plane, renders it, checks it, and shows what the
   extracted net list knows about the logic.

   Run with: dune exec examples/pla_plane.exe *)

let () =
  let rules = Tech.Rules.nmos () in
  let lambda = rules.Tech.Rules.lambda in
  (* P0 = NOR(in0, in2); P1 = NOR(in1); P2 = NOR(in0, in1, in3). *)
  let program =
    [| [| true; false; true; false |];
       [| false; true; false; false |];
       [| true; true; false; true |] |]
  in
  let plane = Layoutgen.Pla.plane ~lambda program in
  Printf.printf "--- 3 products x 4 inputs (# poly, = metal, + diff, X cut) ---\n";
  print_string (Layoutgen.Render.file ~cell:100 rules plane);
  match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create rules) plane with
  | Error e -> failwith e
  | Ok (result, _) ->
    Format.printf "@.%a@.@." Dic.Engine.pp_summary result;
    Printf.printf "product terms as extracted from layout connectivity:\n";
    Array.iteri
      (fun r _ ->
        let name = Printf.sprintf "P%d" r in
        match Netlist.Net.find_by_name result.Dic.Engine.netlist name with
        | Some net ->
          let pulldowns =
            List.filter
              (fun (t : Netlist.Net.terminal) ->
                Tech.Device.is_transistor t.Netlist.Net.device)
              (Netlist.Net.flatten net.Netlist.Net.terminals)
          in
          Printf.printf "  %s: NOR of %d input(s)  (drains: %s)\n" name
            (List.length pulldowns)
            (String.concat ", "
               (List.map (fun (t : Netlist.Net.terminal) -> t.Netlist.Net.device_path) pulldowns))
        | None -> Printf.printf "  %s: missing!\n" name)
      program
