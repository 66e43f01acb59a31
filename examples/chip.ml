(* A small "chip": a bonding pad feeding a 2-bit shift register through
   a metal-to-poly contact, with a PLA plane alongside — every workload
   generator and the whole pipeline in one assembly.

   Run with: dune exec examples/chip.exe *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda
let l v = v * lambda

let () =
  let register = Layoutgen.Shift.register ~lambda 2 in
  let pla =
    Layoutgen.Pla.plane ~lambda (Layoutgen.Pla.random_program ~rows:3 ~cols:4 ~seed:11)
  in
  (* Merge the two generated files and place their content: the shift
     register at (30, 0) lambda, the PLA at (0, 60); add a pad and the
     routing from pad to register input. *)
  let shift_calls =
    List.map
      (fun (c : Cif.Ast.call) ->
        { c with
          Cif.Ast.transform =
            Geom.Transform.compose (Geom.Transform.translate (l 30) 0) c.Cif.Ast.transform })
      register.Cif.Ast.top_calls
  in
  let pla_calls =
    List.map
      (fun (c : Cif.Ast.call) ->
        { c with
          Cif.Ast.transform =
            Geom.Transform.compose (Geom.Transform.translate 0 (l 60)) c.Cif.Ast.transform })
      pla.Cif.Ast.top_calls
  in
  let pla_labels = List.map (Layoutgen.Builder.translate_element 0 (l 60)) pla.Cif.Ast.top_elements in
  let chip =
    { Cif.Ast.symbols =
        register.Cif.Ast.symbols @ pla.Cif.Ast.symbols
        @ [ Layoutgen.Cells.pad ~lambda; Layoutgen.Cells.contact_poly ~lambda ];
      top_elements =
        pla_labels
        @ [ (* pad output in metal, into a metal-poly contact, then poly
               into the register's first pass gate *)
            Layoutgen.Builder.wire ~layer:"NM" ~net:"PADIN" ~width:(l 3)
              [ (l 10, l 8); (l 21, l 8) ];
            Layoutgen.Builder.wire ~layer:"NP" ~width:(l 2) [ (l 22, l 8); (l 28, l 8) ] ];
      top_calls =
        shift_calls @ pla_calls
        @ [ Layoutgen.Builder.call ~at:(0, l 2) Layoutgen.Cells.id_pad;
            Layoutgen.Builder.call ~at:(l 20, l 7) Layoutgen.Cells.id_conp ];
      waivers = [] }
  in
  match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create rules) chip with
  | Error e -> failwith e
  | Ok (result, _) ->
    Format.printf "--- chip ---@.%a@.@." Dic.Engine.pp_summary result;
    List.iter
      (fun (v : Dic.Report.violation) ->
        if v.Dic.Report.severity = Dic.Report.Error then
          Format.printf "%a@." Dic.Report.pp_violation v)
      result.Dic.Engine.report.Dic.Report.violations;
    Format.printf "--- structure ---@.%a@.@." Dic.Structure.pp
      (Dic.Structure.compute result.Dic.Engine.nets);
    (match Netlist.Net.find_by_name result.Dic.Engine.netlist "PADIN" with
    | Some net ->
      Format.printf "pad net: %d terminal(s): %s@." (Netlist.Net.count net.Netlist.Net.terminals)
        (String.concat ", "
           (List.map
              (fun (t : Netlist.Net.terminal) ->
                t.Netlist.Net.device_path ^ "." ^ t.Netlist.Net.port)
              (Netlist.Net.flatten net.Netlist.Net.terminals)))
    | None -> Format.printf "pad net missing!@.")
