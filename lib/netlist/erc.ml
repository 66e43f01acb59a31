type violation =
  | Floating_net of { net : string; terminals : int }
  | Supply_short of { net : string; names : string list }
  | Bus_on_supply of { net : string; names : string list }
  | Depletion_on_ground of { net : string; device_path : string; port : string }

let message = function
  | Floating_net { net; terminals } ->
    "net " ^ net ^ " has " ^ string_of_int terminals
    ^ " device terminal(s); at least two required"
  | Supply_short { net; names } ->
    "power and ground shorted on net " ^ net ^ " (labels: " ^ String.concat ", " names
    ^ ")"
  | Bus_on_supply { net; names } ->
    "bus connected to a supply on net " ^ net ^ " (labels: "
    ^ String.concat ", " names ^ ")"
  | Depletion_on_ground { net; device_path; port } ->
    "depletion device " ^ device_path ^ " (" ^ port ^ ") connected to ground net " ^ net

(* For the two-device rule, contacts are wiring, not devices; count
   only functional devices (transistors, resistors, pads). *)
let is_functional = function
  | Tech.Device.Enhancement | Tech.Device.Depletion | Tech.Device.Resistor
  | Tech.Device.Pad ->
    true
  | Tech.Device.Contact_cut | Tech.Device.Butting_contact | Tech.Device.Buried_contact
  | Tech.Device.Checked ->
    false

let check (t : Net.t) =
  List.concat_map
    (fun (n : Net.net) ->
      let name = Net.display_name n in
      let power = Net.has_class n Tech.Netclass.Power
      and ground = Net.has_class n Tech.Netclass.Ground
      and bus = Net.has_class n Tech.Netclass.Bus in
      let functional =
        List.filter (fun (t : Net.terminal) -> is_functional t.Net.device) n.Net.terminals
      in
      let floating =
        if (not power) && (not ground) && List.length functional < 2 then
          [ Floating_net { net = name; terminals = List.length functional } ]
        else []
      in
      let short =
        if power && ground then [ Supply_short { net = name; names = n.Net.names } ]
        else []
      in
      let bus_supply =
        if bus && (power || ground) then
          [ Bus_on_supply { net = name; names = n.Net.names } ]
        else []
      in
      let depletion =
        if ground then
          List.filter_map
            (fun (term : Net.terminal) ->
              if Tech.Device.equal term.Net.device Tech.Device.Depletion then
                Some
                  (Depletion_on_ground
                     { net = name;
                       device_path = term.Net.device_path;
                       port = term.Net.port })
              else None)
            n.Net.terminals
        else []
      in
      floating @ short @ bus_supply @ depletion)
    t.Net.nets
