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

(* For the two-device rule, contacts are wiring, not devices: the
   cached functional count is the number of device terminals.  A net's
   labels and display name are built only for a net with a finding, and
   device paths only for a depletion-on-ground finding. *)
let check (t : Net.t) =
  List.concat_map
    (fun (n : Net.net) ->
      let power = Net.has_class n Tech.Netclass.Power
      and ground = Net.has_class n Tech.Netclass.Ground
      and bus = Net.has_class n Tech.Netclass.Bus in
      let functional = Net.functional n.Net.terminals in
      let floating = (not power) && (not ground) && functional < 2
      and short = power && ground
      and bus_supply = bus && (power || ground)
      and depleted = ground && Net.depletion n.Net.terminals > 0 in
      if not (floating || short || bus_supply || depleted) then []
      else
        let names = Net.names n in
        let name = Net.display_name_of n names in
        let depletion =
          if depleted then
            List.filter_map
              (fun (term : Net.terminal) ->
                if Tech.Device.equal term.Net.device Tech.Device.Depletion then
                  Some
                    (Depletion_on_ground
                       { net = name;
                         device_path = term.Net.device_path;
                         port = term.Net.port })
                else None)
              (Net.flatten n.Net.terminals)
          else []
        in
        (if floating then [ Floating_net { net = name; terminals = functional } ] else [])
        @ (if short then [ Supply_short { net = name; names } ] else [])
        @ (if bus_supply then [ Bus_on_supply { net = name; names } ] else [])
        @ depletion)
    t.Net.nets
