type entry =
  | No_rule
  | Device_checked
  | Space of { same_net : int option; diff_net : int }

let base_entry rules l =
  match l with
  | Layer.Diffusion, Layer.Diffusion ->
    Space { same_net = None; diff_net = rules.Rules.space_diffusion }
  | Layer.Poly, Layer.Poly -> Space { same_net = None; diff_net = rules.Rules.space_poly }
  | Layer.Metal, Layer.Metal -> Space { same_net = None; diff_net = rules.Rules.space_metal }
  | Layer.Contact, Layer.Contact ->
    Space { same_net = None; diff_net = rules.Rules.space_contact }
  | Layer.Diffusion, Layer.Poly ->
    (* Unrelated poly and diffusion must stay apart lest they form an
       accidental transistor; legal crossings happen only inside
       transistor/contact symbols (checked there). *)
    Space { same_net = Some rules.Rules.space_poly_diffusion;
            diff_net = rules.Rules.space_poly_diffusion }
  | Layer.Diffusion, Layer.Metal -> No_rule
  | Layer.Poly, Layer.Metal -> No_rule
  | Layer.Diffusion, Layer.Contact | Layer.Poly, Layer.Contact
  | Layer.Metal, Layer.Contact ->
    Device_checked
  | _ -> No_rule

let entry rules a b =
  let ((lo, hi) as l) = Layer.(if index a <= index b then (a, b) else (b, a)) in
  match base_entry rules l with
  | Space { same_net; _ } as base when not (Layer.equal lo hi) -> (
    (* Directed [space_<a>_<b>] deck overrides apply only to reachable
       cross-layer Space cells; overrides on No_rule / Device_checked
       cells or same-layer cells are inert (Lint codes R006 / R007). *)
    match Rules.cell_space_override rules lo hi with
    | Some d -> Space { same_net = Option.map (fun _ -> d) same_net; diff_net = d }
    | None -> base)
  | base -> base

let matrix rules =
  let layers = Array.of_list Layer.all in
  let n = Array.length layers in
  Array.init (n * n) (fun i -> entry rules layers.(i / n) layers.(i mod n))

let cells rules =
  let routing = Layer.routing in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if Layer.index a <= Layer.index b then Some (a, b, entry rules a b) else None)
        routing)
    routing

let pp_entry ppf = function
  | No_rule -> Format.pp_print_string ppf "-"
  | Device_checked -> Format.pp_print_string ppf "dev"
  | Space { same_net; diff_net } ->
    (match same_net with
    | None -> Format.fprintf ppf "same:skip diff:%d" diff_net
    | Some s -> Format.fprintf ppf "same:%d diff:%d" s diff_net)
