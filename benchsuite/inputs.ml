(* Seeded inputs of the four workloads, and the reference verdicts every
   benchmarked operation is held to.  Generation and reference checking
   are set-up: neither is ever timed, and both run in a process of their
   own (the [prepare] subcommand), so the measuring process stays small
   — a spawned child's peak RSS as the kernel reports it includes its
   parent's at the moment of the spawn. *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda

(* Defects match their journal entry within two lambda, the tolerance
   the Fig 1 experiments use. *)
let tolerance = 2 * lambda

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Exactly half the crosspoints programmed, at seeded positions: every
   seed has the same element count, so a seed changes the layout but
   not the amount of work. *)
let half_program rng ~rows ~cols =
  let cells = Array.init (rows * cols) (fun i -> i < rows * cols / 2) in
  shuffle rng cells;
  Array.init rows (fun r -> Array.sub cells (r * cols) cols)

let pla rng ~rows ~cols = Layoutgen.Pla.plane ~lambda (half_program rng ~rows ~cols)

(* [batches] standard defect batches (four journaled defects each) on a
   seeded choice of sites of a lattice in a strip right of the array.
   A site is 16 x 48 lambda, wider and taller than a batch by more than
   any spacing rule, so no defect touches the array or another one and
   each journal entry has exactly one finding. *)
let salted_pla rng ~rows ~cols ~batches =
  let base = pla rng ~rows ~cols in
  let site_w = 16 * lambda and site_h = 48 * lambda in
  let x0 = ((cols * Layoutgen.Pla.pitch) + 20) * lambda in
  let lattice_rows = max 1 (rows * Layoutgen.Pla.pitch * lambda / site_h) in
  let lattice_cols = ((batches * 5 / 4) + lattice_rows - 1) / lattice_rows in
  let sites = Array.init (lattice_rows * lattice_cols) Fun.id in
  shuffle rng sites;
  let batch k =
    let s = sites.(k) in
    let x = x0 + (s / lattice_rows * site_w) and y = (s mod lattice_rows * site_h) + (2 * lambda) in
    Layoutgen.Inject.standard_batch ~lambda ~at:(x, y) ~step:(10 * lambda)
  in
  Layoutgen.Inject.apply base (List.concat (List.init batches batch))

(* The edit loop's buffers: the register plus one 1-lambda poly box (a
   width error) at a seeded position below it, as an editor session
   nudging one shape around would submit them. *)
let edit_variants rng ~bits ~count =
  let base = Layoutgen.Shift.register ~lambda bits in
  let span = bits * Layoutgen.Shift.bit_pitch in
  Array.init count (fun _ ->
      let x = Random.State.int rng (span - 2) * lambda in
      let box =
        Layoutgen.Builder.box ~layer:(Tech.Layer.to_cif Tech.Layer.Poly) x (-12 * lambda)
          (x + lambda) (-6 * lambda)
      in
      Cif.Print.to_string
        { base with Cif.Ast.top_elements = base.Cif.Ast.top_elements @ [ box ] })

(* What [dicheck uri --sarif FILE] must print for a source text: the
   report and summary exactly as its stdout carries them, the SARIF
   file, and its exit status.  Computed by an in-process serial
   [Engine.check], independent of the binary, the process boundary and
   [--jobs]; returned with the violations themselves. *)
type expected = {
  report : string;
  sarif : string;
  exit_code : int;
}

let reference ~uri src =
  let engine = Dic.Engine.with_jobs (Dic.Engine.create rules) 1 in
  match Dic.Engine.check_string engine src with
  | Error e -> failwith ("reference check failed: " ^ e)
  | Ok multi ->
    let result, _ = Dic.Engine.primary multi in
    let report = result.Dic.Engine.report in
    ( { report =
          Format.asprintf "%a@." Dic.Report.pp report
          ^ Format.asprintf "%a@." Dic.Engine.pp_summary result;
        sarif = Dic.Sarif.of_report ~uri report ^ "\n";
        exit_code = (if Dic.Report.count ~severity:Dic.Report.Error report > 0 then 1 else 0) },
      report )

(* The salted workload's known answers: every journaled defect flagged,
   no error finding without a journal entry. *)
let classify truths violations =
  let o = Dic.Classify.classify ~tolerance truths (Dic.Classify.of_report violations) in
  match (o.Dic.Classify.missed, o.Dic.Classify.false_findings) with
  | [], [] -> Ok (List.length o.Dic.Classify.flagged)
  | missed, false_findings ->
    Error
      (Printf.sprintf "%d of %d journaled defect(s) missed, %d false finding(s)"
         (List.length missed) (List.length truths) (List.length false_findings))
