module Rng = Ffc_util.Rng
module Clock = Ffc_util.Clock
module Pool = Ffc_util.Pool
module Obs = Ffc_obs.Obs

(* Campaign totals are recorded from the (deterministic) verdict
   accounting, never from raw worker-side execution counts: a pooled chunk
   may over-execute past the finding cap, so only the accounting is the
   same at every pool size. *)
let m_exercised = Obs.counter "fuzz.exercised"
let m_skipped = Obs.counter "fuzz.skipped"
let m_findings = Obs.counter "fuzz.findings"
let m_shrink_steps = Obs.counter "fuzz.shrink_steps"
let m_instances_per_s = Obs.gauge "fuzz.instances_per_s"
let m_campaign_ms = Obs.histogram "fuzz.campaign_ms"

type verdict = Pass | Skip of string | Fail of string

type 'a spec = {
  name : string;
  generate : Rng.t -> 'a;
  test : 'a -> verdict;
  shrink : 'a -> 'a list;
  repro : 'a -> string;
}

type oracle = Oracle : 'a spec -> oracle

let oracle ~name ~generate ~test ~shrink ~repro =
  Oracle { name; generate; test; shrink; repro }

let oracle_name (Oracle s) = s.name

type finding = {
  f_oracle : string;
  f_seed : int;
  f_index : int;
  message : string;
  min_message : string;
  shrink_steps : int;
  repro : string;
}

type oracle_report = {
  o_name : string;
  exercised : int;
  skipped : int;
  findings : finding list;
}

type report = { r_seed : int; elapsed_ms : float; oracles : oracle_report list }

(* Any exception escaping an oracle is itself a bug in the system under
   test (the oracles only call public solver/simulator entry points), so it
   is folded into the verdict rather than aborting the campaign. *)
let run_test test x =
  match test x with
  | v -> v
  | exception e -> Fail ("crash: " ^ Printexc.to_string e)

let category msg =
  match String.index_opt msg ':' with
  | Some i -> String.sub msg 0 i
  | None -> msg

(* The one repro template: the shrunk instance as a literal, judged by the
   oracle's own test. Each program is a [let ()] item, so several concatenate
   into one compilable file. *)
let repro_program ~test literal x =
  Printf.sprintf
    {|let () =
  let instance =
    %s
  in
  match Ffc_check.Fuzz.run_test %s instance with
  | Ffc_check.Fuzz.Fail m -> print_endline ("FAIL " ^ m)
  | Ffc_check.Fuzz.Skip m -> print_endline ("SKIP " ^ m)
  | Ffc_check.Fuzz.Pass -> print_endline "PASS"
|}
    (String.concat "\n    " (String.split_on_char '\n' (literal x)))
    test

(* Greedy shrinking: take the first candidate that still fails *in the same
   category* (message prefix up to ':'), recurse from there. Category
   preservation matters: dropping, say, the zero column from an instance
   often still fails, but for a different reason, and the resulting "minimal"
   repro would be misleading. The attempt budget bounds total oracle calls,
   not successful steps. *)
let shrink_budget = 500

let minimise ~test ~shrink x0 msg0 =
  let budget = ref shrink_budget in
  let cat0 = category msg0 in
  let rec go x msg steps =
    let rec first = function
      | [] -> None
      | c :: rest ->
        if !budget <= 0 then None
        else begin
          decr budget;
          match run_test test c with
          | Fail m when category m = cat0 -> Some (c, m)
          | _ -> first rest
        end
    in
    match first (shrink x) with
    | Some (c, m) -> go c m (steps + 1)
    | None -> (x, msg, steps)
  in
  go x0 msg0 0

(* Shrinking each failure is expensive; after a few findings per oracle the
   rest are almost certainly the same bug. *)
let max_findings_per_oracle = 3

let finding_of ~seed s (i, x, message) =
  let xmin, min_message, shrink_steps = minimise ~test:s.test ~shrink:s.shrink x message in
  {
    f_oracle = s.name;
    f_seed = seed;
    f_index = i;
    message;
    min_message;
    shrink_steps;
    repro = s.repro xmin;
  }

(* The campaign loop over one oracle, in chunks: one instance without a
   pool, [max 8 (4 * jobs)] fanned out over the pool with one. Instance i
   is a pure function of (seed, oracle, i): the rngs are split off the
   oracle's stream in index order. Verdicts are folded in index order up
   to the finding cap, and the chunk's findings are shrunk (one pool task
   each) before the budget and the cap are checked for the next chunk. So
   the report is the same at any pool size unless a budget truncates it,
   at a chunk boundary. *)
let run_oracle ?pool ~seed ~count ~out_of_time (Oracle s) stream =
  let chunk = match pool with Some p -> max 8 (4 * Pool.jobs p) | None -> 1 in
  let map f xs = match pool with Some p -> Pool.map p f xs | None -> Array.map f xs in
  let exercised = ref 0 and skipped = ref 0 in
  let findings = ref [] and nfound = ref 0 in
  let i = ref 0 in
  while !i < count && (not (out_of_time ())) && !nfound < max_findings_per_oracle do
    let hi = min count (!i + chunk) in
    let rngs = Array.init (hi - !i) (fun _ -> Rng.split stream) in
    let verdicts =
      map
        (fun rng ->
          let x = s.generate rng in
          match run_test s.test x with
          | Pass -> `Pass
          | Skip _ -> `Skip
          | Fail m -> `Fail (x, m))
        rngs
    in
    let raw = ref [] in
    Array.iteri
      (fun k v ->
        if !nfound < max_findings_per_oracle then
          match v with
          | `Pass -> incr exercised
          | `Skip -> incr skipped
          | `Fail (x, m) ->
            incr exercised;
            incr nfound;
            raw := (!i + k, x, m) :: !raw)
      verdicts;
    let shrunk = map (finding_of ~seed s) (Array.of_list (List.rev !raw)) in
    findings := List.rev_append (Array.to_list shrunk) !findings;
    i := hi
  done;
  {
    o_name = s.name;
    exercised = !exercised;
    skipped = !skipped;
    findings = List.rev !findings;
  }

let run ?pool ?(seed = 42) ?(count = 100) ?time_budget_ms ~oracles () =
  let t0 = Clock.now_ms () in
  let master = Rng.create seed in
  (* One independent stream per oracle, split in listing order, then one
     split per instance: oracle k's instance i is a pure function of
     (seed, k, i), regardless of how many draws other oracles made or where
     the time budget truncated them. *)
  let streams = List.map (fun o -> (o, Rng.split master)) oracles in
  let out_of_time () =
    match time_budget_ms with
    | Some b -> Clock.since_ms t0 > b
    | None -> false
  in
  let oracles =
    List.map
      (fun (o, stream) ->
        Obs.with_span "fuzz.oracle" (fun () ->
            run_oracle ?pool ~seed ~count ~out_of_time o stream))
      streams
  in
  let r = { r_seed = seed; elapsed_ms = Clock.since_ms t0; oracles } in
  if Obs.enabled () then begin
    let ex = List.fold_left (fun a o -> a + o.exercised) 0 r.oracles in
    let sk = List.fold_left (fun a o -> a + o.skipped) 0 r.oracles in
    let fs = List.concat_map (fun o -> o.findings) r.oracles in
    Obs.add m_exercised (float_of_int ex);
    Obs.add m_skipped (float_of_int sk);
    Obs.add m_findings (float_of_int (List.length fs));
    Obs.add m_shrink_steps
      (float_of_int (List.fold_left (fun a f -> a + f.shrink_steps) 0 fs));
    if r.elapsed_ms > 0. then
      Obs.set m_instances_per_s (1000. *. float_of_int (ex + sk) /. r.elapsed_ms);
    Obs.observe m_campaign_ms r.elapsed_ms
  end;
  r

let failures r = List.concat_map (fun o -> o.findings) r.oracles

let pp_finding ppf (f : finding) =
  Format.fprintf ppf
    "@[<v>oracle %s, seed %d, instance %d:@,  %s@,  after %d shrink steps: %s@,\
     --- minimal repro ---@,%s@]"
    f.f_oracle f.f_seed f.f_index f.message f.shrink_steps f.min_message f.repro

let write_repros path findings =
  let oc = open_out path in
  List.iteri
    (fun i f ->
      Printf.fprintf oc "(* finding %d: oracle %s, seed %d, instance %d\n   %s *)\n%s\n" i
        f.f_oracle f.f_seed f.f_index f.min_message f.repro)
    findings;
  close_out oc

let pp_report ppf r =
  Format.fprintf ppf "@[<v>fuzz seed %d (%.0f ms)@," r.r_seed r.elapsed_ms;
  List.iter
    (fun o ->
      Format.fprintf ppf "  %-4s exercised %4d  skipped %3d  failures %d@,"
        o.o_name o.exercised o.skipped (List.length o.findings))
    r.oracles;
  List.iter (fun f -> Format.fprintf ppf "%a@," pp_finding f) (failures r);
  Format.fprintf ppf "@]"
