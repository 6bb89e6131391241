(* Command-line interface to the FFC TE library.

   ffc_cli topo     --network lnet --seed 42
   ffc_cli solve    --network snet --kc 2 --ke 1 [--objective fairness|mlu]
   ffc_cli simulate --network lnet --mode ffc --intervals 10 --scale 1.0 *)

open Ffc_net
open Ffc_core
module Sim = Ffc_sim
module Rng = Ffc_util.Rng
module Table = Ffc_util.Table
module Pool = Ffc_util.Pool
module Validate = Ffc_util.Validate
module Obs = Ffc_obs.Obs

(* [jobs = 1] means no pool at all: a campaign then runs one instance (or
   restart) per chunk, so a time budget is checked before every instance,
   where a one-domain pool would chunk by 8. *)
let with_jobs jobs f =
  if jobs <= 1 then f None else Pool.with_pool ~jobs (fun p -> f (Some p))

(* [--metrics-out]/[--trace-out]: the registry is switched on before the
   command does any work, and the export files are written at a known point
   once the work is done — explicitly, not via an unwind handler, because
   fuzz/chaos exit 1 on findings and must still leave their artifacts. *)
let obs_setup ~metrics_out ~trace_out =
  if metrics_out <> None || trace_out <> None then
    Obs.enable ~tracing:(trace_out <> None) ()

let obs_dump ~metrics_out ~trace_out =
  Option.iter
    (fun p ->
      Obs.write_metrics p;
      Printf.printf "metrics written to %s\n" p)
    metrics_out;
  Option.iter
    (fun p ->
      Obs.write_trace p;
      Printf.printf "trace written to %s\n" p)
    trace_out

let scenario_of_name ?sites network seed =
  let rng = Rng.create seed in
  match network with `Lnet -> Sim.Scenario.lnet_sim ?sites rng | `Snet -> Sim.Scenario.snet rng

(* ------------------------------------------------------------------ *)
(* topo                                                                *)
(* ------------------------------------------------------------------ *)

let topo_cmd network seed =
  let sc = scenario_of_name network seed in
  Format.printf "%a" Topology.pp sc.Sim.Scenario.input.Te_types.topo;
  Printf.printf "%d flows, total base demand %.1f Gbps\n"
    (List.length sc.Sim.Scenario.input.Te_types.flows)
    (Traffic.total sc.Sim.Scenario.input.Te_types.demands)

(* ------------------------------------------------------------------ *)
(* solve                                                               *)
(* ------------------------------------------------------------------ *)

let print_alloc (input : Te_types.input) (alloc : Te_types.allocation) =
  let t = Table.create [ "flow"; "demand"; "granted"; "tunnel allocations" ] in
  List.iter
    (fun (f : Flow.t) ->
      let id = f.Flow.id in
      Table.add_row t
        [
          Printf.sprintf "%s->%s"
            (Topology.switch_name input.Te_types.topo f.Flow.src)
            (Topology.switch_name input.Te_types.topo f.Flow.dst);
          Printf.sprintf "%.2f" input.Te_types.demands.(id);
          Printf.sprintf "%.2f" alloc.Te_types.bf.(id);
          String.concat " "
            (Array.to_list (Array.map (Printf.sprintf "%.2f") alloc.Te_types.af.(id)));
        ])
    input.Te_types.flows;
  Table.print t;
  Printf.printf "total throughput: %.2f Gbps\n" (Te_types.throughput alloc)

let solve_cmd network seed scale kc ke kv encoding objective =
  let sc = scenario_of_name network seed in
  let input = Sim.Scenario.scaled sc scale in
  let protection = Te_types.protection ~kc ~ke ~kv () in
  let prev =
    match Basic_te.solve input with
    | Ok a -> a
    | Error e -> failwith e
  in
  let config = Ffc.config ~protection ~encoding () in
  match objective with
  | `Throughput -> (
    match Ffc.solve ~config ~prev input with
    | Ok r ->
      print_alloc input r.Ffc.alloc;
      Printf.printf "LP: %d vars, %d rows; build %.1f ms, solve %.1f ms\n"
        r.Ffc.stats.Ffc.lp_vars r.Ffc.stats.Ffc.lp_rows r.Ffc.stats.Ffc.build_ms
        r.Ffc.stats.Ffc.solve_ms;
      Option.iter
        (fun s -> Format.printf "simplex: %a@." Ffc_lp.Problem.pp_stats s)
        r.Ffc.stats.Ffc.solver
    | Error e -> failwith e)
  | `Fairness -> (
    match Fairness.solve ~config ~prev input with
    | Ok (alloc, iters) ->
      print_alloc input alloc;
      Printf.printf "max-min fairness: %d alpha-iterations\n" iters
    | Error e -> failwith e)
  | `Mlu -> (
    match Mlu_te.solve ~config ~prev input with
    | Ok r ->
      print_alloc input r.Mlu_te.alloc;
      Printf.printf "MLU: %.3f%s\n" r.Mlu_te.mlu
        (match r.Mlu_te.fault_mlu with
        | Some uf -> Printf.sprintf " (fault-case MLU: %.3f)" uf
        | None -> "")
    | Error e -> failwith e)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd network seed scale mode intervals model kc ke kv deadline_ms audit_budget
    retries retry_timeout retry_backoff telemetry_loss telemetry_delay demand_noise
    headroom dead_band metrics_out trace_out stats_json =
  obs_setup ~metrics_out ~trace_out;
  let sc = scenario_of_name network seed in
  let input = sc.Sim.Scenario.input in
  (* Machine-readable calibration result (the stderr warning, if any, was
     already printed by the scenario builder). *)
  Printf.printf "scenario %s: calibration scale %.3f, basic TE satisfies %.1f%%%s\n"
    sc.Sim.Scenario.name sc.Sim.Scenario.calibration_scale
    (100. *. sc.Sim.Scenario.calibration_achieved)
    (if sc.Sim.Scenario.calibrated then "" else " (UNCALIBRATED)");
  let um =
    match model with
    | `Optimistic -> Sim.Update_model.optimistic ()
    | `Realistic -> Sim.Update_model.realistic ()
  in
  let mode =
    match mode with
    | `Reactive -> Sim.Interval_sim.Reactive
    | `Ffc ->
      (* Exact formulation (no mice/ingress-skip shortcuts) so the live
         kc-guarantee checker's verdict reflects the real contract. *)
      Sim.Interval_sim.Proactive
        (fun _ ->
          Ffc.config
            ~protection:(Te_types.protection ~kc ~ke ~kv ())
            ~encoding:`Duality ~mice_fraction:0. ~ingress_skip_fraction:0. ())
  in
  let fm = Sim.Fault_model.lnet_like input.Te_types.topo in
  let retry =
    Sim.Southbound.retry_policy ~max_attempts:retries ~attempt_timeout_s:retry_timeout
      ~backoff_base_s:retry_backoff ()
  in
  let telemetry =
    if telemetry_loss > 0. || telemetry_delay > 0 || demand_noise > 0. then
      Some
        (Sim.Telemetry.config ~loss:telemetry_loss ~delay:telemetry_delay ~demand_noise ())
    else None
  in
  let estimator =
    match (headroom, dead_band) with
    | None, None -> None
    | h, d -> Some (Estimator.config ?headroom:h ?dead_band:d ())
  in
  let cfg =
    Sim.Interval_sim.default_config ?deadline_ms ~audit_budget ~retry ?telemetry
      ?estimator ~mode ~update_model:um fm
  in
  let series = Sim.Scenario.demand_series (Rng.create (seed + 1)) sc ~scale ~intervals in
  let stats = Sim.Interval_sim.run ~rng:(Rng.create (seed + 2)) cfg input ~demand_series:series in
  let verdict_label s =
    let tag =
      match s.Sim.Interval_sim.kc_verdict with
      | Sim.Southbound.Ok_checked -> Printf.sprintf "ok@%d" s.Sim.Interval_sim.kc_checked
      | Sim.Southbound.Beyond_budget _ -> "beyond"
      | Sim.Southbound.Violation _ -> "VIOLATION"
    in
    if s.Sim.Interval_sim.escalated then tag ^ "!" else tag
  in
  let gt_label s =
    match s.Sim.Interval_sim.gt_data with
    | Sim.Interval_sim.Gt_ok -> "ok"
    | Sim.Interval_sim.Gt_not_asserted -> "n/a"
    | Sim.Interval_sim.Gt_violation _ -> "VIOLATION"
  in
  let t =
    Table.create
      [
        "interval"; "delivered (Gb)"; "lost (Gb)"; "max oversub (%)"; "data faults";
        "stale"; "retries"; "kc check"; "gt"; "view st/sus/err"; "rung"; "fallbacks";
        "audit";
      ]
  in
  List.iteri
    (fun i s ->
      let sb = s.Sim.Interval_sim.southbound in
      Table.add_row t
        [
          string_of_int i;
          Printf.sprintf "%.1f" (Sim.Interval_sim.total_delivered s);
          Printf.sprintf "%.3f" (Sim.Interval_sim.total_lost s);
          Printf.sprintf "%.1f" s.Sim.Interval_sim.max_oversub_pct;
          string_of_int s.Sim.Interval_sim.data_faults;
          string_of_int (List.length sb.Sim.Southbound.stale);
          Printf.sprintf "%d/%d" sb.Sim.Southbound.retry_successes
            sb.Sim.Southbound.retries;
          verdict_label s;
          gt_label s;
          Printf.sprintf "%d/%d/%.0f%%" s.Sim.Interval_sim.view_staleness
            (s.Sim.Interval_sim.suspect_links + s.Sim.Interval_sim.suspect_switches)
            (100. *. s.Sim.Interval_sim.estimation_err);
          s.Sim.Interval_sim.rung_label;
          string_of_int s.Sim.Interval_sim.solver_fallbacks;
          Printf.sprintf "%d/%d" s.Sim.Interval_sim.audit_violations
            s.Sim.Interval_sim.audit_cases;
        ])
    stats;
  Table.print t;
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  Printf.printf "totals: delivered %.1f Gb, lost %.3f Gb\n"
    (List.fold_left (fun a s -> a +. Sim.Interval_sim.total_delivered s) 0. stats)
    (List.fold_left (fun a s -> a +. Sim.Interval_sim.total_lost s) 0. stats);
  Printf.printf
    "controller: %d solver fallbacks, %d deadline hits, %d stale (last-good) intervals, \
     audit %d violations / %d cases\n"
    (sum (fun s -> s.Sim.Interval_sim.solver_fallbacks))
    (sum (fun s -> s.Sim.Interval_sim.deadline_hits))
    (sum (fun s -> if s.Sim.Interval_sim.stale_alloc then 1 else 0))
    (sum (fun s -> s.Sim.Interval_sim.audit_violations))
    (sum (fun s -> s.Sim.Interval_sim.audit_cases));
  Printf.printf
    "southbound: %d pushes, %d attempts, %d retries (%d eventually applied), %d failures, \
     %d timeouts, %d outages, %d escalated intervals, %d kc-guarantee violations\n"
    (sum (fun s -> s.Sim.Interval_sim.southbound.Sim.Southbound.pushed))
    (sum (fun s -> s.Sim.Interval_sim.southbound.Sim.Southbound.attempts))
    (sum (fun s -> s.Sim.Interval_sim.southbound.Sim.Southbound.retries))
    (sum (fun s -> s.Sim.Interval_sim.southbound.Sim.Southbound.retry_successes))
    (sum (fun s -> s.Sim.Interval_sim.southbound.Sim.Southbound.failures))
    (sum (fun s -> s.Sim.Interval_sim.southbound.Sim.Southbound.timeouts))
    (sum (fun s -> s.Sim.Interval_sim.southbound.Sim.Southbound.outages_started))
    (sum (fun s -> if s.Sim.Interval_sim.escalated then 1 else 0))
    (sum (fun s ->
         match s.Sim.Interval_sim.kc_verdict with
         | Sim.Southbound.Violation _ -> 1
         | _ -> 0));
  if telemetry <> None || estimator <> None then
    Printf.printf
      "sensing: peak view staleness %d, %d suspect-link and %d suspect-switch \
       interval-charges, %d dead-band skipped solve(s), mean estimation error %.1f%%, \
       ground-truth data verdicts %d ok / %d n-a / %d VIOLATION\n"
      (List.fold_left (fun a s -> max a s.Sim.Interval_sim.view_staleness) 0 stats)
      (sum (fun s -> s.Sim.Interval_sim.suspect_links))
      (sum (fun s -> s.Sim.Interval_sim.suspect_switches))
      (sum (fun s -> if s.Sim.Interval_sim.solve_skipped then 1 else 0))
      (100.
      *. List.fold_left (fun a s -> a +. s.Sim.Interval_sim.estimation_err) 0. stats
      /. float_of_int (max 1 (List.length stats)))
      (sum (fun s ->
           match s.Sim.Interval_sim.gt_data with Sim.Interval_sim.Gt_ok -> 1 | _ -> 0))
      (sum (fun s ->
           match s.Sim.Interval_sim.gt_data with
           | Sim.Interval_sim.Gt_not_asserted -> 1
           | _ -> 0))
      (sum (fun s ->
           match s.Sim.Interval_sim.gt_data with
           | Sim.Interval_sim.Gt_violation _ -> 1
           | _ -> 0));
  Option.iter
    (fun path ->
      let oc = open_out path in
      List.iter
        (fun s ->
          output_string oc (Sim.Interval_sim.stats_json_line s);
          output_char oc '\n')
        stats;
      close_out oc;
      Printf.printf "per-interval stats (JSON lines) written to %s\n" path)
    stats_json;
  obs_dump ~metrics_out ~trace_out

(* ------------------------------------------------------------------ *)
(* plan (capacity planning, §3.3)                                      *)
(* ------------------------------------------------------------------ *)

let plan_cmd network seed scale kc ke kv =
  let sc = scenario_of_name network seed in
  let input = Sim.Scenario.scaled sc scale in
  let prev = match Basic_te.solve input with Ok a -> a | Error e -> failwith e in
  let config =
    Ffc.config
      ~protection:(Te_types.protection ~kc ~ke ~kv ())
      ~encoding:`Duality ~mice_fraction:0. ~ingress_skip_fraction:0. ()
  in
  match Capacity_plan.solve ~config ~prev input with
  | Error e -> failwith e
  | Ok r ->
    let topo = input.Te_types.topo in
    let t = Table.create [ "link"; "current (G)"; "required (G)" ] in
    Array.iter
      (fun (l : Topology.link) ->
        let req = r.Capacity_plan.capacities.(l.Topology.id) in
        if req > 1e-6 then
          Table.add_row t
            [
              Printf.sprintf "%s->%s"
                (Topology.switch_name topo l.Topology.src)
                (Topology.switch_name topo l.Topology.dst);
              Printf.sprintf "%.1f" l.Topology.capacity;
              Printf.sprintf "%.1f" req;
            ])
      (Topology.links topo);
    Table.print t;
    Printf.printf "total required capacity: %.1f G (provisioning factor %.2f over unprotected)\n"
      r.Capacity_plan.total_capacity
      (Capacity_plan.provisioning_factor input r)

(* ------------------------------------------------------------------ *)
(* verify (exhaustive fault-case checking)                             *)
(* ------------------------------------------------------------------ *)

let verify_cmd network seed sites scale kc ke kv rescale_aware =
  if sites > 10 then
    Printf.printf "note: exhaustive verification is exponential; consider --sites <= 10\n";
  let sc = scenario_of_name ~sites network seed in
  let input = Sim.Scenario.scaled sc scale in
  let prev = match Basic_te.solve input with Ok a -> a | Error e -> failwith e in
  let protection = Te_types.protection ~kc ~ke ~kv () in
  let config =
    Ffc.config ~protection ~rescale_aware ~mice_fraction:0. ~ingress_skip_fraction:0. ()
  in
  match Ffc.solve ~config ~prev input with
  | Error e -> failwith e
  | Ok r ->
    let failed = ref false in
    let report name = function
      | Ok () -> Printf.printf "%-28s PASS\n" name
      | Error e ->
        failed := true;
        Printf.printf "%-28s FAIL: %s\n" name e
    in
    Printf.printf "FFC %s solved: %.1f Gbps granted\n"
      (Format.asprintf "%a" Te_types.pp_protection protection)
      (Te_types.throughput r.Ffc.alloc);
    if ke > 0 || kv > 0 then
      report "data-plane (exhaustive)" (Enumerate.verify_data_plane input r.Ffc.alloc ~ke ~kv);
    if kc > 0 then
      report "control-plane (exhaustive)"
        (Enumerate.verify_control_plane input ~old_alloc:prev ~new_alloc:r.Ffc.alloc ~kc);
    if kc > 0 && (ke > 0 || kv > 0) then
      report "combined (exhaustive)"
        (Enumerate.verify_combined input ~old_alloc:prev ~new_alloc:r.Ffc.alloc ~protection);
    if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd seed count budget_ms oracles repro_out metrics_out trace_out jobs =
  let module Fuzz = Ffc_check.Fuzz in
  obs_setup ~metrics_out ~trace_out;
  with_jobs jobs @@ fun pool ->
  let oracles =
    match oracles with
    | [] -> Ffc_check.Oracles.all ()
    | names -> (
      match Ffc_check.Oracles.select names with
      | Ok os -> os
      | Error e -> failwith e)
  in
  let report = Fuzz.run ?pool ~seed ~count ?time_budget_ms:budget_ms ~oracles () in
  Format.printf "%a@." Fuzz.pp_report report;
  obs_dump ~metrics_out ~trace_out;
  match Fuzz.failures report with
  | [] -> ()
  | findings ->
    (* Minimal repros as a runnable file for bug reports / CI artifacts. *)
    Fuzz.write_repros repro_out findings;
    Printf.printf "%d finding(s); minimal repros written to %s\n" (List.length findings)
      repro_out;
    exit 1

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd seed budget sites intervals scale realistic kc ke kv repro_out metrics_out
    trace_out jobs =
  let module Chaos = Ffc_check.Chaos in
  obs_setup ~metrics_out ~trace_out;
  with_jobs jobs @@ fun pool ->
  Printf.printf
    "chaos hunt: kc=%d ke=%d kv=%d, %d-site L-Net, %d intervals, scale %g, %s model, \
     budget %d run(s), seed %d, %d job(s)\n\
     %!"
    kc ke kv sites intervals scale
    (if realistic then "realistic" else "optimistic")
    budget seed (max 1 jobs);
  let report =
    Chaos.hunt ?pool ~seed ~budget ~sites ~intervals ~scale ~realistic ~kc ~ke ~kv ()
  in
  Format.printf "%a@." Chaos.pp_report report;
  obs_dump ~metrics_out ~trace_out;
  match report.Chaos.h_finding with
  | None -> ()
  | Some f ->
    Chaos.write_repro repro_out ~seed f;
    Printf.printf "minimal repro written to %s\n" repro_out;
    exit 1

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

open Cmdliner

(* Range-validated option converters (see Ffc_util.Validate): out-of-range
   values are rejected at parse time with a one-line message instead of
   misbehaving downstream (a negative count silently disabling a loop, a
   probability above 1 skewing every bernoulli draw). *)
let wrap parse pp = Arg.conv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), pp)
let pp_float ppf v = Format.fprintf ppf "%g" v
let probability = wrap Validate.probability pp_float
let nonneg_float what = wrap (Validate.nonneg_float ~what) pp_float
let pos_float what = wrap (Validate.pos_float ~what) pp_float
let nonneg_int what = wrap (Validate.nonneg_int ~what) Format.pp_print_int
let pos_int what = wrap (Validate.pos_int ~what) Format.pp_print_int

(* String-valued options are enums, so a misspelt value is a parse error
   (exit 124 with a usage line) before any work is done. *)
let network =
  Arg.(
    value
    & opt (enum [ ("lnet", `Lnet); ("snet", `Snet) ]) `Lnet
    & info [ "network"; "n" ] ~doc:"lnet or snet")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed")

let scale =
  Arg.(
    value
    & opt (pos_float "--scale") 1.0
    & info [ "scale" ] ~doc:"Traffic scale (0.5/1/2)")

let kc =
  Arg.(
    value & opt (nonneg_int "--kc") 0 & info [ "kc" ] ~doc:"Config-fault protection level")

let ke =
  Arg.(
    value & opt (nonneg_int "--ke") 0 & info [ "ke" ] ~doc:"Link-failure protection level")

let kv =
  Arg.(
    value
    & opt (nonneg_int "--kv") 0
    & info [ "kv" ] ~doc:"Switch-failure protection level")

let jobs =
  Arg.(
    value
    & opt (pos_int "--jobs") 1
    & info [ "jobs"; "j" ]
        ~doc:
          "Parallel width (1 = sequential): work is chunked by it and run on at most \
           one domain per core. Reports are bit-identical at any value, except under \
           fuzz's --budget-ms: a time budget truncates a sharded campaign at chunk \
           granularity, not per instance")

let encoding =
  Arg.(
    value
    & opt (enum [ ("sorting-network", `Sorting_network); ("duality", `Duality) ]) `Sorting_network
    & info [ "encoding" ] ~doc:"Bounded M-sum encoding: sorting-network or duality")

let objective =
  Arg.(
    value
    & opt (enum [ ("throughput", `Throughput); ("fairness", `Fairness); ("mlu", `Mlu) ]) `Throughput
    & info [ "objective" ] ~doc:"throughput, fairness or mlu")

let topo_t = Term.(const topo_cmd $ network $ seed)

let solve_t =
  Term.(const solve_cmd $ network $ seed $ scale $ kc $ ke $ kv $ encoding $ objective)

let mode =
  Arg.(
    value
    & opt (enum [ ("ffc", `Ffc); ("reactive", `Reactive) ]) `Ffc
    & info [ "mode" ] ~doc:"ffc or reactive")

let intervals =
  Arg.(
    value
    & opt (pos_int "--intervals") 10
    & info [ "intervals" ] ~doc:"Number of 5-min intervals")

let model =
  Arg.(
    value
    & opt (enum [ ("realistic", `Realistic); ("optimistic", `Optimistic) ]) `Realistic
    & info [ "model" ] ~doc:"Switch model: realistic or optimistic")

let kc_sim =
  Arg.(value & opt (nonneg_int "--kc") 2 & info [ "kc" ] ~doc:"Config-fault protection")

let ke_sim =
  Arg.(value & opt (nonneg_int "--ke") 1 & info [ "ke" ] ~doc:"Link-failure protection")

let kv_sim =
  Arg.(value & opt (nonneg_int "--kv") 0 & info [ "kv" ] ~doc:"Switch-failure protection")

let deadline_ms =
  Arg.(
    value
    & opt (some (pos_float "--deadline-ms")) None
    & info [ "deadline-ms" ]
        ~doc:"Wall-clock budget per controller solve attempt (milliseconds)")

let audit_budget =
  Arg.(
    value
    & opt (nonneg_int "--audit-budget") 8
    & info [ "audit-budget" ]
        ~doc:"Sampled guarantee-audit cases per accepted solve (0 disables)")

let retries =
  Arg.(
    value
    & opt (pos_int "--retries") 6
    & info [ "retries" ] ~doc:"Max southbound push attempts per switch per interval")

let retry_timeout =
  Arg.(
    value
    & opt (pos_float "--retry-timeout") 10.
    & info [ "retry-timeout" ] ~doc:"Per-attempt straggler timeout (seconds)")

let retry_backoff =
  Arg.(
    value
    & opt (nonneg_float "--retry-backoff") 1.
    & info [ "retry-backoff" ]
        ~doc:"Base backoff between attempts (seconds; doubles per retry, jittered)")

let telemetry_loss =
  Arg.(
    value & opt probability 0.
    & info [ "telemetry-loss" ]
        ~doc:
          "Drop probability of demand reports and fault notifications (keepalive miss \
           probability is its square); 0 = perfect sensing")

let telemetry_delay =
  Arg.(
    value
    & opt (nonneg_int "--telemetry-delay") 0
    & info [ "telemetry-delay" ]
        ~doc:"Interval edges a fault notification lags (elements arrive suspect)")

let demand_noise =
  Arg.(
    value
    & opt (nonneg_float "--demand-noise") 0.
    & info [ "demand-noise" ] ~doc:"Relative sigma of demand-report noise")

let headroom =
  Arg.(
    value
    & opt (some (nonneg_float "--headroom")) None
    & info [ "headroom" ]
        ~doc:
          "Enable the robust demand estimator with this relative envelope margin gamma \
           (EWMA + decaying peak tracker)")

let dead_band =
  Arg.(
    value
    & opt (some (nonneg_float "--dead-band")) None
    & info [ "dead-band" ]
        ~doc:
          "Enable the estimator and skip re-solves when the view moved less than this \
           relative dead-band since the last solve")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ]
        ~doc:
          "Enable the metrics registry and write the merged snapshot here on \
           completion (JSON, plus Prometheus text alongside as FILE.prom; a .prom or \
           .txt FILE gets the Prometheus text directly)")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Enable span tracing and write the retained spans here on completion as \
           Chrome trace_event JSON (loadable in chrome://tracing / Perfetto)")

let stats_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ]
        ~doc:"Write per-interval stats to this file as JSON lines (one object per line)")

let simulate_t =
  Term.(
    const simulate_cmd $ network $ seed $ scale $ mode $ intervals $ model $ kc_sim $ ke_sim
    $ kv_sim $ deadline_ms $ audit_budget $ retries $ retry_timeout $ retry_backoff
    $ telemetry_loss $ telemetry_delay $ demand_noise $ headroom $ dead_band $ metrics_out
    $ trace_out $ stats_json)

let plan_t = Term.(const plan_cmd $ network $ seed $ scale $ kc $ ke $ kv)

let sites =
  Arg.(
    value
    & opt (pos_int "--sites") 7
    & info [ "sites" ] ~doc:"L-Net size for verification")

let rescale_aware =
  Arg.(value & flag & info [ "rescale-aware" ] ~doc:"Use the combined-fault-sound beta bound")

let verify_t =
  Term.(const verify_cmd $ network $ seed $ sites $ scale $ kc $ ke $ kv $ rescale_aware)

let fuzz_count =
  Arg.(value & opt (pos_int "--count") 200 & info [ "count" ] ~doc:"Instances per oracle")

let fuzz_budget =
  Arg.(
    value
    & opt (some (pos_float "--budget-ms")) None
    & info [ "budget-ms" ] ~doc:"Wall-clock budget for the whole campaign (milliseconds)")

let fuzz_oracles =
  Arg.(
    value & opt (list string) []
    & info [ "oracles" ] ~doc:"Comma-separated subset of lp,lu,ffc,sim (default: all)")

let fuzz_repro_out =
  Arg.(
    value & opt string "FUZZ_repro.ml"
    & info [ "repro-out" ] ~doc:"Where to write minimal repro snippets on failure")

let fuzz_t =
  Term.(
    const fuzz_cmd $ seed $ fuzz_count $ fuzz_budget $ fuzz_oracles $ fuzz_repro_out
    $ metrics_out $ trace_out $ jobs)

let chaos_budget =
  Arg.(
    value
    & opt (pos_int "--budget") 48
    & info [ "budget" ] ~doc:"Simulator runs the hunt may spend")

let chaos_sites =
  Arg.(
    value
    & opt (pos_int "--sites") 4
    & info [ "sites" ] ~doc:"L-Net size the hunt plans against")

let chaos_intervals =
  Arg.(
    value
    & opt (pos_int "--intervals") 6
    & info [ "intervals" ] ~doc:"Intervals per chaos plan")

let chaos_scale =
  Arg.(
    value
    & opt (pos_float "--scale") 1.2
    & info [ "scale" ] ~doc:"Traffic scale of the hunted scenario")

let chaos_realistic =
  Arg.(
    value & flag
    & info [ "realistic" ] ~doc:"Use the realistic (lossy) southbound update model")

let chaos_kc =
  Arg.(value & opt (nonneg_int "--kc") 2 & info [ "kc" ] ~doc:"Config-fault protection")

let chaos_ke =
  Arg.(value & opt (nonneg_int "--ke") 1 & info [ "ke" ] ~doc:"Link-failure protection")

let chaos_kv =
  Arg.(value & opt (nonneg_int "--kv") 0 & info [ "kv" ] ~doc:"Switch-failure protection")

let chaos_repro_out =
  Arg.(
    value & opt string "CHAOS_repro.ml"
    & info [ "repro-out" ] ~doc:"Where to write the minimal repro snippet on a finding")

let chaos_t =
  Term.(
    const chaos_cmd $ seed $ chaos_budget $ chaos_sites $ chaos_intervals $ chaos_scale
    $ chaos_realistic $ chaos_kc $ chaos_ke $ chaos_kv $ chaos_repro_out $ metrics_out
    $ trace_out $ jobs)

let cmds =
  [
    Cmd.v (Cmd.info "topo" ~doc:"Print a generated network") topo_t;
    Cmd.v (Cmd.info "solve" ~doc:"Compute an FFC TE allocation") solve_t;
    Cmd.v (Cmd.info "simulate" ~doc:"Run the TE-interval fault simulation") simulate_t;
    Cmd.v
      (Cmd.info "plan" ~doc:"Compute the link capacities a protection level requires (§3.3)")
      plan_t;
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Solve FFC and exhaustively verify the guarantee on a small network; exits 1 if \
            a check fails")
      verify_t;
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:"Differential fuzzing of the LP/FFC/simulator pipeline with shrinking")
      fuzz_t;
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Adversarially hunt fault sequences and controller crash timings (within \
            the configured protection) for FFC guarantee violations")
      chaos_t;
  ]

let () =
  let info = Cmd.info "ffc_cli" ~doc:"Forward fault correction traffic engineering" in
  exit (Cmd.eval (Cmd.group info cmds))
