open Ffc_net
open Ffc_core
open Ffc_sim
module Rng = Ffc_util.Rng
module Pool = Ffc_util.Pool
module Obs = Ffc_obs.Obs

(* Hunt totals come from the deterministic prefix combine (the same at any
   pool size); per-plan counters would differ because a pooled chunk may
   run restarts past the first finding. *)
let m_plans = Obs.counter "chaos.plans_evaluated"
let m_hunt_findings = Obs.counter "chaos.findings"
let m_hunt_shrink_steps = Obs.counter "chaos.shrink_steps"
let m_best_score = Obs.gauge "chaos.best_score"

type elem = Fibre of int | Switch of int

type fault_spec = { fs_interval : int; fs_time : float; fs_elem : elem }

type crash_spec = { cr_interval : int; cr_downtime : float }

type tele_spec = { t_loss : float; t_delay : int; t_noise : float }

type plan = {
  p_seed : int;
  p_sites : int;
  p_intervals : int;
  p_scale : float;
  p_kc : int;
  p_ke : int;
  p_kv : int;
  p_realistic : bool;
  p_faults : fault_spec list;
  p_crash : crash_spec option;
  p_telemetry : tele_spec option;
}

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Forced-fault generator from the plan's specs: per interval, at most
   [p_ke] distinct fibres and [p_kv] distinct switches (the plan must stay
   within the protection it claims to test), element indices mod the
   topology's population so shrinking the scenario never invalidates a
   plan. *)
let forced_of_plan plan topo =
  let fibre_arr = Array.of_list (Topology.fibres topo) in
  let switch_arr = Array.of_list (Topology.switches topo) in
  fun _rng interval_idx ->
    if Array.length fibre_arr = 0 then []
    else begin
      let seen_f = Hashtbl.create 4 and seen_v = Hashtbl.create 4 in
      let faults =
        List.filter_map
          (fun fs ->
            if fs.fs_interval <> interval_idx then None
            else
              let time_s = 300. *. max 0. (min 1. fs.fs_time) in
              match fs.fs_elem with
              | Fibre i ->
                let i = i mod Array.length fibre_arr in
                if Hashtbl.length seen_f >= plan.p_ke || Hashtbl.mem seen_f i then None
                else begin
                  Hashtbl.replace seen_f i ();
                  Some { Fault_model.time_s; kind = Fault_model.Link_down fibre_arr.(i) }
                end
              | Switch i ->
                let i = i mod Array.length switch_arr in
                if Hashtbl.length seen_v >= plan.p_kv || Hashtbl.mem seen_v i then None
                else begin
                  Hashtbl.replace seen_v i ();
                  Some
                    { Fault_model.time_s; kind = Fault_model.Switch_down switch_arr.(i) }
                end)
          plan.p_faults
      in
      Fault_model.dedup topo
        (List.sort (fun a b -> Float.compare a.Fault_model.time_s b.Fault_model.time_s) faults)
    end

(* Test hook, called with the plan at the start of every [run_plan]: the
   crash-regression test forces a raise here to prove a simulator crash
   surfaces as a shrunk ["crash:"] finding instead of being swallowed. *)
let run_plan_hook : (plan -> unit) ref = ref (fun _ -> ())

let run_plan plan =
  !run_plan_hook plan;
  let scen_rng = Rng.create plan.p_seed in
  let sc = Scenario.lnet_sim ~sites:(max 3 plan.p_sites) scen_rng in
  let intervals = max 1 plan.p_intervals in
  let series = Scenario.demand_series scen_rng sc ~scale:plan.p_scale ~intervals in
  let kc = plan.p_kc and ke = plan.p_ke and kv = plan.p_kv in
  let mode =
    Interval_sim.Proactive
      (fun _cls ->
        Ffc.config
          ~protection:(Te_types.protection ~kc ~ke ~kv ())
          ~encoding:`Duality ~mice_fraction:0. ~ingress_skip_fraction:0.
          ~rescale_aware:(kc > 0 && ke + kv > 0) ())
  in
  let update_model =
    if plan.p_realistic then Update_model.realistic () else Update_model.optimistic ()
  in
  let outage =
    match plan.p_crash with
    | None -> None
    | Some c ->
      Some
        (Interval_sim.controller_outage
           ~forced_crashes:[ (max 0 c.cr_interval, max 1. c.cr_downtime) ]
           Interval_sim.Journaled_restart)
  in
  (* A telemetry spec runs the controller behind a lossy sensing plane with
     the robust estimator on (a modest headroom and dead-band, so envelope
     planning, rate capping and skip logic all get exercised); the plan's
     guarantees are then judged against ground truth like everything else. *)
  let telemetry, estimator =
    match plan.p_telemetry with
    | None -> (None, None)
    | Some t ->
      ( Some
          (Telemetry.config
             ~loss:(max 0. (min 0.9 t.t_loss))
             ~delay:(max 0 t.t_delay)
             ~demand_noise:(max 0. t.t_noise) ()),
        Some (Estimator.config ~headroom:0.2 ~dead_band:0.02 ()) )
  in
  let cfg =
    {
      (Interval_sim.default_config ~audit_budget:6 ?outage ?telemetry ?estimator ~mode
         ~update_model Fault_model.none)
      with
      Interval_sim.forced_faults = Some (forced_of_plan plan sc.Scenario.input.Te_types.topo);
    }
  in
  Interval_sim.run ~rng:(Rng.create plan.p_seed) cfg sc.Scenario.input ~demand_series:series

(* ------------------------------------------------------------------ *)
(* The property                                                        *)
(* ------------------------------------------------------------------ *)

let failf fmt = Printf.ksprintf (fun s -> Fuzz.Fail s) fmt

let lost_congestion st =
  Array.fold_left
    (fun acc (c : Interval_sim.class_stats) -> acc +. c.Interval_sim.lost_congestion_gb)
    0. st.Interval_sim.per_class

let granted st =
  Array.fold_left
    (fun acc (c : Interval_sim.class_stats) -> acc +. c.Interval_sim.granted_gb)
    0. st.Interval_sim.per_class

let verdict_of stats =
  (* The congestion promise needs a control plane that has never been
     stale: a past beyond-budget stale set can leave grandfathered
     overloads (§4.5 unprotected moves) that legitimately congest later
     full-protection intervals, so the clean-prefix restriction keeps the
     oracle sound rather than merely usually-right. *)
  let clean = ref true in
  let rec check idx = function
    | [] -> Fuzz.Pass
    | (st : Interval_sim.interval_stats) :: rest -> (
      let g = granted st in
      let tol = 1e-6 *. (1. +. g) in
      match st.Interval_sim.kc_verdict with
      | Southbound.Violation v ->
        failf
          "guarantee: interval %d: kc-guarantee violation on link %d (load %.9g > \
           capacity %.9g) with %d stale switch(es) within budget kc=%d"
          idx v.Southbound.link.Topology.id v.Southbound.load v.Southbound.capacity
          (List.length v.Southbound.stale_set)
          st.Interval_sim.kc_checked
      | _ ->
        if st.Interval_sim.audit_violations > 0 then
          failf "audit: interval %d: %d of %d sampled guarantee audit case(s) violated"
            idx st.Interval_sim.audit_violations st.Interval_sim.audit_cases
        else if
          (match st.Interval_sim.gt_data with
          | Interval_sim.Gt_violation _ -> true
          | _ -> false)
        then
          let m =
            match st.Interval_sim.gt_data with
            | Interval_sim.Gt_violation m -> m
            | _ -> assert false
          in
          failf
            "groundtruth: interval %d: planned allocation violates the data-plane \
             guarantee against true demands: %s"
            idx m
        else if
          Interval_sim.total_lost st > (g *. (1. +. 1e-6)) +. 1e-6
        then
          failf "conservation: interval %d: lost %.9g Gb exceeds granted %.9g Gb" idx
            (Interval_sim.total_lost st) g
        else if
          !clean
          && st.Interval_sim.rung_label = "full"
          && (not st.Interval_sim.controller_down)
          && (not st.Interval_sim.recovery_interval)
          && st.Interval_sim.control_faults = 0
          && lost_congestion st > tol
        then
          failf
            "congestion: interval %d: %.9g Gb congestion loss at full protection with \
             faults within budget (ke+kv cover the %d injected fault(s)) and a clean \
             control plane"
            idx (lost_congestion st) st.Interval_sim.data_faults
        else begin
          if st.Interval_sim.control_faults > 0 then clean := false;
          check (idx + 1) rest
        end)
  in
  check 0 stats

let test plan = verdict_of (run_plan plan)

let score stats =
  List.fold_left
    (fun acc (st : Interval_sim.interval_stats) ->
      let beyond =
        match st.Interval_sim.kc_verdict with
        | Southbound.Beyond_budget s -> float_of_int (List.length s)
        | _ -> 0.
      in
      acc
      +. Interval_sim.total_lost st
      +. (10. *. st.Interval_sim.max_oversub_pct)
      +. (5. *. beyond)
      +. (3. *. float_of_int st.Interval_sim.control_faults))
    0. stats

(* ------------------------------------------------------------------ *)
(* Generation, shrinking, repro                                        *)
(* ------------------------------------------------------------------ *)

let random_faults rng ~intervals ~ke ~kv =
  List.concat
    (List.init intervals (fun i ->
         let nf = if ke > 0 then Rng.int rng (ke + 1) else 0 in
         let nv = if kv > 0 then Rng.int rng (kv + 1) else 0 in
         List.init nf (fun _ ->
             { fs_interval = i; fs_time = Rng.float rng 1.; fs_elem = Fibre (Rng.int rng 64) })
         @ List.init nv (fun _ ->
               {
                 fs_interval = i;
                 fs_time = Rng.float rng 1.;
                 fs_elem = Switch (Rng.int rng 64);
               })))

let random_crash rng ~intervals =
  if Rng.bernoulli rng 0.6 then
    Some
      {
        cr_interval = Rng.int rng (max 1 intervals);
        cr_downtime = 300. *. (0.5 +. Rng.float rng 2.5);
      }
  else None

let random_telemetry rng =
  if Rng.bernoulli rng 0.5 then
    Some
      {
        t_loss = 0.1 +. Rng.float rng 0.3;
        t_delay = Rng.int rng 3;
        t_noise = Rng.float rng 0.12;
      }
  else None

let random_plan rng ~sites ~intervals ~scale ~realistic ~telemetry ~kc ~ke ~kv =
  {
    p_seed = Rng.int rng 1_000_000;
    p_sites = sites;
    p_intervals = intervals;
    p_scale = scale;
    p_kc = kc;
    p_ke = ke;
    p_kv = kv;
    p_realistic = realistic;
    p_faults = random_faults rng ~intervals ~ke ~kv;
    p_crash = random_crash rng ~intervals;
    p_telemetry = (if telemetry then random_telemetry rng else None);
  }

let generate rng =
  let intervals = 3 + Rng.int rng 3 in
  random_plan rng ~sites:(3 + Rng.int rng 3) ~intervals
    ~scale:(0.7 +. Rng.float rng 0.6)
    ~realistic:(Rng.bernoulli rng 0.3)
    ~telemetry:true ~kc:(Rng.int rng 3) ~ke:(Rng.int rng 3) ~kv:(Rng.int rng 2)

let shrink p =
  let nf = List.length p.p_faults in
  List.init nf (fun i ->
      { p with p_faults = List.filteri (fun j _ -> j <> i) p.p_faults })
  @ (match p.p_crash with Some _ -> [ { p with p_crash = None } ] | None -> [])
  @ (match p.p_telemetry with
    | Some _ -> [ { p with p_telemetry = None } ]
    | None -> [])
  @ (if p.p_intervals > 1 then
       [
         {
           p with
           p_intervals = p.p_intervals - 1;
           p_faults =
             List.filter (fun f -> f.fs_interval < p.p_intervals - 1) p.p_faults;
           p_crash =
             (match p.p_crash with
             | Some c when c.cr_interval >= p.p_intervals - 1 -> None
             | c -> c);
         };
       ]
     else [])
  @ (if p.p_sites > 3 then [ { p with p_sites = p.p_sites - 1 } ] else [])
  @ (if p.p_realistic then [ { p with p_realistic = false } ] else [])

(* The plan as an OCaml record literal, floats in bit-exact [%h]. *)
let plan_literal p =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  Ffc_check.Chaos.p_seed = %d; p_sites = %d; p_intervals = %d;\n  p_scale = %h; \
        p_kc = %d; p_ke = %d; p_kv = %d; p_realistic = %b;\n"
       p.p_seed p.p_sites p.p_intervals p.p_scale p.p_kc p.p_ke p.p_kv p.p_realistic);
  Buffer.add_string b "  p_faults = [\n";
  List.iter
    (fun f ->
      let elem =
        match f.fs_elem with
        | Fibre i -> Printf.sprintf "Ffc_check.Chaos.Fibre %d" i
        | Switch i -> Printf.sprintf "Ffc_check.Chaos.Switch %d" i
      in
      Buffer.add_string b
        (Printf.sprintf
           "    { Ffc_check.Chaos.fs_interval = %d; fs_time = %h; fs_elem = %s };\n"
           f.fs_interval f.fs_time elem))
    p.p_faults;
  Buffer.add_string b "  ];\n";
  (match p.p_crash with
  | None -> Buffer.add_string b "  p_crash = None;\n"
  | Some c ->
    Buffer.add_string b
      (Printf.sprintf
         "  p_crash = Some { Ffc_check.Chaos.cr_interval = %d; cr_downtime = %h };\n"
         c.cr_interval c.cr_downtime));
  (match p.p_telemetry with
  | None -> Buffer.add_string b "  p_telemetry = None;\n"
  | Some t ->
    Buffer.add_string b
      (Printf.sprintf
         "  p_telemetry = Some { Ffc_check.Chaos.t_loss = %h; t_delay = %d; t_noise = %h };\n"
         t.t_loss t.t_delay t.t_noise));
  Buffer.add_string b "}";
  Buffer.contents b

let repro = Fuzz.repro_program ~test:"Ffc_check.Chaos.test" plan_literal

let oracle () = Fuzz.oracle ~name:"chaos" ~generate ~test ~shrink ~repro

(* ------------------------------------------------------------------ *)
(* The hunt                                                            *)
(* ------------------------------------------------------------------ *)

type finding = {
  c_plan : plan;
  c_message : string;
  c_min_plan : plan;
  c_min_message : string;
  c_shrink_steps : int;
  c_repro : string;
}

type hunt_report = {
  h_evaluated : int;
  h_best_score : float;
  h_finding : finding option;
}

let mutate rng p =
  match Rng.int rng 7 with
  | 0 ->
    (* add a fault somewhere *)
    let elem = if Rng.bernoulli rng 0.7 then Fibre (Rng.int rng 64) else Switch (Rng.int rng 64) in
    {
      p with
      p_faults =
        {
          fs_interval = Rng.int rng (max 1 p.p_intervals);
          fs_time = Rng.float rng 1.;
          fs_elem = elem;
        }
        :: p.p_faults;
    }
  | 1 when p.p_faults <> [] ->
    (* re-time one fault *)
    let k = Rng.int rng (List.length p.p_faults) in
    {
      p with
      p_faults =
        List.mapi
          (fun i f -> if i = k then { f with fs_time = Rng.float rng 1. } else f)
          p.p_faults;
    }
  | 2 when p.p_faults <> [] ->
    (* move one fault to another interval *)
    let k = Rng.int rng (List.length p.p_faults) in
    {
      p with
      p_faults =
        List.mapi
          (fun i f ->
            if i = k then { f with fs_interval = Rng.int rng (max 1 p.p_intervals) } else f)
          p.p_faults;
    }
  | 3 -> { p with p_crash = random_crash rng ~intervals:p.p_intervals }
  | 4 -> { p with p_scale = max 0.5 (p.p_scale *. (0.85 +. Rng.float rng 0.4)) }
  | 5 ->
    (* degrade, re-roll or restore the sensing plane *)
    { p with p_telemetry = random_telemetry rng }
  | _ -> { p with p_seed = Rng.int rng 1_000_000 }

(* One restart costs at most [1 + climb_steps] plan evaluations. *)
let climb_steps = 7
let evals_per_restart = 1 + climb_steps

type restart_out = {
  ro_evaluated : int;
  ro_best : float;
  ro_found : (plan * string) option;
}

(* One random restart refined by a short greedy climb: accept a mutation iff
   it scores at least as badly (plateau moves let the climb slide across
   equal-score regions). Each plan is run exactly once; an exception escaping
   the simulator is converted into a top-priority ["crash:"] finding rather
   than being swallowed into a zero score — a crashing run is the strongest
   possible evidence the hunter can produce. *)
let run_restart ~sites ~intervals ~scale ~realistic ~telemetry ~kc ~ke ~kv rng
    ~allowance =
  let evaluated = ref 0 and best = ref 0. and found = ref None in
  let eval p =
    incr evaluated;
    match run_plan p with
    | exception e ->
      found := Some (p, "crash: " ^ Printexc.to_string e);
      infinity
    | stats -> (
      match verdict_of stats with
      | Fuzz.Fail m ->
        found := Some (p, m);
        infinity
      | Fuzz.Pass | Fuzz.Skip _ ->
        let s = score stats in
        if s > !best then best := s;
        s)
  in
  if allowance > 0 then begin
    let cur =
      ref (random_plan rng ~sites ~intervals ~scale ~realistic ~telemetry ~kc ~ke ~kv)
    in
    let cur_score = ref (eval !cur) in
    let steps = ref 0 in
    while !steps < climb_steps && !evaluated < allowance && !found = None do
      incr steps;
      let cand = mutate rng !cur in
      let s = eval cand in
      if s >= !cur_score then begin
        cur := cand;
        cur_score := s
      end
    done
  end;
  { ro_evaluated = !evaluated; ro_best = !best; ro_found = !found }

let hunt ?pool ?(seed = 42) ?(budget = 48) ?(sites = 4) ?(intervals = 6)
    ?(scale = 1.2) ?(realistic = false) ?(telemetry = false) ~kc ~ke ~kv () =
  Obs.with_span "chaos.hunt" @@ fun () ->
  let master = Rng.create seed in
  let restarts = max 1 ((budget + evals_per_restart - 1) / evals_per_restart) in
  (* Restart r's stream is the r-th split of the master — a pure function of
     (seed, r) — and its evaluation allowance is its slice of the budget, so
     a hunt explores the same plans with the same budgets at any pool size. *)
  let rngs = Array.init restarts (fun _ -> Rng.split master) in
  let allowance r = max 0 (min evals_per_restart (budget - (r * evals_per_restart))) in
  let run r =
    run_restart ~sites ~intervals ~scale ~realistic ~telemetry ~kc ~ke ~kv rngs.(r)
      ~allowance:(allowance r)
  in
  (* Restarts run in chunks of the pool size (one at a time without a
     pool); no chunk starts after one that found a violation. *)
  let chunk, map =
    match pool with Some p -> (Pool.jobs p, Pool.map p) | None -> (1, Array.map)
  in
  let chunks = ref [] and next = ref 0 and found_any = ref false in
  while !next < restarts && not !found_any do
    let hi = min restarts (!next + chunk) in
    let outs = map run (Array.init (hi - !next) (fun k -> !next + k)) in
    found_any := Array.exists (fun o -> o.ro_found <> None) outs;
    chunks := outs :: !chunks;
    next := hi
  done;
  let outs = Array.concat (List.rev !chunks) in
  (* Deterministic combine: only the prefix up to and including the first
     restart with a finding counts, so a pooled chunk that found later
     violations too reports exactly what one restart at a time does. *)
  let evaluated = ref 0 and best = ref 0. and found = ref None in
  (try
     Array.iter
       (fun o ->
         evaluated := !evaluated + o.ro_evaluated;
         if o.ro_best > !best then best := o.ro_best;
         if o.ro_found <> None then begin
           found := o.ro_found;
           raise Exit
         end)
       outs
   with Exit -> ());
  let finding =
    match !found with
    | None -> None
    | Some (p, m) ->
      let min_plan, min_msg, steps =
        Fuzz.minimise ~test:(fun q -> Fuzz.run_test test q) ~shrink p m
      in
      Some
        {
          c_plan = p;
          c_message = m;
          c_min_plan = min_plan;
          c_min_message = min_msg;
          c_shrink_steps = steps;
          c_repro = repro min_plan;
        }
  in
  if Obs.enabled () then begin
    Obs.add m_plans (float_of_int !evaluated);
    Obs.set m_best_score !best;
    match finding with
    | Some f ->
      Obs.incr m_hunt_findings;
      Obs.add m_hunt_shrink_steps (float_of_int f.c_shrink_steps)
    | None -> ()
  end;
  { h_evaluated = !evaluated; h_best_score = !best; h_finding = finding }

let write_repro path ~seed f =
  let oc = open_out path in
  Printf.fprintf oc "(* chaos finding, hunt seed %d\n   %s *)\n%s\n" seed f.c_min_message f.c_repro;
  close_out oc

let pp_report fmt r =
  match r.h_finding with
  | None ->
    Format.fprintf fmt
      "chaos hunt: no guarantee violation in %d run(s); worst badness score %.6g"
      r.h_evaluated r.h_best_score
  | Some f ->
    Format.fprintf fmt
      "chaos hunt: VIOLATION after %d run(s)@.  original: %s@.  shrunk (%d step(s)): \
       %s@.  repro:@.%s"
      r.h_evaluated f.c_message f.c_shrink_steps f.c_min_message f.c_repro
