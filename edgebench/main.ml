(* Interval-edge latency ledger: the repository's benchmark.

   One closed loop in one process and one domain. Each interval edge runs
   the controller's service path back to back, as Interval_sim.run does:

     Southbound.imposed_mix -> Controller.step ~stale ~prev
       -> Southbound.push -> Southbound.check_guarantee ~kc:(step_kc step)

   carrying unmet demand as backlog. The run also times Interval_sim.run
   itself over blocks of intervals; where the edge loop models the whole
   simulated interval, block j replays loop j's first intervals and must
   agree with it edge for edge (the no-fork check).

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
   The last line of standard output is the JSON result; the line before it
   records provenance and the warm-start diagnosis. Exits non-zero on a
   guarantee violation or a fork from Interval_sim. *)

open Ffc_net
open Ffc_core
module Sim = Ffc_sim
module Isim = Ffc_sim.Interval_sim
module Sb = Ffc_sim.Southbound
module Rng = Ffc_util.Rng
module Clock = Ffc_util.Clock
module Obs = Ffc_obs.Obs

(* --- workloads -------------------------------------------------------- *)

type workload = {
  name : string;
  sites : int;
  extra_edge_prob : float option;  (** [None]: Topo_gen.lnet's default *)
  nflows : int;
  sim_config : Topology.t -> Isim.config;
  loops : int;
      (** independent closed loops per run, each set up on its own demand
          series; setup_s is the median of their set-up times *)
  rounds_per_s : float;
  blocks_per_s : float;
      (** work per second of --seconds: edge rounds (one edge per loop) and
          Interval_sim blocks, sized so a run takes about --seconds on a
          2-core 2.1 GHz Xeon VM. A run does a fixed amount of work, so a
          faster commit measures the same intervals, sooner. *)
  block : int;  (** intervals per Interval_sim.run block *)
  ring : int;  (** span ring capacity: spans of one traced edge or block *)
  no_fork : bool;
      (** the edge loop replays this workload's simulator exactly: no data
          faults, sensing or controller crashes *)
}

(* FFC (kc, ke, kv) = (2, 1, 0), duality encoding, exact formulation: the
   configuration `ffc simulate` runs. *)
let ffc_210 _ =
  Ffc.config
    ~protection:(Te_types.protection ~kc:2 ~ke:1 ())
    ~encoding:`Duality ~mice_fraction:0. ~ingress_skip_fraction:0. ()

let ffc_sim _topo =
  Isim.default_config ~mode:(Isim.Proactive ffc_210)
    ~update_model:(Sim.Update_model.realistic ()) Sim.Fault_model.none

(* The paper's default network and protection: each edge is an FFC solve on
   default L-Net, where the LP solver takes nearly all of the edge and most
   solves drop their warm basis. *)
let lnet_ffc =
  {
    name = "lnet-ffc";
    sites = 20;
    extra_edge_prob = None;
    nflows = 40;
    sim_config = ffc_sim;
    loops = 48;
    rounds_per_s = 0.3;
    blocks_per_s = 0.4;
    block = 10;
    ring = 1 lsl 16;
    no_fork = true;
  }

(* The reactive controller inside the full simulator: tiny LPs, so most of
   an interval is fault play, loss accounting, sensing and journaling. *)
let sim_reactive =
  {
    name = "sim-reactive";
    sites = 20;
    extra_edge_prob = None;
    nflows = 40;
    sim_config =
      (fun topo ->
        Isim.default_config
          ~telemetry:(Sim.Telemetry.config ~loss:0.25 ~delay:2 ~demand_noise:0.08 ())
          ~estimator:(Estimator.config ())
          ~outage:(Isim.controller_outage ~crash_per_interval:0.05 Isim.Journaled_restart)
          ~mode:Isim.Reactive ~update_model:(Sim.Update_model.realistic ())
          (Sim.Fault_model.lnet_like topo));
    loops = 8;
    rounds_per_s = 18.;
    blocks_per_s = 0.45;
    block = 500;
    ring = 1 lsl 16;
    no_fork = false;
  }

(* O(100) switches and O(1000) links (§8.1). A run holds only a few edges of
   seconds each, so it reports no p90; runnable by hand, not gated. *)
let paper_scale =
  {
    name = "paper-scale";
    sites = 100;
    extra_edge_prob = Some 0.2;
    nflows = 200;
    sim_config = ffc_sim;
    loops = 2;
    rounds_per_s = 0.2;
    blocks_per_s = 0.1;
    block = 2;
    ring = 1 lsl 18;
    no_fork = true;
  }

let workloads = [ lnet_ffc; sim_reactive; paper_scale ]

(* The network is fixed per workload (one topology seed, as the paper
   evaluates one L-Net); the run seed drives demands and every event
   stream. At the default size this builds exactly Scenario.lnet_sim. *)
let topo_seed = 42

(* Traffic scale 1 is where basic TE satisfies 99% of demand. FFC (2,1,0)
   grants less there, and since unmet demand returns as backlog the offered
   load then grows without bound. At 0.7 the backlog stays bounded, but now
   and then rung 0 runs for 16 s into the simplex iteration limit before
   rung 1 accepts: a failed edge. 0.6 is the highest tenth where no edge
   failed in the runs made to define the benchmark. *)
let traffic_scale = 0.6

let build_scenario w =
  let rng = Rng.create topo_seed in
  let topo = Topo_gen.lnet ~sites:w.sites ?extra_edge_prob:w.extra_edge_prob rng in
  let spec = Traffic.make_flows ~nflows:w.nflows rng topo in
  let input =
    { Te_types.topo; flows = spec.Traffic.flows; demands = spec.Traffic.base_demand }
  in
  let (scale, achieved), calibrate_ms =
    Clock.time_ms (fun () -> Sim.Scenario.calibrate input)
  in
  if achieved < 0.99 then failwith (w.name ^ ": calibration failed");
  let demands = Traffic.scale scale input.Te_types.demands in
  ( {
      Sim.Scenario.name = w.name;
      input = { input with Te_types.demands };
      spec = { spec with Traffic.base_demand = demands };
      calibration_scale = scale;
      calibration_achieved = achieved;
      calibrated = true;
    },
    calibrate_ms )

(* --- the edge loop ---------------------------------------------------- *)

type loop = {
  cfg : Isim.config;
  input : Te_types.input;
  series : float array array;
  update_rng : Rng.t;
  ctrl : Controller.t;
  engine : Sb.t;
  ingresses : int;
  backlog : float array;
  mutable enforced : float array;
  mutable next : int;
}

(* Interval_sim.run splits the run RNG into fault, update, audit, chaos and
   telemetry streams in that order, and seeds the auditor from the audit
   stream; the loop takes the same streams the same way. *)
let make_loop cfg (input : Te_types.input) series ~rng =
  let _fault_rng = Rng.split rng in
  let update_rng = Rng.split rng in
  let audit_rng = Rng.split rng in
  let mode =
    match cfg.Isim.mode with
    | Isim.Reactive -> Controller.Basic
    | Isim.Proactive config_of -> Controller.Ffc_ladder config_of
  in
  let ccfg =
    Controller.config ?deadline_ms:cfg.Isim.deadline_ms
      ?max_iterations:cfg.Isim.max_iterations ~audit_budget:cfg.Isim.audit_budget
      ~audit_seed:(Rng.int audit_rng 0x3FFFFFFF) mode
  in
  let nflows = Array.length input.Te_types.demands in
  {
    cfg;
    input;
    series;
    update_rng;
    ctrl = Controller.create ccfg;
    engine = Sb.create ~retry:cfg.Isim.retry cfg.Isim.update_model input;
    ingresses =
      List.length
        (List.sort_uniq compare (List.map (fun (f : Flow.t) -> f.Flow.src) input.Te_types.flows));
    backlog = Array.make nflows 0.;
    enforced = Array.make nflows 0.;
    next = 0;
  }

type edge = {
  total_ms : float;
  imposed_ms : float;
  step_ms : float;
  push_ms : float;
  check_ms : float;
  step : Controller.step;
  report : Sb.report;
  verdict : Sb.verdict;
  demand : float;
  granted : float;
}

let span = Obs.with_span

let run_edge l =
  let i = l.next in
  l.next <- i + 1;
  let interval_s = l.cfg.Isim.interval_s in
  let base = l.series.(i mod Array.length l.series) in
  let demands = Array.mapi (fun f d -> d +. (l.backlog.(f) /. interval_s)) base in
  let input_t = { l.input with Te_types.demands } in
  span "bench.edge" @@ fun () ->
  let t0 = Clock.now_ms () in
  let prev, stale =
    span "bench.imposed_mix" (fun () ->
        ( Sb.imposed_mix l.engine input_t ~rates:l.enforced,
          List.length (Sb.stale_switches l.engine) ))
  in
  let t1 = Clock.now_ms () in
  let step = Controller.step l.ctrl ~stale input_t ~prev in
  let t2 = Clock.now_ms () in
  let target = step.Controller.alloc in
  let report = Sb.push l.engine l.update_rng input_t ~target ~interval_s in
  let t3 = Clock.now_ms () in
  let verdict =
    span "bench.check" (fun () ->
        let loads = Te_types.link_loads input_t prev in
        let links = Topology.links l.input.Te_types.topo in
        let grandfathered lid = loads.(lid) > links.(lid).Topology.capacity +. 1e-6 in
        Sb.check_guarantee l.engine ~grandfathered input_t ~target
          ~kc:(Controller.step_kc step))
  in
  let t4 = Clock.now_ms () in
  l.enforced <- target.Te_types.bf;
  (* Untimed data plane of a fault-free interval. Interval_sim draws from
     the update stream here only when the installed mix congests (a
     reaction to stuck ingresses); the same draw keeps the next push on
     the simulator's stream. *)
  let stuck = report.Sb.stale in
  let rates =
    Rescale.rescale input_t target
      ~stuck:(fun v -> List.mem v stuck)
      ~old_alloc_of:(Sb.running l.engine)
      ~failed_links:(fun _ -> false)
      ~failed_switches:(fun _ -> false)
      ()
  in
  if
    Array.fold_left ( +. ) 0. (Sim.Loss.congestion_rates input_t rates.Rescale.tunnel_rates)
    > 1e-9
  then ignore (Isim.reaction_delay l.update_rng l.cfg l.ingresses);
  Array.iteri
    (fun f d -> l.backlog.(f) <- max 0. ((d -. target.Te_types.bf.(f)) *. interval_s))
    demands;
  {
    total_ms = t4 -. t0;
    imposed_ms = t1 -. t0;
    step_ms = t2 -. t1;
    push_ms = t3 -. t2;
    check_ms = t4 -. t3;
    step;
    report;
    verdict;
    demand = Array.fold_left ( +. ) 0. demands;
    granted = Array.fold_left ( +. ) 0. target.Te_types.bf;
  }

let audit_violations (e : edge) =
  match e.step.Controller.audit with Some a -> a.Controller.audit_violations | None -> 0

let kc_violation = function Sb.Violation _ -> true | Sb.Ok_checked | Sb.Beyond_budget _ -> false

(* A failed edge was accepted below rung 0 or broke a guarantee. *)
let edge_failed e = e.step.Controller.rung > 0 || kc_violation e.verdict || audit_violations e > 0

let interval_violation (s : Isim.interval_stats) =
  kc_violation s.Isim.kc_verdict
  || s.Isim.audit_violations > 0
  || match s.Isim.gt_data with Isim.Gt_violation _ -> true | _ -> false

(* --- per-edge layer readings ------------------------------------------ *)

let ffc_stats e = List.map snd e.step.Controller.per_class_stats

let solver_stats e = List.filter_map (fun (s : Ffc.stats) -> s.Ffc.solver) (ffc_stats e)

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l

let isum f l = List.fold_left (fun a x -> a + f x) 0 l

let attempts_ms e = sum (fun (a : Controller.attempt) -> a.Controller.solve_ms) e.step.Controller.attempts

(* The solver's registry counters for one edge (recorded while Obs is on;
   reset before every edge). *)
type registry = { lp_ms : float; pivots : float; refactors : float; updates : float;
                  restarts : float; nnz : float; fill : float }

let read_registry () =
  let snap = Obs.snapshot () in
  let counter n = match List.assoc_opt n snap with Some (Obs.Counter_v v) -> v | _ -> 0. in
  let hist n = match List.assoc_opt n snap with Some (Obs.Hist_v h) -> Some h | _ -> None in
  let hsum n = match hist n with Some h -> h.Obs.Hist.sum | None -> 0. in
  let hmax n = match hist n with Some h when h.Obs.Hist.count > 0. -> h.Obs.Hist.hmax | _ -> 0. in
  {
    lp_ms = hsum "revised.solve_ms";
    pivots = counter "revised.pivots";
    refactors = counter "revised.refactorisations";
    updates = counter "revised.lu_updates";
    restarts = counter "revised.restarts";
    nnz = hmax "lu.nnz";
    fill = hmax "lu.fill_in";
  }

(* --- a run ------------------------------------------------------------ *)

type setup = {
  loop : loop;
  first : edge;
  sc : Sim.Scenario.t;
  calibrate_ms : float;
  setup_ms : float;
}

let series_len = 4096

(* Loop [j] of a run draws its demand series from sub-seed 1 and its event
   streams from sub-seed 2; distinct for every (seed, loop, purpose). *)
let sub_seed ~seed ~loop k = (seed * 128) + (loop * 4) + k

let setup w ~seed ~loop:j =
  let t0 = Clock.now_ms () in
  let sc, calibrate_ms = build_scenario w in
  let input = sc.Sim.Scenario.input in
  let series =
    Sim.Scenario.demand_series
      (Rng.create (sub_seed ~seed ~loop:j 1))
      sc ~scale:traffic_scale ~intervals:series_len
  in
  let loop =
    make_loop (w.sim_config input.Te_types.topo) input series
      ~rng:(Rng.create (sub_seed ~seed ~loop:j 2))
  in
  let first = run_edge loop in
  { loop; first; sc; calibrate_ms; setup_ms = Clock.since_ms t0 }

type reading =
  | Untraced
  | Registry of registry
  | Spans of int * (string, int * float * float) Hashtbl.t  (** dropped, self times *)

type sample = { loop_ix : int; edge : edge; reading : reading }

type block = {
  stats : Isim.interval_stats list;
  ms : float;
  len : int;
  spans : (int * (string, int * float * float) Hashtbl.t) option;
}

(* One edge from every loop. Each loop is its own closed loop; spreading a
   run over several demand series keeps one series' peculiarities out of
   the median. Under --trace 1, loop [j] is traced in round [r] when
   [r + j] is odd and otherwise records into the metric registry alone, so
   traced and untraced edges come from the same loops and intervals. *)
let run_round setups ~trace ~round =
  List.mapi
    (fun loop_ix s ->
      let spans = (round + loop_ix) mod 2 = 1 in
      if trace then begin
        Obs.enable ~tracing:spans ();
        Obs.reset ()
      end;
      let edge = run_edge s.loop in
      let reading =
        if not trace then Untraced
        else if spans then Spans (Obs.dropped_spans (), Ledger.self_times (Obs.spans ()))
        else Registry (read_registry ())
      in
      { loop_ix; edge; reading })
    setups

(* Interval_sim.run over block [b]: a window of loop [b mod loops]'s series.
   Block [j < loops] replays loop [j]'s first intervals on its event
   streams; later blocks draw theirs from [more]. *)
let run_block w loops ~more ~seed ~trace b =
  let k = Array.length loops in
  let s = loops.(b mod k) in
  let rng = if b < k then Rng.create (sub_seed ~seed ~loop:b 2) else Rng.split more in
  let start = b / k * w.block in
  let demand_series = Array.init w.block (fun i -> s.loop.series.((start + i) mod series_len)) in
  if trace then begin
    Obs.enable ~tracing:true ();
    Obs.reset ()
  end;
  let stats, ms =
    Clock.time_ms (fun () -> Isim.run ~rng s.loop.cfg s.sc.Sim.Scenario.input ~demand_series)
  in
  let spans = if trace then Some (Obs.dropped_spans (), Ledger.self_times (Obs.spans ())) else None in
  { stats; ms; len = w.block; spans }

(* [rounds] edge rounds with [blocks] simulator blocks spread evenly among
   them, so every time metric samples the whole run: the speed of a shared
   VM drifts by tens of percent over seconds. *)
let run_all w setups ~seed ~rounds ~blocks ~trace =
  let loops = Array.of_list setups in
  let more = Rng.create (sub_seed ~seed ~loop:31 3) in
  let samples = ref [] and done_blocks = ref [] and nb = ref 0 in
  for r = 0 to rounds - 1 do
    samples := List.rev_append (run_round setups ~trace ~round:r) !samples;
    while !nb * rounds < (r + 1) * blocks do
      done_blocks := run_block w loops ~more ~seed ~trace !nb :: !done_blocks;
      incr nb
    done
  done;
  Obs.disable ();
  (List.rev !samples, List.rev !done_blocks)

(* The no-fork check: Interval_sim.run on the same seed must make the same
   decisions as the edge loop, interval by interval. *)
let no_fork_mismatch ~interval_s (edges : edge list) (b : block) =
  let rec go i es ss =
    match (es, ss) with
    | e :: es, (s : Isim.interval_stats) :: ss ->
      if e.step.Controller.label <> s.Isim.rung_label then
        Some (Printf.sprintf "interval %d: rung %s vs %s" i e.step.Controller.label s.Isim.rung_label)
      else
        let bf = e.step.Controller.alloc.Te_types.bf in
        let granted = Array.fold_left ( +. ) 0. bf *. interval_s in
        let sim_granted = Array.fold_left (fun a c -> a +. c.Isim.granted_gb) 0. s.Isim.per_class in
        if Float.abs (granted -. sim_granted) > 1e-9 *. Float.max 1. granted then
          Some (Printf.sprintf "interval %d: granted %.17g vs %.17g Gb" i granted sim_granted)
        else go (i + 1) es ss
    | [], _ :: _ -> Some (Printf.sprintf "interval %d: the edge loop stopped short" i)
    | _, [] -> None
  in
  go 0 edges b.stats

let median = Ledger.median

let median_by f l = median (List.map f l)

type metric = string * string * float

let main ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  (* Sized before any ring exists, so no traced edge or block wraps. *)
  Obs.set_ring_capacity w.ring;
  let setups = List.init w.loops (fun j -> setup w ~seed ~loop:j) in
  let work per_s floor = max floor (int_of_float (Float.ceil (seconds *. per_s))) in
  let samples, blocks =
    run_all w setups ~seed
      ~rounds:(work w.rounds_per_s (if w.no_fork then w.block else 1))
      ~blocks:(work w.blocks_per_s 1) ~trace
  in
  let measured = List.map (fun s -> s.edge) samples in
  let all_edges = List.map (fun s -> s.first) setups @ measured in
  let mismatch =
    if not w.no_fork then None
    else
      List.find_map
        (fun (j, s) ->
          let edges =
            s.first
            :: List.filter_map (fun x -> if x.loop_ix = j then Some x.edge else None) samples
          in
          Option.bind (List.nth_opt blocks j) (fun b ->
              Option.map (Printf.sprintf "loop %d, %s" j)
                (no_fork_mismatch ~interval_s:s.loop.cfg.Isim.interval_s edges b)))
        (List.mapi (fun j s -> (j, s)) setups)
  in
  let intervals = List.concat_map (fun b -> b.stats) blocks in
  let violations =
    List.length (List.filter (fun e -> kc_violation e.verdict || audit_violations e > 0) all_edges)
    + List.length (List.filter interval_violation intervals)
  in
  let failed =
    List.length (List.filter edge_failed measured)
    + List.length (List.filter interval_violation intervals)
  in
  let attempted = List.length measured + List.length intervals in
  (* Provenance and the warm-start diagnosis, one JSON line. *)
  let reasons = Hashtbl.create 8 in
  List.iter
    (fun e ->
      List.iter
        (fun (st : Ffc_lp.Problem.solver_stats) ->
          let r = st.Ffc_lp.Problem.status_reason in
          Hashtbl.replace reasons r (1 + Option.value (Hashtbl.find_opt reasons r) ~default:0))
        (solver_stats e))
    measured;
  let lp_solves = List.concat_map solver_stats measured in
  let warm = List.length (List.filter (fun st -> st.Ffc_lp.Problem.warm_started) lp_solves) in
  let rows e = float_of_int (isum (fun (st : Ffc.stats) -> st.Ffc.lp_rows) (ffc_stats e)) in
  let input = (List.hd setups).sc.Sim.Scenario.input in
  print_endline
    (Ledger.json_object
       [
         ("workload", Ledger.json_string w.name);
         ("seed", string_of_int seed);
         ("cores", string_of_int (Domain.recommended_domain_count ()));
         ("domains", "1");
         ("ocaml", Ledger.json_string Sys.ocaml_version);
         ("switches", string_of_int (Topology.num_switches input.Te_types.topo));
         ("links", string_of_int (Topology.num_links input.Te_types.topo));
         ("flows", string_of_int (List.length input.Te_types.flows));
         ("traffic_scale", Ledger.json_number traffic_scale);
         ("lp_rows_median", Ledger.json_number (median_by rows measured));
         ("loops", string_of_int w.loops);
         ("edges", string_of_int (List.length measured));
         ("sim_intervals", string_of_int (List.length intervals));
         ("lp_solves", string_of_int (List.length lp_solves));
         ("warm_accepted", string_of_int warm);
         ( "status_reasons",
           Ledger.json_object
             (List.sort compare
                (Hashtbl.fold (fun r n acc -> (r, string_of_int n) :: acc) reasons [])) );
         ( "no_fork",
           Ledger.json_string
             (if not w.no_fork then "not applicable"
              else Option.value mismatch ~default:"ok") );
       ]);
  let metrics : metric list =
    if not trace then begin
      let lat = List.map (fun e -> e.total_ms) measured in
      let offered =
        sum (fun s -> sum (fun c -> c.Isim.offered_gb) (Array.to_list s.Isim.per_class)) intervals
      in
      [ ("edge_ms_p50", "ms", median lat) ]
      @ (match Ledger.tail_percentile 0.9 lat with
        | Some p90 -> [ ("edge_ms_p90", "ms", p90) ]
        | None -> [])
      @ [
          ("ok_frac", "ratio", 1. -. (float_of_int failed /. float_of_int attempted));
          ( "granted_frac", "ratio",
            sum (fun e -> e.granted) measured /. sum (fun e -> e.demand) measured );
          ( "sim_ms_per_interval", "ms",
            sum (fun b -> b.ms) blocks /. float_of_int (List.length intervals) );
          ("delivered_frac", "ratio", sum Isim.total_delivered intervals /. offered);
          ("setup_s", "s", median_by (fun s -> s.setup_ms /. 1000.) setups);
        ]
    end
    else begin
      let untraced = List.filter_map (fun x -> match x.reading with Registry r -> Some (x.edge, r) | _ -> None) samples in
      let traced = List.filter_map (fun x -> match x.reading with Spans (d, t) -> Some (x.edge, d, t) | _ -> None) samples in
      let es = List.map fst untraced and regs = List.map snd untraced in
      let tables = List.map (fun (_, _, t) -> t) traced in
      let med_trace f = median_by f tables in
      let rung_self t = Ledger.self_ms_prefix t "controller.rung." in
      let ftran t = Ledger.total_ms t "revised.ftran" in
      let per_class f = median_by (fun e -> sum f (ffc_stats e)) es in
      let per_solver f = median_by (fun e -> sum f (solver_stats e)) es in
      let ffc = List.exists (fun e -> ffc_stats e <> []) es in
      let sim_spans = List.filter_map (fun b -> b.spans) blocks in
      let per_sim_interval f =
        sum (fun (_, t) -> f t) sim_spans /. float_of_int (List.length intervals)
      in
      let dropped = isum (fun (_, d, _) -> d) traced + isum fst sim_spans in
      let p50 l = median (List.map (fun e -> e.total_ms) l) in
      let untraced_p50 = p50 es and traced_p50 = p50 (List.map (fun (e, _, _) -> e) traced) in
      let reg_total f = sum f regs in
      let count p l = float_of_int (List.length (List.filter p l)) in
      [
        ("scenario.calibrate_ms", "ms", median_by (fun s -> s.calibrate_ms) setups);
        ( "ffc.build_ms", "ms",
          if ffc then per_class (fun st -> st.Ffc.build_ms) else med_trace rung_self );
        ("lp.solve_ms", "ms", median_by (fun r -> r.lp_ms) regs);
        ("lp.iterations", "count", median_by (fun r -> r.pivots) regs);
        ( "lp.phase1_iterations", "count",
          per_solver (fun st -> float_of_int st.Ffc_lp.Problem.phase1_iterations) );
        ( "lp.us_per_iteration", "us",
          1000. *. reg_total (fun r -> r.lp_ms) /. Float.max 1. (reg_total (fun r -> r.pivots)) );
        ("lp.rows", "count", per_class (fun st -> float_of_int st.Ffc.lp_rows));
        ("lp.vars", "count", per_class (fun st -> float_of_int st.Ffc.lp_vars));
        ( "lp.warm_accept_ratio", "ratio",
          float_of_int warm /. Float.max 1. (float_of_int (List.length lp_solves)) );
        ("lp.restarts", "count", reg_total (fun r -> r.restarts));
        ("lp.refactorisations", "count", median_by (fun r -> r.refactors) regs);
        ("lp.lu_updates", "count", median_by (fun r -> r.updates) regs);
        ("lp.factor_nnz", "count", median_by (fun r -> r.nnz) regs);
        ("lp.factor_fill", "count", median_by (fun r -> r.fill) regs);
        ( "lp.ftran_ms", "ms",
          if ffc then per_solver (fun st -> st.Ffc_lp.Problem.ftran_ms) else med_trace ftran );
        ("controller.step_ms", "ms", median_by (fun e -> e.step_ms) es);
        ("controller.audit_ms", "ms", median_by (fun e -> e.step_ms -. attempts_ms e) es);
        ( "controller.audit_cases", "count",
          median_by
            (fun e ->
              match e.step.Controller.audit with
              | Some a -> float_of_int a.Controller.audit_cases
              | None -> 0.)
            es );
        ( "controller.fallbacks", "count",
          float_of_int (isum (fun e -> e.step.Controller.fallbacks) es) );
        ("controller.escalations", "count", count (fun e -> e.step.Controller.escalated) es);
        ("southbound.imposed_mix_ms", "ms", median_by (fun e -> e.imposed_ms) es);
        ("southbound.push_ms", "ms", median_by (fun e -> e.push_ms) es);
        ("southbound.check_ms", "ms", median_by (fun e -> e.check_ms) es);
        ("southbound.retries", "count", float_of_int (isum (fun e -> e.report.Sb.retries) es));
        ( "southbound.stale_switches", "count",
          float_of_int (isum (fun e -> List.length e.report.Sb.stale) es) );
        ("interval.controller_down", "count", count (fun s -> s.Isim.controller_down) intervals);
        ("interval.gt_asserted", "count", count (fun s -> s.Isim.gt_data = Isim.Gt_ok) intervals);
        ( "trace.revised.solve.self_ms", "ms",
          med_trace (fun t -> Ledger.self_ms t "revised.solve") );
        ( "trace.revised.refactor.ms", "ms",
          med_trace (fun t -> Ledger.total_ms t "revised.refactor") );
        ("trace.revised.ftran.ms", "ms", med_trace ftran);
        ("trace.revised.btran.ms", "ms", med_trace (fun t -> Ledger.total_ms t "revised.btran"));
        ("trace.controller.rung.self_ms", "ms", med_trace rung_self);
        ( "trace.controller.step.self_ms", "ms",
          med_trace (fun t -> Ledger.self_ms t "controller.step") );
        ( "trace.southbound.push.ms", "ms",
          per_sim_interval (fun t -> Ledger.total_ms t "southbound.push") );
        ("trace.interval.self_ms", "ms", per_sim_interval (fun t -> Ledger.self_ms t "interval"));
        ("trace.overhead_pct", "%", 100. *. (traced_p50 -. untraced_p50) /. untraced_p50);
        ("trace.dropped_spans", "count", float_of_int dropped);
      ]
    end
  in
  let correct = violations = 0 && mismatch = None in
  print_endline (Ledger.result_line ~correct ~attempted ~failed metrics);
  if not correct then begin
    Option.iter (fun m -> Printf.eprintf "no-fork check failed: %s\n" m) mismatch;
    if violations > 0 then Printf.eprintf "%d guarantee violations\n" violations;
    exit 1
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME lnet-ffc | sim-reactive | paper-scale");
      ("--seed", Arg.Set_int seed, "N seed for demands and event streams");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 1 = per-layer metrics from a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
