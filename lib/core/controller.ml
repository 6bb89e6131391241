open Ffc_lp
module Rng = Ffc_util.Rng
module Clock = Ffc_util.Clock
module Obs = Ffc_obs.Obs

let m_steps = Obs.counter "controller.steps"
let m_fallbacks = Obs.counter "controller.fallbacks"
let m_deadline_hits = Obs.counter "controller.deadline_hits"
let m_escalations = Obs.counter "controller.escalations"
let m_step_ms = Obs.histogram "controller.step_ms"
let m_rung_ms = Obs.histogram "controller.rung_ms"

type mode = Basic | Ffc_ladder of (int -> Ffc.config)

type config = {
  mode : mode;
  deadline_ms : float option;
  max_iterations : int option;
  audit_budget : int;
  audit_seed : int;
}

let config ?deadline_ms ?max_iterations ?(audit_budget = 8) ?(audit_seed = 0x5eed) mode =
  if audit_budget < 0 then invalid_arg "Controller.config: negative audit_budget";
  { mode; deadline_ms; max_iterations; audit_budget; audit_seed }

type rung_kind = Full_protection | Reduced of int | Basic_te | Last_good

let rung_label = function
  | Full_protection -> "full"
  | Reduced s -> Printf.sprintf "reduced-%d" s
  | Basic_te -> "basic-te"
  | Last_good -> "last-good"

(* Static span names: computed before the tracing flag test, so they must
   not allocate. *)
let rung_span_name = function
  | Full_protection -> "controller.rung.full"
  | Reduced _ -> "controller.rung.reduced"
  | Basic_te -> "controller.rung.basic-te"
  | Last_good -> "controller.rung.last-good"

type attempt = {
  rung : int;
  kind : rung_kind;
  protections : (int * Te_types.protection) list;
  outcome : (unit, Te_types.solve_failure) result;
  solve_ms : float;
  budget_ms : float option;
}

type audit_report = {
  audit_cases : int;
  audit_violations : int;
  first_violation : string option;
}

type step = {
  alloc : Te_types.allocation;
  rung : int;
  kind : rung_kind;
  label : string;
  attempts : attempt list;
  fallbacks : int;
  deadline_hits : int;
  stale : bool;
  escalated : bool;
  per_class_stats : (int * Ffc.stats) list;
  audit : audit_report option;
}

type t = {
  cfg : config;
  audit_rng : Rng.t;
  (* Warm-start bases are cached per (rung index, priority class): each rung
     re-solves from its own previous optimum, the closest start for its
     protection level. Class [-1] holds the basic-TE rung's single joint
     LP. *)
  mutable bases : ((int * int) * Problem.basis) list;
  mutable basic_lp : Basic_te.lp option;
      (* the basic-TE rung's LP, rebuilt only for another topology or flow
         list *)
}

let create cfg = { cfg; audit_rng = Rng.create cfg.audit_seed; bases = []; basic_lp = None }

(* The audit stream continues; the bases are dropped and the basic-TE LP
   is kept (see the mli). *)
let restart t = { t with bases = [] }

let set_basis t ~rung ~cls basis =
  t.bases <- ((rung, cls), basis) :: List.remove_assoc (rung, cls) t.bases

let get_basis t ~rung ~cls = List.assoc_opt (rung, cls) t.bases

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

(* One step down: shed link protection first (most constraints per unit in
   the sorting-network encoding), then switch, then control-plane. Applied
   uniformly to every class, this preserves the componentwise
   non-increasing-with-priority invariant Priority_te enforces. *)
let degrade_once (p : Te_types.protection) =
  if p.Te_types.ke > 0 then { p with Te_types.ke = p.Te_types.ke - 1 }
  else if p.Te_types.kv > 0 then { p with Te_types.kv = p.Te_types.kv - 1 }
  else if p.Te_types.kc > 0 then { p with Te_types.kc = p.Te_types.kc - 1 }
  else p

let rec degrade steps p = if steps <= 0 then p else degrade (steps - 1) (degrade_once p)

let protection_total (p : Te_types.protection) = p.Te_types.kc + p.Te_types.ke + p.Te_types.kv

(* The ladder for this input: FFC rungs strictly above zero protection (a
   fully-degraded cascade would duplicate the basic-TE rung), then basic TE,
   then reuse-last-good. *)
let ladder t (input : Te_types.input) =
  match t.cfg.mode with
  | Basic -> [ Basic_te; Last_good ]
  | Ffc_ladder config_of ->
    let classes = Priority_te.priorities input in
    let max_total =
      List.fold_left
        (fun acc p -> max acc (protection_total (config_of p).Ffc.protection))
        0 classes
    in
    let reduced = List.init (max 0 (max_total - 1)) (fun i -> Reduced (i + 1)) in
    (Full_protection :: reduced) @ [ Basic_te; Last_good ]

(* Staleness escalation: when the southbound layer reports more stale
   ingresses than the configured kc covers, raise kc to the observed stale
   count for every class that asked for control-plane protection at all, so
   the next target is provably safe against the switches that are actually
   stuck. Classes with kc = 0 opted out of control-plane protection and are
   left alone; since [max _ stale] is monotone, the componentwise
   non-increasing-with-priority invariant survives. *)
let escalate_protection ~stale ~max_kc (p : Te_types.protection) =
  if stale <= 0 || p.Te_types.kc = 0 then p
  else { p with Te_types.kc = min max_kc (max p.Te_types.kc stale) }

let protections_at t (input : Te_types.input) ~boost kind =
  match (t.cfg.mode, kind) with
  | Ffc_ladder config_of, (Full_protection | Reduced _) ->
    let s = match kind with Reduced s -> s | _ -> 0 in
    List.map
      (fun p -> (p, boost (degrade s (config_of p).Ffc.protection)))
      (Priority_te.priorities input)
  | _ -> []

(* Previous allocation rescaled to current demands: cap each flow's rate at
   its demand and shrink the tunnel allocations proportionally, so no link
   load increases — a capacity-feasible stale fallback, never a silent one. *)
let rescale_last_good (input : Te_types.input) (prev : Te_types.allocation) =
  let bf =
    Array.mapi (fun f b -> max 0. (min b input.Te_types.demands.(f))) prev.Te_types.bf
  in
  let af =
    Array.mapi
      (fun f row ->
        let ob = prev.Te_types.bf.(f) in
        if ob <= 1e-12 then Array.map (fun _ -> 0.) row
        else
          let s = bf.(f) /. ob in
          Array.map (fun a -> a *. s) row)
      prev.Te_types.af
  in
  { Te_types.bf; af }

(* ------------------------------------------------------------------ *)
(* Sampled guarantee auditor                                           *)
(* ------------------------------------------------------------------ *)

(* After an accepted solve, verify a randomized budget-bounded subset of the
   Enumerate fault cases (the exhaustive check is exponential). Soundness of
   the per-class restriction: class p's LP is solved against capacity minus
   higher-class reservations, so class p's own loads alone are guaranteed
   under full capacity at its protection level — checking the class-restricted
   input against Enumerate's per-case verifiers cannot false-positive.
   The no-fault case is always audited first so gross corruption (a plain
   capacity violation) is caught even with budget 1. *)
let audit_class rng ~budget (input : Te_types.input) ~prev ~alloc
    (prot : Te_types.protection) =
  let violations = ref 0 and cases = ref 0 and first = ref None in
  let record = function
    | Ok () -> incr cases
    | Error msg ->
      incr cases;
      incr violations;
      if !first = None then first := Some msg
  in
  let links, switches = Enumerate.data_fault_universe input in
  let links = Array.of_list links and switches = Array.of_list switches in
  let data_case n_links n_switches =
    let fl = Rng.sample_without_replacement rng n_links links in
    let fs = Rng.sample_without_replacement rng n_switches switches in
    record (Enumerate.check_data_case input alloc ~failed_links:fl ~failed_switches:fs)
  in
  data_case 0 0;
  let have_data = prot.Te_types.ke > 0 || prot.Te_types.kv > 0 in
  let have_control = prot.Te_types.kc > 0 in
  (* Built on the first control case drawn: an audit at kc = 0 (a class
     without control-plane protection, basic TE, last-good) draws none. *)
  let ingresses = lazy (Array.of_list (Enumerate.control_fault_universe input)) in
  let control_case () =
    let n = 1 + Rng.int rng prot.Te_types.kc in
    let stuck = Rng.sample_without_replacement rng n (Lazy.force ingresses) in
    record (Enumerate.check_control_case input ~old_alloc:prev ~new_alloc:alloc ~stuck)
  in
  let remaining = ref (max 0 (budget - 1)) in
  while !remaining > 0 do
    (* Alternate planes when both are protected; sizes are uniform in
       [1, k] so the extreme (full-k) cases are sampled too. *)
    let pick_control =
      match (have_data, have_control) with
      | true, true -> !remaining land 1 = 0
      | false, true -> true
      | true, false -> false
      | false, false -> false
    in
    if pick_control then control_case ()
    else if have_data then begin
      (* Never exceed (ke, kv), and never degenerate to the already-checked
         empty case: at least one failed element is drawn. *)
      let nl = if prot.Te_types.ke > 0 then 1 + Rng.int rng prot.Te_types.ke else 0 in
      let nv =
        if prot.Te_types.kv > 0 then
          if nl = 0 then 1 + Rng.int rng prot.Te_types.kv
          else Rng.int rng (prot.Te_types.kv + 1)
        else 0
      in
      data_case nl nv
    end
    else remaining := 1 (* unprotected class: the no-fault case was enough *);
    decr remaining
  done;
  { audit_cases = !cases; audit_violations = !violations; first_violation = !first }

let merge_audits a b =
  {
    audit_cases = a.audit_cases + b.audit_cases;
    audit_violations = a.audit_violations + b.audit_violations;
    first_violation =
      (match a.first_violation with Some _ as s -> s | None -> b.first_violation);
  }

let class_input (input : Te_types.input) prio =
  {
    input with
    Te_types.flows =
      List.filter
        (fun (f : Ffc_net.Flow.t) -> f.Ffc_net.Flow.priority = prio)
        input.Te_types.flows;
  }

let audit_step t (input : Te_types.input) ~prev ~alloc ~kind ~protections =
  if t.cfg.audit_budget = 0 then None
  else
    match (kind, protections) with
    | (Full_protection | Reduced _), _ :: _ ->
      let per_class = max 1 (t.cfg.audit_budget / List.length protections) in
      List.fold_left
        (fun acc (prio, prot) ->
          let r =
            audit_class t.audit_rng ~budget:per_class (class_input input prio) ~prev ~alloc
              prot
          in
          match acc with None -> Some r | Some a -> Some (merge_audits a r))
        None protections
    | _ ->
      (* Basic TE / last-good carry no fault guarantee: audit the no-fault
         capacity + deliverability case so a corrupt or overscaled
         allocation is still flagged every interval. *)
      Some (audit_class t.audit_rng ~budget:1 input ~prev ~alloc Te_types.no_protection)

(* ------------------------------------------------------------------ *)
(* The step driver                                                     *)
(* ------------------------------------------------------------------ *)

type attempt_result =
  | Accepted of Te_types.allocation * (int * Ffc.stats) list
  | Failed of Te_types.solve_failure

(* Every LP rung solves with presolve off, so its warm-start bases stay
   applicable. An accepted rung commits its own bases; a failed one leaves
   the cache as it found it. *)
let try_rung t (input : Te_types.input) ~prev ~rung ~boost ~use_bases kind =
  match kind with
  | Last_good -> Accepted (rescale_last_good input prev, [])
  | Basic_te -> (
    let started_ms = Clock.now_ms () in
    let lp =
      match t.basic_lp with
      | Some lp when Basic_te.built_for lp input -> lp
      | _ ->
        let lp = Basic_te.lp input in
        t.basic_lp <- Some lp;
        lp
    in
    match
      Basic_te.solve_lp ~started_ms ~presolve:false ?max_iterations:t.cfg.max_iterations
        ?deadline_ms:t.cfg.deadline_ms ?warm_start:(get_basis t ~rung ~cls:(-1)) lp input
    with
    | Ok (alloc, basis, stats) ->
      set_basis t ~rung ~cls:(-1) basis;
      Accepted (alloc, [ (-1, stats) ])
    | Error f -> Failed f)
  | Full_protection | Reduced _ -> (
    let config_of =
      match t.cfg.mode with
      | Ffc_ladder config_of -> config_of
      | Basic -> invalid_arg "Controller: FFC rung in basic mode"
    in
    let s = match kind with Reduced s -> s | _ -> 0 in
    let config_of' prio =
      let c = config_of prio in
      { c with Ffc.protection = boost (degrade s c.Ffc.protection) }
    in
    (* Escalated steps bypass the cache: they neither read it nor refresh
       it, so the next normal step still starts from the last normal
       optimum rather than from one planned for a raised kc. *)
    let warm_starts =
      if not use_bases then []
      else
        List.filter_map
          (fun prio -> Option.map (fun b -> (prio, b)) (get_basis t ~rung ~cls:prio))
          (Priority_te.priorities input)
    in
    match
      Priority_te.solve_warm_checked ~config_of:config_of' ~prev
        ~presolve:false ?max_iterations:t.cfg.max_iterations
        ?deadline_ms:t.cfg.deadline_ms ~warm_starts input
    with
    | Ok (alloc, per_class) ->
      if use_bases then
        List.iter (fun (prio, _, basis) -> set_basis t ~rung ~cls:prio basis) per_class;
      Accepted (alloc, List.map (fun (prio, st, _) -> (prio, st)) per_class)
    | Error (_prio, f) -> Failed f)

(* The per-class protection the accepted (last) attempt guarantees; empty
   on the basic-TE and last-good rungs, which guarantee nothing under
   faults. *)
let accepted_protections attempts =
  match List.rev attempts with (a : attempt) :: _ -> a.protections | [] -> []

let step t ?(stale = 0) ?audit_input (input : Te_types.input)
    ~(prev : Te_types.allocation) =
  let rungs = ladder t input in
  (* The step escalates when the reported stale-ingress count exceeds what
     the weakest kc-protected class is configured to tolerate. *)
  let configured_min_kc =
    match t.cfg.mode with
    | Basic -> 0
    | Ffc_ladder config_of ->
      let m =
        List.fold_left
          (fun acc p ->
            let kc = (config_of p).Ffc.protection.Te_types.kc in
            if kc > 0 then min acc kc else acc)
          max_int (Priority_te.priorities input)
      in
      if m = max_int then 0 else m
  in
  let escalated = configured_min_kc > 0 && stale > configured_min_kc in
  let boost =
    if escalated then
      let max_kc = List.length (Enumerate.control_fault_universe input) in
      escalate_protection ~stale ~max_kc
    else fun p -> p
  in
  let eval rung kind =
    let protections = protections_at t input ~boost kind in
    let t0 = Clock.now_ms () in
    let result =
      Obs.with_span (rung_span_name kind) (fun () ->
          try_rung t input ~prev ~rung ~boost ~use_bases:(not escalated) kind)
    in
    let solve_ms = Clock.since_ms t0 in
    Obs.observe m_rung_ms solve_ms;
    let outcome = match result with Accepted _ -> Ok () | Failed f -> Error f in
    ( { rung; kind; protections; outcome; solve_ms; budget_ms = t.cfg.deadline_ms },
      result )
  in
  (* Telemetry counters, sampled audit and the step record. [attempts] is
     in rung order and ends at the accepted rung. *)
  let finish ~attempts ~rung ~kind ~alloc ~per_class_stats =
    let protections = accepted_protections attempts in
    let deadline_hits =
      List.fold_left
        (fun n (a : attempt) ->
          match a.outcome with
          | Error f when f.Te_types.kind = `Deadline -> n + 1
          | _ -> n)
        0 attempts
    in
    let stale = kind = Last_good in
    (* The sampled auditor checks the accepted allocation against the
       auditing view — ground truth when the controller planned on an
       estimated one. The Enumerate case checkers charge planned
       allocations against real capacities, so an estimation error in
       the demands cannot silently weaken what is verified here. *)
    let audit =
      audit_step t (Option.value audit_input ~default:input) ~prev ~alloc ~kind
        ~protections
    in
    let fallbacks = List.length attempts - 1 in
    if Obs.enabled () then begin
      Obs.incr m_steps;
      Obs.add m_fallbacks (float_of_int fallbacks);
      Obs.add m_deadline_hits (float_of_int deadline_hits);
      if escalated then Obs.incr m_escalations;
      Obs.observe m_step_ms
        (List.fold_left (fun acc (a : attempt) -> acc +. a.solve_ms) 0. attempts)
    end;
    {
      alloc;
      rung;
      kind;
      label = rung_label kind;
      attempts;
      fallbacks;
      deadline_hits;
      stale;
      escalated;
      per_class_stats;
      audit;
    }
  in
  let rec descend rung attempts = function
    | [] -> invalid_arg "Controller.step: ladder exhausted (missing last-good rung)"
    | kind :: rest -> (
      let attempt, result = eval rung kind in
      let attempts = attempt :: attempts in
      match result with
      | Failed _ -> descend (rung + 1) attempts rest
      | Accepted (alloc, per_class_stats) ->
        finish ~attempts:(List.rev attempts) ~rung ~kind ~alloc ~per_class_stats)
  in
  Obs.with_span "controller.step" (fun () -> descend 0 [] rungs)

(* Protection edge actually guaranteed by this step (minimum ke/kv across
   classes): the reaction rule must use the degraded level, not the
   requested one. Basic TE and last-good guarantee nothing: edge (0, 0). *)
let step_edge step =
  match accepted_protections step.attempts with
  | [] -> (0, 0)
  | l ->
    List.fold_left
      (fun (ke, kv) (_, (p : Te_types.protection)) ->
        (min ke p.Te_types.ke, min kv p.Te_types.kv))
      (max_int, max_int) l

(* Control-plane edge: the number of stale ingresses the accepted allocation
   provably tolerates network-wide (minimum kc across classes — a class at
   kc = 0 caps the whole network's configuration-fault guarantee). *)
let step_kc step =
  match accepted_protections step.attempts with
  | [] -> 0
  | l -> List.fold_left (fun kc (_, (p : Te_types.protection)) -> min kc p.Te_types.kc) max_int l
