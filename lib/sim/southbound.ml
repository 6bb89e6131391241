open Ffc_net
open Ffc_core
module Rng = Ffc_util.Rng
module Obs = Ffc_obs.Obs

let m_pushes = Obs.counter "southbound.pushes"
let m_attempts = Obs.counter "southbound.attempts"
let m_retries = Obs.counter "southbound.retries"
let m_retry_successes = Obs.counter "southbound.retry_successes"
let m_failures = Obs.counter "southbound.failures"
let m_timeouts = Obs.counter "southbound.timeouts"
let m_outages = Obs.counter "southbound.outages_started"
let m_stale = Obs.counter "southbound.stale_switch_intervals"
let m_apply_s = Obs.histogram "southbound.apply_s"
let m_attempts_per_apply = Obs.histogram "southbound.attempts_per_apply"

type retry_policy = {
  max_attempts : int;
  attempt_timeout_s : float;
  backoff_base_s : float;
  backoff_mult : float;
  backoff_max_s : float;
  jitter : float;
}

let default_retry =
  {
    max_attempts = 6;
    attempt_timeout_s = 10.;
    backoff_base_s = 1.;
    backoff_mult = 2.;
    backoff_max_s = 60.;
    jitter = 0.5;
  }

let retry_policy ?(max_attempts = default_retry.max_attempts)
    ?(attempt_timeout_s = default_retry.attempt_timeout_s)
    ?(backoff_base_s = default_retry.backoff_base_s)
    ?(backoff_mult = default_retry.backoff_mult)
    ?(backoff_max_s = default_retry.backoff_max_s) ?(jitter = default_retry.jitter) () =
  if max_attempts < 1 then invalid_arg "Southbound.retry_policy: max_attempts < 1";
  if attempt_timeout_s <= 0. then invalid_arg "Southbound.retry_policy: timeout <= 0";
  if jitter < 0. then invalid_arg "Southbound.retry_policy: negative jitter";
  { max_attempts; attempt_timeout_s; backoff_base_s; backoff_mult; backoff_max_s; jitter }

type t = {
  retry : retry_policy;
  model : Update_model.t;
  ingresses : Topology.switch array; (* ascending: slot i is ingress ingresses.(i) *)
  slot_of : int array; (* by switch id: its slot, or -1 if it sources no flow *)
  epochs : int array; (* by slot *)
  outage_until : float array; (* by slot; absolute simulation time *)
  installed : Te_types.allocation;
      (* row f: the configuration flow f's ingress switch runs. A switch's
         rows for other ingresses' flows are never read, so none are kept. *)
  mutable target_epoch : int;
  mutable now : float;
}

let create ?(retry = default_retry) model (input : Te_types.input) =
  let srcs = List.map (fun (f : Flow.t) -> f.Flow.src) input.Te_types.flows in
  let ingresses = Array.of_list (List.sort_uniq Int.compare srcs) in
  let slot_of = Array.make (Topology.num_switches input.Te_types.topo) (-1) in
  Array.iteri (fun i v -> slot_of.(v) <- i) ingresses;
  let n = Array.length ingresses in
  {
    retry;
    model;
    ingresses;
    slot_of;
    epochs = Array.make n 0;
    outage_until = Array.make n 0.;
    installed = Te_types.zero_allocation input;
    target_epoch = 0;
    now = 0.;
  }

let slot t v =
  if v < 0 || v >= Array.length t.slot_of || t.slot_of.(v) < 0 then
    invalid_arg "Southbound: unknown ingress switch";
  t.slot_of.(v)

let running t v =
  ignore (slot t v);
  t.installed

let epoch_lag t v = t.target_epoch - t.epochs.(slot t v)
let now_s t = t.now

let stale_switches t =
  let stale = ref [] in
  for i = Array.length t.ingresses - 1 downto 0 do
    if t.epochs.(i) < t.target_epoch then stale := t.ingresses.(i) :: !stale
  done;
  !stale

let force_outage t v ~until_s = t.outage_until.(slot t v) <- until_s

(* ------------------------------------------------------------------ *)
(* Push                                                                *)
(* ------------------------------------------------------------------ *)

type apply_event = { switch : Topology.switch; at_s : float; attempts : int }

type report = {
  epoch : int;
  pushed : int;
  applied : apply_event list;
  stale : Topology.switch list;
  max_epoch_lag : int;
  attempts : int;
  retries : int;
  retry_successes : int;
  failures : int;
  timeouts : int;
  outages_started : int;
}

(* A switch needs a push iff some flow it sources would change its installed
   split (weights) or gain rules it doesn't have. Rate limits live at the
   hosts, not the switch, so a pure [bf] change needs no switch update. *)
let splits_change t ~target id =
  let w_new = Te_types.weights target id in
  let w_old = Te_types.weights t.installed id in
  Array.exists2 (fun a b -> abs_float (a -. b) > 1e-6) w_new w_old

type timeline = { landed_at : float option; tries : int; failed : int; timed_out : int }

(* The retry timeline of one switch inside one interval: attempt, and on a
   failure (detected immediately) or a straggler (abandoned at the
   timeout) back off by min(max, base * mult^(n-1)) scaled by the jitter,
   until an attempt lands, the attempts run out or the interval ends. An
   attempt that completes past the interval edge has not landed: the
   interval ran on the old configuration throughout. The only draws of
   its own are the jitter, after each failed attempt. *)
let retry_timeline p rng ~interval_s attempt =
  let backoff n =
    let base = p.backoff_base_s *. (p.backoff_mult ** float_of_int (n - 1)) in
    min p.backoff_max_s base
    *. (1. +. (if p.jitter > 0. then p.jitter *. Rng.float rng 1. else 0.))
  in
  let rec go n tl failed timed_out =
    if n >= p.max_attempts || tl >= interval_s then
      { landed_at = None; tries = n; failed; timed_out }
    else
      let n = n + 1 in
      match attempt ~at_s:tl with
      | Update_model.Failed -> go n (tl +. backoff n) (failed + 1) timed_out
      | Update_model.Completed d when d > p.attempt_timeout_s ->
        go n (tl +. p.attempt_timeout_s +. backoff n) failed (timed_out + 1)
      | Update_model.Completed d when tl +. d > interval_s ->
        { landed_at = None; tries = n; failed; timed_out = timed_out + 1 }
      | Update_model.Completed d -> { landed_at = Some (tl +. d); tries = n; failed; timed_out }
  in
  go 0 0. 0 0

(* The report of an interval in which nothing was (yet) attempted: the
   standing epochs as they are. *)
let standing t =
  {
    epoch = t.target_epoch;
    pushed = 0;
    applied = [];
    stale = stale_switches t;
    max_epoch_lag = Array.fold_left (fun acc e -> max acc (t.target_epoch - e)) 0 t.epochs;
    attempts = 0;
    retries = 0;
    retry_successes = 0;
    failures = 0;
    timeouts = 0;
    outages_started = 0;
  }

(* Coasting: the network clock advances even when no push happens — a
   crashed controller cannot stop time, and switch outage deadlines are
   absolute engine times. *)
let hold t ~interval_s =
  t.now <- t.now +. interval_s;
  standing t

let push t rng (input : Te_types.input) ~target ~interval_s =
  Obs.with_span "southbound.push" @@ fun () ->
  t.target_epoch <- t.target_epoch + 1;
  let epoch = t.target_epoch in
  let pushed = ref 0 in
  let applied = ref [] in
  let attempts = ref 0 in
  let retries = ref 0 in
  let retry_successes = ref 0 in
  let failures = ref 0 in
  let timeouts = ref 0 in
  let outages_started = ref 0 in
  (* Pass 1: the ingresses whose splits change stay pending until their
     push lands; every other one runs the target at once. *)
  let pending = Array.make (Array.length t.ingresses) false in
  List.iter
    (fun (f : Flow.t) ->
      let i = t.slot_of.(f.Flow.src) in
      if not pending.(i) then pending.(i) <- splits_change t ~target f.Flow.id)
    input.Te_types.flows;
  Array.iteri
    (fun i v ->
      if pending.(i) then begin
        incr pushed;
        (* All pushes start at the interval edge and run concurrently, each
           on its own retry timeline, drawn in ingress order. An attempt
           during a control-plane outage fails without a draw; a fresh
           failure may be the onset of one, and while it lasts every retry
           fails (correlated). *)
        let attempt ~at_s =
          let now = t.now +. at_s in
          if now < t.outage_until.(i) then Update_model.Failed
          else
            match Update_model.attempt_update rng t.model with
            | Update_model.Failed ->
              if Rng.bernoulli rng t.model.Update_model.outage_prob then begin
                incr outages_started;
                t.outage_until.(i) <- now +. t.model.Update_model.outage_duration_s rng;
                Obs.event ~level:Obs.Debug "southbound.outage_started"
                  [
                    ("switch", Obs.Int v);
                    ("at_s", Obs.Float now);
                    ("until_s", Obs.Float t.outage_until.(i));
                  ]
              end;
              Update_model.Failed
            | completed -> completed
        in
        let tl = retry_timeline t.retry rng ~interval_s attempt in
        attempts := !attempts + tl.tries;
        retries := !retries + max 0 (tl.tries - 1);
        failures := !failures + tl.failed;
        timeouts := !timeouts + tl.timed_out;
        match tl.landed_at with
        | None -> ()
        | Some at_s ->
          pending.(i) <- false;
          applied := { switch = v; at_s; attempts = tl.tries } :: !applied;
          if tl.tries > 1 then incr retry_successes
      end)
    t.ingresses;
  (* Pass 2: each ingress that runs the target installs its own flows' rows
     at this epoch. *)
  List.iter
    (fun (f : Flow.t) ->
      if not pending.(t.slot_of.(f.Flow.src)) then begin
        let id = f.Flow.id in
        t.installed.Te_types.bf.(id) <- target.Te_types.bf.(id);
        t.installed.Te_types.af.(id) <- target.Te_types.af.(id)
      end)
    input.Te_types.flows;
  Array.iteri (fun i p -> if not p then t.epochs.(i) <- epoch) pending;
  t.now <- t.now +. interval_s;
  let report =
    {
      (standing t) with
      pushed = !pushed;
      applied = List.rev !applied;
      attempts = !attempts;
      retries = !retries;
      retry_successes = !retry_successes;
      failures = !failures;
      timeouts = !timeouts;
      outages_started = !outages_started;
    }
  in
  if Obs.enabled () then begin
    Obs.incr m_pushes;
    Obs.add m_attempts (float_of_int !attempts);
    Obs.add m_retries (float_of_int !retries);
    Obs.add m_retry_successes (float_of_int !retry_successes);
    Obs.add m_failures (float_of_int !failures);
    Obs.add m_timeouts (float_of_int !timeouts);
    Obs.add m_outages (float_of_int !outages_started);
    Obs.add m_stale (float_of_int (List.length report.stale));
    (* Per-switch retry timelines: when each apply landed inside the
       interval and how many attempts it took. *)
    List.iter
      (fun a ->
        Obs.observe m_apply_s a.at_s;
        Obs.observe m_attempts_per_apply (float_of_int a.attempts))
      report.applied
  end;
  report

(* ------------------------------------------------------------------ *)
(* Installed view                                                      *)
(* ------------------------------------------------------------------ *)

(* The load the network actually imposes: host rate limiters enforce
   [rates] (they always update), while each ingress switch splits by its
   installed weights. This — not the raw installed rows, where rows from
   different epochs mix old rates with old splits — is the honest [prev]
   for the controller: its per-link loads are the real current loads, so
   the formulation's already-overloaded escape (§4.5) and near-zero-load
   ingress skip (§6) fire exactly when the network is actually in those
   states, and its weights are each switch's installed splits, which is
   what the control-plane constraints protect against. *)
let imposed_mix t (input : Te_types.input) ~rates =
  let n = Array.length input.Te_types.demands in
  let bf = Array.copy rates in
  let af = Array.make n [||] in
  List.iter
    (fun (f : Flow.t) ->
      let id = f.Flow.id in
      let w = Te_types.weights t.installed id in
      (* A flow currently granted zero rate still has its splits installed
         at the switch; a later target that re-grants it must protect
         against those weights. Keep them visible through an epsilon rate
         far below every constraint tolerance (1e-6). *)
      let r = max rates.(id) 1e-9 in
      af.(id) <- Array.map (fun wi -> wi *. r) w)
    input.Te_types.flows;
  { Te_types.bf; af }

(* ------------------------------------------------------------------ *)
(* kc-guarantee checker                                                *)
(* ------------------------------------------------------------------ *)

type violation = {
  link : Topology.link;
  load : float;
  capacity : float;
  stale_set : Topology.switch list;
}

type verdict = Ok_checked | Beyond_budget of Topology.switch list | Violation of violation

(* The paper's configuration-fault semantics (§2.2) are Enumerate's
   control-plane case (Eqn 5): a stale ingress splits the NEW rate [b_f]
   by the weights it has installed — host rate limiters update even when
   the switch's splits don't. *)
let check_guarantee t ?grandfathered (input : Te_types.input) ~target ~kc =
  let stale = stale_switches t in
  if List.length stale > kc then Beyond_budget stale
  else
    let loads =
      Enumerate.stuck_loads input ~old_alloc:t.installed ~new_alloc:target
        ~stuck:stale
    in
    (* §4.5: a link already overloaded before this target was computed
       (e.g. by beyond-budget staleness in an earlier epoch) is granted
       unprotected moves by the formulation — the guarantee makes no
       promise there until the overload clears. *)
    match Enumerate.first_overloaded ?skip:grandfathered input loads with
    | None -> Ok_checked
    | Some link ->
      Violation
        {
          link;
          load = loads.(link.Topology.id);
          capacity = link.Topology.capacity;
          stale_set = stale;
        }

let pp_verdict fmt = function
  | Ok_checked -> Format.fprintf fmt "ok"
  | Beyond_budget stale ->
    Format.fprintf fmt "beyond-budget (%d stale)" (List.length stale)
  | Violation v ->
    Format.fprintf fmt "VIOLATION link=%d->%d load=%.3f cap=%.3f stale=[%s]"
      v.link.Topology.src v.link.Topology.dst v.load v.capacity
      (String.concat ";" (List.map string_of_int v.stale_set))
