open Ffc_net
module Rng = Ffc_util.Rng

(* The sensing plane between the network and the controller. Ground truth
   stays in {!Interval_sim} (loss accounting, guarantee auditing); what the
   controller gets to see passes through here: per-flow demand reports that
   are noisy and occasionally dropped, fault notifications that arrive
   late or not at all, and keepalives that can miss. Everything draws from
   a dedicated RNG stream, and — like {!Fault_model.correlated} — every
   draw below is conditional on the corresponding imperfection being
   configured, so a neutral channel consumes no randomness and the
   perfect-sensing simulator is reproduced bit for bit. *)

type config = {
  loss : float;
  delay : int;
  demand_noise : float;
}

let neutral = { loss = 0.; delay = 0; demand_noise = 0. }

let config ?(loss = 0.) ?(delay = 0) ?(demand_noise = 0.) () =
  if loss < 0. || loss >= 1. then invalid_arg "Telemetry.config: loss outside [0, 1)";
  if delay < 0 then invalid_arg "Telemetry.config: negative delay";
  if demand_noise < 0. then invalid_arg "Telemetry.config: negative demand_noise";
  { loss; delay; demand_noise }

(* A fault notification in flight: the elements it names become suspect on
   the interval edge it is delivered at. *)
type pending = {
  deliver_at : int;
  p_fibres : int list list;  (* directed-link-id groups, one per fibre *)
  p_switches : Topology.switch list;
}

type t = {
  cfg : config;
  mutable queue : pending list;
  mutable suspect_fibres : int list list;
  mutable suspect_switches : Topology.switch list;
}

let create cfg = { cfg; queue = []; suspect_fibres = []; suspect_switches = [] }

let suspect_counts t = (List.length t.suspect_fibres, List.length t.suspect_switches)

(* Keepalives are cheap and repeated within an interval, so one lost packet
   does not raise suspicion — an element goes suspect only when consecutive
   keepalives are lost, which under independent losses happens with
   probability loss^2 per interval. *)
let keepalive_miss_prob c = c.loss *. c.loss

let add_fibre t ids =
  if not (List.exists (fun g -> g = ids) t.suspect_fibres) then
    t.suspect_fibres <- ids :: t.suspect_fibres

let add_switch t v =
  if not (List.mem v t.suspect_switches) then t.suspect_switches <- v :: t.suspect_switches

(* Interval-edge sensing round, called before the controller's solve:
   deliver the fault notifications due now (their elements cannot yet be
   confirmed repaired, so they are charged as suspect for this interval)
   and run the keepalive round. Suspicion lasts exactly one interval — the
   next round starts from scratch. Draw order is fixed: fibres first, then
   switches, both in topology order. *)
let begin_interval t rng ~interval topo =
  t.suspect_fibres <- [];
  t.suspect_switches <- [];
  let due, later = List.partition (fun p -> p.deliver_at <= interval) t.queue in
  t.queue <- later;
  List.iter
    (fun p ->
      List.iter (add_fibre t) p.p_fibres;
      List.iter (add_switch t) p.p_switches)
    due;
  if t.cfg.loss > 0. then begin
    let miss = keepalive_miss_prob t.cfg in
    List.iter
      (fun fibre -> if Rng.bernoulli rng miss then add_fibre t fibre)
      (Topology.fibres topo);
    List.iter
      (fun v -> if Rng.bernoulli rng miss then add_switch t v)
      (Topology.switches topo)
  end

(* Per-flow demand reports for this interval: each is dropped with
   probability [loss], and a delivered report is the true demand under
   multiplicative gaussian noise, clamped non-negative. *)
let observe_demands t rng truth =
  Array.map
    (fun d ->
      if t.cfg.loss > 0. && Rng.bernoulli rng t.cfg.loss then None
      else if t.cfg.demand_noise > 0. then
        Some (max 0. (d *. (1. +. Rng.gaussian rng ~mu:0. ~sigma:t.cfg.demand_noise)))
      else Some d)
    truth

(* End-of-interval fault reporting. Instantaneous notifications (delay 0)
   are consumed by the in-interval reaction machinery and leave no residue;
   a delayed notification is stale news by the time it lands — the element
   was repaired at the interval boundary, but the controller cannot know
   that yet — so it is queued to raise suspicion on arrival. Each
   notification is independently lost with probability [loss]. *)
let note_faults t rng ~interval faults =
  if t.cfg.delay > 0 then
    List.iter
      (fun (f : Fault_model.fault) ->
        let lost = t.cfg.loss > 0. && Rng.bernoulli rng t.cfg.loss in
        if not lost then begin
          let p_fibres, p_switches =
            match f.Fault_model.kind with
            | Fault_model.Link_down ids -> ([ ids ], [])
            | Fault_model.Switch_down v -> ([], [ v ])
          in
          t.queue <- { deliver_at = interval + t.cfg.delay; p_fibres; p_switches } :: t.queue
        end)
      faults

(* Full-view reconciliation: the controller resynchronised against the
   real network (e.g. on crash recovery), so in-flight stale news and
   current suspicions are void. *)
let reconcile t =
  t.queue <- [];
  t.suspect_fibres <- [];
  t.suspect_switches <- []
