open Ffc_net
module Rng = Ffc_util.Rng

type kind = Link_down of int list | Switch_down of Topology.switch

type fault = { time_s : float; kind : kind }

type t = {
  link_fail_per_interval : float;
  switch_fail_per_interval : float;
  srlgs : int list list;
  srlg_fail_per_interval : float;
  burst_prob : float;
  burst_factor : float;
}

let independent ~link_fail_per_interval ~switch_fail_per_interval =
  {
    link_fail_per_interval;
    switch_fail_per_interval;
    srlgs = [];
    srlg_fail_per_interval = 0.;
    burst_prob = 0.;
    burst_factor = 1.;
  }

let lnet_like topo =
  let nf = max 1 (List.length (Topology.fibres topo)) in
  let ns = max 1 (Topology.num_switches topo) in
  (* One link failure per 6 intervals network-wide; switch failures 20x
     rarer network-wide. *)
  independent
    ~link_fail_per_interval:(1. /. (6. *. float_of_int nf))
    ~switch_fail_per_interval:(1. /. (120. *. float_of_int ns))

let none = independent ~link_fail_per_interval:0. ~switch_fail_per_interval:0.

let correlated ?srlgs ?srlg_fail_per_interval ?burst_prob ?burst_factor t =
  let t =
    match srlgs with
    | None -> t
    | Some groups ->
      if List.exists (fun g -> g = []) groups then
        invalid_arg "Fault_model.correlated: empty shared-risk group";
      { t with srlgs = groups }
  in
  let t =
    match srlg_fail_per_interval with
    | None -> t
    | Some p ->
      if p < 0. || p > 1. then
        invalid_arg "Fault_model.correlated: srlg_fail_per_interval outside [0, 1]";
      { t with srlg_fail_per_interval = p }
  in
  let t =
    match burst_prob with
    | None -> t
    | Some p ->
      if p < 0. || p > 1. then
        invalid_arg "Fault_model.correlated: burst_prob outside [0, 1]";
      { t with burst_prob = p }
  in
  match burst_factor with
  | None -> t
  | Some f ->
    if f < 1. then invalid_arg "Fault_model.correlated: burst_factor < 1";
    { t with burst_factor = f }

(* Random shared-risk groups for experiments: each group bundles [width]
   distinct fibres (all their directed link ids fail together — a shared
   conduit cut). *)
let random_srlgs rng topo ~groups ~width =
  let all = Array.of_list (Topology.fibres topo) in
  List.init (max 0 groups) (fun _ ->
      Rng.sample_without_replacement rng (max 1 width) all |> List.concat)
  |> List.filter (fun g -> g <> [])

(* A fibre failure whose links all touch an already-failed switch adds
   nothing: the switch failure took those links down with it. Left in the
   timeline it would double-count toward the protection edge in
   Interval_sim's reaction rule. Walks the (time-sorted) list, dropping
   [Link_down] faults whose every link has an endpoint at a switch already
   down at that time. *)
let dedup topo faults =
  let down = ref [] in
  (* An id outside the topology names no endpoints: its fault stays. *)
  let dead id =
    id >= 0
    && id < Topology.num_links topo
    &&
    let l = Topology.link topo id in
    List.mem l.Topology.src !down || List.mem l.Topology.dst !down
  in
  List.filter
    (fun f ->
      match f.kind with
      | Switch_down v ->
        down := v :: !down;
        true
      | Link_down ids -> ids = [] || not (List.for_all dead ids))
    faults

let by_time = List.sort (fun a b -> Float.compare a.time_s b.time_s)

let sample rng ~interval_s topo t =
  (* Stream discipline: every draw below is conditional on the
     corresponding feature being configured, so a model without bursts or
     SRLGs consumes exactly the same stream as before those features
     existed — fault timelines from old seeds are unchanged. The burst
     draw comes first because it scales the per-element probabilities. *)
  let burst = t.burst_prob > 0. && Rng.bernoulli rng t.burst_prob in
  let scale p = if burst then min 1. (p *. t.burst_factor) else p in
  let faults = ref [] in
  List.iter
    (fun fibre ->
      if Rng.bernoulli rng (scale t.link_fail_per_interval) then
        faults := { time_s = Rng.float rng interval_s; kind = Link_down fibre } :: !faults)
    (Topology.fibres topo);
  List.iter
    (fun v ->
      if Rng.bernoulli rng (scale t.switch_fail_per_interval) then
        faults := { time_s = Rng.float rng interval_s; kind = Switch_down v } :: !faults)
    (Topology.switches topo);
  (* Shared-risk groups: one draw per group, all member links down at the
     same instant (the whole conduit is cut at once). *)
  List.iter
    (fun group ->
      if Rng.bernoulli rng (scale t.srlg_fail_per_interval) then
        faults := { time_s = Rng.float rng interval_s; kind = Link_down group } :: !faults)
    t.srlgs;
  dedup topo (by_time !faults)

let forced_link_failures rng ~interval_s topo n =
  let all = Array.of_list (Topology.fibres topo) in
  Rng.sample_without_replacement rng n all
  |> List.map (fun fibre -> { time_s = Rng.float rng interval_s; kind = Link_down fibre })
  |> by_time

let forced_switch_failures rng ~interval_s topo n =
  let all = Array.of_list (Topology.switches topo) in
  Rng.sample_without_replacement rng n all
  |> List.map (fun v -> { time_s = Rng.float rng interval_s; kind = Switch_down v })
  |> by_time
