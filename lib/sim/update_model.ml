module Rng = Ffc_util.Rng

type t = {
  name : string;
  rpc_s : Rng.t -> float;
  per_rule_s : Rng.t -> float;
  switch_factor : Rng.t -> float;
  rules_per_update : int;
  config_fail_prob : float;
  outage_prob : float;
  outage_duration_s : Rng.t -> float;
}

(* Lognormal by median and shape, clamped to a maximum (measured
   distributions have bounded support in the paper's figures). The
   sampler takes [log median] once; [min max_s x] is written out, without
   the polymorphic comparison's boxing. *)
let lognormal_clamped ~median ~sigma ~max_s =
  let mu = log median in
  fun rng ->
    let x = Rng.lognormal rng ~mu ~sigma in
    if max_s <= x then max_s else x

let realistic () =
  {
    name = "Realistic";
    rpc_s = lognormal_clamped ~median:0.3 ~sigma:1.0 ~max_s:5.;
    per_rule_s = lognormal_clamped ~median:0.05 ~sigma:1.0 ~max_s:4.;
    switch_factor = lognormal_clamped ~median:1. ~sigma:0.8 ~max_s:20.;
    rules_per_update = 100;
    config_fail_prob = 0.01;
    (* A quarter of configuration failures are not transient RPC losses but
       a control plane that is down for a while (agent crash/restart, wedged
       firmware): retries against such a switch fail in a correlated way for
       the sampled outage duration instead of i.i.d. per attempt. *)
    outage_prob = 0.25;
    outage_duration_s = lognormal_clamped ~median:45. ~sigma:1.0 ~max_s:600.;
  }

let optimistic () =
  {
    name = "Optimistic";
    rpc_s = (fun _ -> 0.);
    per_rule_s = lognormal_clamped ~median:0.01 ~sigma:1.0 ~max_s:0.25;
    switch_factor = lognormal_clamped ~median:1. ~sigma:0.8 ~max_s:15.;
    rules_per_update = 100;
    config_fail_prob = 0.;
    outage_prob = 0.;
    outage_duration_s = (fun _ -> 0.);
  }

type attempt = Failed | Completed of float

let delay_sample rng t =
  let rules = ref 0. in
  for _ = 1 to t.rules_per_update do
    rules := !rules +. t.per_rule_s rng
  done;
  (* The switch-wide factor models straggling control planes (busy CPUs,
     §2.3 "overloaded switch CPUs"): it is what gives whole-switch update
     delays their heavy tail, which FFC's leave-the-stragglers-behind
     semantics exploits in multi-step updates. *)
  t.rpc_s rng +. (t.switch_factor rng *. !rules)

let attempt_update rng t =
  if Rng.bernoulli rng t.config_fail_prob then Failed else Completed (delay_sample rng t)
