open Ffc_net
open Ffc_core
module Rng = Ffc_util.Rng

type t = {
  name : string;
  input : Te_types.input;
  spec : Traffic.spec;
  calibration_scale : float;
  calibration_achieved : float;
  calibrated : bool;
}

let calibration_target = 0.99

(* Largest uniform demand scale at which basic TE satisfies
   [calibration_target] (99%) of total demand: bisection on the (monotone)
   satisfaction ratio. Returns the scale together with the satisfaction
   ratio achieved there, so callers can tell a calibrated scenario from one
   where even the smallest scale in range cannot reach the target (the
   ratio then sits below it). The basic-TE LP is built once and re-solved
   at every scale, cold and with presolve on; each scale is solved once,
   the final [lo] included, whose ratio the bisection already measured. *)
let calibrate (input : Te_types.input) =
  let lp = Basic_te.lp input in
  let satisfied scale =
    let demands = Traffic.scale scale input.Te_types.demands in
    match Basic_te.solve_lp lp { input with Te_types.demands } with
    | Ok (alloc, _, _) ->
      let total = Traffic.total demands in
      if total <= 0. then 1. else Te_types.throughput alloc /. total
    | Error _ -> 0.
  in
  let lo = ref 0.05 and hi = ref 50. in
  let at_lo = ref (satisfied !lo) in
  if !at_lo >= calibration_target then
    for _ = 1 to 22 do
      let mid = sqrt (!lo *. !hi) in
      let at_mid = satisfied mid in
      if at_mid >= calibration_target then begin
        lo := mid;
        at_lo := at_mid
      end
      else hi := mid
    done;
  (!lo, !at_lo)

let build name topo spec =
  let input =
    { Te_types.topo; flows = spec.Traffic.flows; demands = spec.Traffic.base_demand }
  in
  let k, achieved = calibrate input in
  (* Structured replacement for the old ad-hoc eprintf: still mirrored to
     stderr at the default Warn threshold, but machine-readable in the
     event log (`--metrics-out` exports it). *)
  if achieved < calibration_target then
    Ffc_obs.Obs.(
      event ~level:Warn "scenario.calibration_failed"
        [
          ("scenario", Str name);
          ("achieved_pct", Float (100. *. achieved));
          ("min_scale", Float k);
          ("target_pct", Float (100. *. calibration_target));
        ]);
  let demands = Traffic.scale k input.Te_types.demands in
  let spec = { spec with Traffic.base_demand = demands } in
  {
    name;
    input = { input with Te_types.demands };
    spec;
    calibration_scale = k;
    calibration_achieved = achieved;
    calibrated = achieved >= calibration_target;
  }

let lnet_sim ?(sites = 20) ?nflows rng =
  let topo = Topo_gen.lnet ~sites rng in
  let nflows = Option.value nflows ~default:(2 * sites) in
  let spec = Traffic.make_flows ~nflows rng topo in
  build "L-Net" topo spec

let snet ?(nflows = 30) rng =
  let topo = Topo_gen.snet () in
  (* Site-level demand: flows between the 'a' switches of distinct sites
     (tunnels still fan out through both of each site's switches). *)
  let allowed s d = s mod 2 = 0 && d mod 2 = 0 && s / 2 <> d / 2 in
  let spec = Traffic.make_flows ~nflows ~allowed rng topo in
  build "S-Net" topo spec

let scaled t scale =
  { t.input with Te_types.demands = Traffic.scale scale t.input.Te_types.demands }

let demand_series rng t ~scale ~intervals =
  let spec = { t.spec with Traffic.base_demand = Traffic.scale scale t.spec.Traffic.base_demand } in
  Traffic.series rng ~intervals spec

let with_priorities ~fractions t =
  let spec = Traffic.split_priorities ~fractions t.spec in
  let input =
    { t.input with Te_types.flows = spec.Traffic.flows; demands = spec.Traffic.base_demand }
  in
  { t with input; spec }
