module Rng = Ffc_util.Rng

type spec = { flows : Flow.t list; base_demand : float array }

let make_flows ?(tunnels_per_flow = 6) ?(p = 1) ?(q = 3) ?nflows
    ?(allowed = fun _ _ -> true) rng topo =
  let n = Topology.num_switches topo in
  let nflows = Option.value nflows ~default:(2 * n) in
  let weights = Array.init n (fun _ -> Rng.lognormal rng ~mu:0. ~sigma:0.8) in
  let pairs = ref [] in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d && allowed s d then pairs := (weights.(s) *. weights.(d), s, d) :: !pairs
    done
  done;
  let sorted = List.sort (fun (w1, _, _) (w2, _, _) -> Float.compare w2 w1) !pairs in
  let next_id = ref 0 in
  let next_flow = ref 0 in
  let flows = ref [] and demands = ref [] in
  let try_pair (w, s, d) =
    if !next_flow < nflows then begin
      let tunnels = Paths.tunnels_for ~p ~q topo ~next_id s d ~k:tunnels_per_flow in
      if List.length tunnels >= 2 then begin
        let f = Flow.create ~id:!next_flow ~src:s ~dst:d tunnels in
        incr next_flow;
        flows := f :: !flows;
        demands := w :: !demands
      end
    end
  in
  List.iter try_pair sorted;
  let flows = List.rev !flows in
  let demands = Array.of_list (List.rev !demands) in
  (* Normalise so total base demand is 30% of total link capacity; the
     simulator calibrates the absolute level afterwards. *)
  let cap_total =
    Array.fold_left (fun acc (l : Topology.link) -> acc +. l.Topology.capacity) 0.
      (Topology.links topo)
  in
  let dem_total = Array.fold_left ( +. ) 0. demands in
  if dem_total > 0. then begin
    let k = 0.3 *. cap_total /. dem_total in
    Array.iteri (fun i v -> demands.(i) <- v *. k) demands
  end;
  { flows; base_demand = demands }

let diurnal_amplitude = 0.25
let relative_sigma = 0.08

let series rng ~intervals spec =
  let nf = Array.length spec.base_demand in
  let phase = Array.init nf (fun _ -> Rng.float rng (2. *. Float.pi)) in
  Array.init intervals (fun t ->
      Array.init nf (fun f ->
          let diurnal =
            1.
            +. diurnal_amplitude
               *. sin ((2. *. Float.pi *. float_of_int t /. 288.) +. phase.(f))
          in
          let noise = Rng.lognormal rng ~mu:0. ~sigma:relative_sigma in
          spec.base_demand.(f) *. diurnal *. noise))

let scale k demands = Array.map (fun d -> d *. k) demands

let split_priorities ~fractions spec =
  let total_frac = List.fold_left ( +. ) 0. fractions in
  if abs_float (total_frac -. 1.) > 0.01 then
    invalid_arg "Traffic.split_priorities: fractions must sum to 1";
  let next = ref 0 in
  let flows = ref [] and demands = ref [] in
  List.iter
    (fun (f : Flow.t) ->
      List.iteri
        (fun prio frac ->
          let nf =
            Flow.create ~id:!next ~priority:prio ~src:f.Flow.src ~dst:f.Flow.dst f.Flow.tunnels
          in
          incr next;
          flows := nf :: !flows;
          demands := frac *. spec.base_demand.(f.Flow.id) :: !demands)
        fractions)
    spec.flows;
  { flows = List.rev !flows; base_demand = Array.of_list (List.rev !demands) }

let total = Array.fold_left ( +. ) 0.
