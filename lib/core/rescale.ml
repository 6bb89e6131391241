open Ffc_net

type rates = { tunnel_rates : float array array; undeliverable : float array }

let rescale (input : Te_types.input) (alloc : Te_types.allocation)
    ?(stuck = fun _ -> false) ?old_alloc_of ~failed_links ~failed_switches () =
  let n = Array.length input.Te_types.demands in
  let tunnel_rates = Array.make n [||] in
  let undeliverable = Array.make n 0. in
  List.iter
    (fun (f : Flow.t) ->
      let id = f.Flow.id in
      let nt = Flow.num_tunnels f in
      tunnel_rates.(id) <- Array.make nt 0.;
      let rate = alloc.Te_types.bf.(id) in
      if rate > 0. then begin
        if failed_switches f.Flow.src || failed_switches f.Flow.dst then
          undeliverable.(id) <- rate
        else begin
          let weights =
            if stuck f.Flow.src then
              match old_alloc_of with
              | Some of_switch -> Te_types.weights (of_switch f.Flow.src) id
              | None -> invalid_arg "Rescale.rescale: stuck ingress requires old_alloc_of"
            else Te_types.weights alloc id
          in
          (* Survivors are marked with 1. in the flow's rates row, which
             then takes their rates; the others stay 0. *)
          let row = tunnel_rates.(id) in
          let alive_weight = ref 0. and tunnels = ref f.Flow.tunnels in
          for ti = 0 to nt - 1 do
            match !tunnels with
            | [] -> ()
            | t :: rest ->
              tunnels := rest;
              if Tunnel.survives t ~failed_links ~failed_switches then begin
                row.(ti) <- 1.;
                alive_weight := !alive_weight +. weights.(ti)
              end
          done;
          let alive_weight = !alive_weight in
          if alive_weight <= 1e-12 then begin
            Array.fill row 0 nt 0.;
            undeliverable.(id) <- rate
          end
          else
            for ti = 0 to nt - 1 do
              if row.(ti) = 1. then row.(ti) <- rate *. weights.(ti) /. alive_weight
            done
        end
      end)
    input.Te_types.flows;
  { tunnel_rates; undeliverable }

let loads (input : Te_types.input) tunnel_rates =
  Te_types.loads_with input (fun f -> tunnel_rates.(f.Flow.id))

let overflow (input : Te_types.input) link_loads =
  Array.fold_left
    (fun acc (l : Topology.link) ->
      acc +. max 0. (link_loads.(l.Topology.id) -. l.Topology.capacity))
    0.
    (Topology.links input.Te_types.topo)
