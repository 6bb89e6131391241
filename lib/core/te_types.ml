open Ffc_net

type input = { topo : Topology.t; flows : Flow.t list; demands : float array }

type allocation = { bf : float array; af : float array array }

let zero_allocation input =
  let n = Array.length input.demands in
  let af = Array.make n [||] in
  List.iter
    (fun (f : Flow.t) -> af.(f.Flow.id) <- Array.make (Flow.num_tunnels f) 0.)
    input.flows;
  { bf = Array.make n 0.; af }

let weights alloc f =
  let a = alloc.af.(f) in
  let n = Array.length a in
  (* Loops rather than [Array.fold_left]/[Array.map], which box every
     float they pass through a closure. *)
  let total = ref 0. in
  for t = 0 to n - 1 do
    total := !total +. a.(t)
  done;
  let total = !total in
  let w = Array.make n 0. in
  (* A flow with no installed allocation has no forwarding rules: it cannot
     emit traffic anywhere, so its weights are zero (not an even split). *)
  if not (total <= 1e-12) then
    for t = 0 to n - 1 do
      w.(t) <- a.(t) /. total
    done;
  w

let throughput alloc = Array.fold_left ( +. ) 0. alloc.bf

(* Recursion over the lists rather than closures: a closure over a rate
   would box it once per tunnel and build itself too. *)
let rec add_links loads r = function
  | [] -> ()
  | (l : Topology.link) :: rest ->
    loads.(l.Topology.id) <- loads.(l.Topology.id) +. r;
    add_links loads r rest

let rec add_tunnels loads rates ti = function
  | [] -> ()
  | (tn : Tunnel.t) :: rest ->
    let r = rates.(ti) in
    if r > 0. then add_links loads r tn.Tunnel.links;
    add_tunnels loads rates (ti + 1) rest

let loads_with input per_flow_rates =
  let loads = Array.make (Topology.num_links input.topo) 0. in
  List.iter (fun (f : Flow.t) -> add_tunnels loads (per_flow_rates f) 0 f.Flow.tunnels) input.flows;
  loads

let link_loads input alloc = loads_with input (fun f -> alloc.af.(f.Flow.id))

let split_loads input alloc =
  loads_with input (fun f ->
      let w = weights alloc f.Flow.id in
      Array.map (fun wi -> wi *. alloc.bf.(f.Flow.id)) w)

type failure_kind = [ `Infeasible | `Unbounded | `Iteration_limit | `Deadline ]

type solve_failure = { kind : failure_kind; message : string }

let failure_kind_label = function
  | `Infeasible -> "infeasible"
  | `Unbounded -> "unbounded"
  | `Iteration_limit -> "iteration-limit"
  | `Deadline -> "deadline"

let failure kind message = { kind; message }

type protection = { kc : int; ke : int; kv : int }

let no_protection = { kc = 0; ke = 0; kv = 0 }

let protection ?(kc = 0) ?(ke = 0) ?(kv = 0) () =
  if kc < 0 || ke < 0 || kv < 0 then invalid_arg "Te_types.protection: negative";
  { kc; ke; kv }

let pp_protection fmt p = Format.fprintf fmt "(%d, %d, %d)" p.kc p.ke p.kv

let max_oversubscription input loads =
  let worst = ref 0. in
  Array.iter
    (fun (l : Topology.link) ->
      let over = (loads.(l.Topology.id) -. l.Topology.capacity) /. l.Topology.capacity in
      if over > !worst then worst := over)
    (Topology.links input.topo);
  100. *. !worst
