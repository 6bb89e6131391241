type t = {
  id : int;
  src : Topology.switch;
  dst : Topology.switch;
  tunnels : Tunnel.t list;
  priority : int;
}

let create ~id ?(priority = 0) ~src ~dst tunnels =
  if tunnels = [] then invalid_arg "Flow.create: no tunnels";
  List.iter
    (fun (t : Tunnel.t) ->
      if t.Tunnel.src <> src || t.Tunnel.dst <> dst then
        invalid_arg "Flow.create: tunnel endpoints mismatch")
    tunnels;
  { id; src; dst; tunnels; priority }

let max_multiplicity items =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun k ->
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    items;
  Hashtbl.fold (fun _ v acc -> max v acc) tbl 0

let p_q t =
  let link_ids =
    List.concat_map
      (fun (tn : Tunnel.t) -> List.map (fun (l : Topology.link) -> l.Topology.id) tn.Tunnel.links)
      t.tunnels
  in
  let mids = List.concat_map Tunnel.intermediate_switches t.tunnels in
  (max_multiplicity link_ids, max_multiplicity mids)

let num_tunnels t = List.length t.tunnels

let tau t ~ke ~kv =
  let p, q = p_q t in
  List.length t.tunnels - (ke * p) - (kv * q)
