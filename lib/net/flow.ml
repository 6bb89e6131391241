type t = {
  id : int;
  src : Topology.switch;
  dst : Topology.switch;
  tunnels : Tunnel.t list;
  priority : int;
  ntunnels : int;
  p : int;
  q : int;
}

let max_multiplicity items =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun k ->
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    items;
  Hashtbl.fold (fun _ v acc -> max v acc) tbl 0

let create ~id ?(priority = 0) ~src ~dst tunnels =
  if tunnels = [] then invalid_arg "Flow.create: no tunnels";
  List.iter
    (fun (t : Tunnel.t) ->
      if t.Tunnel.src <> src || t.Tunnel.dst <> dst then
        invalid_arg "Flow.create: tunnel endpoints mismatch")
    tunnels;
  let link_ids =
    List.concat_map
      (fun (tn : Tunnel.t) -> List.map (fun (l : Topology.link) -> l.Topology.id) tn.Tunnel.links)
      tunnels
  in
  let mids = List.concat_map Tunnel.intermediate_switches tunnels in
  {
    id;
    src;
    dst;
    tunnels;
    priority;
    ntunnels = List.length tunnels;
    p = max_multiplicity link_ids;
    q = max_multiplicity mids;
  }

let p_q t = (t.p, t.q)

let num_tunnels t = t.ntunnels

let tau t ~ke ~kv = t.ntunnels - (ke * t.p) - (kv * t.q)
