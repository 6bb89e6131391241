type t = {
  id : int;
  links : Topology.link list;
  src : Topology.switch;
  dst : Topology.switch;
}

let create ~id links =
  match links with
  | [] -> invalid_arg "Tunnel.create: empty path"
  | first :: _ ->
    let rec check prev = function
      | [] -> prev
      | (l : Topology.link) :: tl ->
        if l.Topology.src <> prev then invalid_arg "Tunnel.create: discontiguous path";
        check l.Topology.dst tl
    in
    let dst = check first.Topology.src links in
    let visited = Hashtbl.create 8 in
    List.iter
      (fun (l : Topology.link) ->
        if Hashtbl.mem visited l.Topology.src then invalid_arg "Tunnel.create: loop in path";
        Hashtbl.add visited l.Topology.src ())
      links;
    if Hashtbl.mem visited dst then invalid_arg "Tunnel.create: loop in path";
    { id; links; src = first.Topology.src; dst }

let uses_link t (e : Topology.link) =
  List.exists (fun (l : Topology.link) -> l.Topology.id = e.Topology.id) t.links

let switches t =
  t.src :: List.map (fun (l : Topology.link) -> l.Topology.dst) t.links

let intermediate_switches t =
  match List.rev (switches t) with
  | [] | [ _ ] -> []
  | _dst :: rev_rest -> (
    match List.rev rev_rest with [] -> [] | _src :: mid -> mid)

(* The path's switches are [src] and each link's [dst]: one walk over the
   links checks both, with no list of switches built. *)
let rec links_survive failed_links failed_switches = function
  | [] -> true
  | (l : Topology.link) :: rest ->
    (not (failed_links l.Topology.id))
    && (not (failed_switches l.Topology.dst))
    && links_survive failed_links failed_switches rest

let survives t ~failed_links ~failed_switches =
  (not (failed_switches t.src)) && links_survive failed_links failed_switches t.links

let latency_ms t =
  List.fold_left (fun acc (l : Topology.link) -> acc +. l.Topology.delay_ms) 0. t.links

let hops t = List.length t.links

let pp topo fmt t =
  let names = List.map (Topology.switch_name topo) (switches t) in
  Format.fprintf fmt "%s" (String.concat "-" names)
