type switch = int

type link = { id : int; src : switch; dst : switch; capacity : float; delay_ms : float }

type t = {
  names : string array;
  mutable by_id : link array;
  out_adj : link list array; (* newest first *)
}

let create ?names n =
  if n < 0 then invalid_arg "Topology.create";
  let names =
    match names with
    | Some ns ->
      if Array.length ns <> n then invalid_arg "Topology.create: names length";
      Array.copy ns
    | None -> Array.init n (fun i -> Printf.sprintf "s%d" (i + 1))
  in
  { names; by_id = [||]; out_adj = Array.make n [] }

let num_switches t = Array.length t.names
let num_links t = Array.length t.by_id

let check_switch t v =
  if v < 0 || v >= num_switches t then invalid_arg "Topology: bad switch id"

let find_link t u v =
  if u < 0 || u >= num_switches t then None
  else List.find_opt (fun l -> l.dst = v) t.out_adj.(u)

let add_link ?(delay_ms = 1.) t u v cap =
  check_switch t u;
  check_switch t v;
  if u = v then invalid_arg "Topology.add_link: self-loop";
  if cap <= 0. then invalid_arg "Topology.add_link: non-positive capacity";
  if find_link t u v <> None then invalid_arg "Topology.add_link: duplicate link";
  let l = { id = num_links t; src = u; dst = v; capacity = cap; delay_ms } in
  t.by_id <- Array.append t.by_id [| l |];
  t.out_adj.(u) <- l :: t.out_adj.(u);
  l

let add_duplex ?delay_ms t u v cap =
  (add_link ?delay_ms t u v cap, add_link ?delay_ms t v u cap)

let links t = Array.copy t.by_id

let link t i =
  if i < 0 || i >= num_links t then invalid_arg "Topology.link: bad id";
  t.by_id.(i)

let out_links t v =
  check_switch t v;
  t.out_adj.(v)

let switch_name t v =
  check_switch t v;
  t.names.(v)

let switches t = List.init (num_switches t) (fun i -> i)

(* A fibre is listed once, at its lower-id direction. *)
let fibres t =
  let acc = ref [] in
  for id = num_links t - 1 downto 0 do
    let l = t.by_id.(id) in
    match find_link t l.dst l.src with
    | Some r when r.id < id -> ()
    | Some r -> acc := [ id; r.id ] :: !acc
    | None -> acc := [ id ] :: !acc
  done;
  !acc

let pp fmt t =
  Format.fprintf fmt "topology: %d switches, %d links@." (num_switches t) (num_links t);
  Array.iter
    (fun l ->
      Format.fprintf fmt "  %s -> %s : %g Gbps (%g ms)@." t.names.(l.src) t.names.(l.dst)
        l.capacity l.delay_ms)
    t.by_id
