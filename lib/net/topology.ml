type switch = int

type link = { id : int; src : switch; dst : switch; capacity : float; delay_ms : float }

type t = {
  names : string array;
  mutable by_id : link array; (* links 0 .. nlinks-1 by id; spare slots after *)
  mutable nlinks : int;
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
  { names; by_id = [||]; nlinks = 0; out_adj = Array.make n [] }

let num_switches t = Array.length t.names
let num_links t = t.nlinks

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
  let n = t.nlinks in
  let l = { id = n; src = u; dst = v; capacity = cap; delay_ms } in
  (* Grow by doubling, so adding L links copies O(L) words; [l] fills the
     spare slots until later links take them. *)
  if n = Array.length t.by_id then begin
    let grown = Array.make (max 8 (2 * n)) l in
    Array.blit t.by_id 0 grown 0 n;
    t.by_id <- grown
  end;
  t.by_id.(n) <- l;
  t.nlinks <- n + 1;
  t.out_adj.(u) <- l :: t.out_adj.(u);
  l

let add_duplex ?delay_ms t u v cap =
  (add_link ?delay_ms t u v cap, add_link ?delay_ms t v u cap)

let links t = Array.sub t.by_id 0 t.nlinks

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
  for id = 0 to num_links t - 1 do
    let l = t.by_id.(id) in
    Format.fprintf fmt "  %s -> %s : %g Gbps (%g ms)@." t.names.(l.src) t.names.(l.dst)
      l.capacity l.delay_ms
  done
