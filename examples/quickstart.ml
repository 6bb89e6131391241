(* Quickstart: build a small WAN by hand, compute basic TE and FFC TE, and
   see the difference a single link failure makes.

   Run with:  dune exec examples/quickstart.exe *)

open Ffc_net
open Ffc_core

let () =
  (* A 4-switch diamond: two ingresses (s2, s3) reaching s4 either directly
     or via s1. All links are 10 Gbps. *)
  let topo = Topology.create 4 in
  let add u v = ignore (Topology.add_duplex topo u v 10.) in
  add 1 0;
  add 2 0;
  add 0 3;
  add 1 3;
  add 2 3;
  let link u v = Option.get (Topology.find_link topo u v) in

  (* Two flows, each with a direct tunnel and a detour through s1. *)
  let flows =
    [
      Flow.create ~id:0 ~src:1 ~dst:3
        [ Tunnel.create ~id:0 [ link 1 3 ]; Tunnel.create ~id:1 [ link 1 0; link 0 3 ] ];
      Flow.create ~id:1 ~src:2 ~dst:3
        [ Tunnel.create ~id:2 [ link 2 3 ]; Tunnel.create ~id:3 [ link 2 0; link 0 3 ] ];
    ]
  in
  let input = { Te_types.topo; flows; demands = [| 10.; 10. |] } in

  (* 1. Basic (non-FFC) TE maximises throughput. *)
  let basic = Result.get_ok (Basic_te.solve input) in
  Printf.printf "basic TE: %.1f Gbps total\n" (Te_types.throughput basic);

  (* 2. FFC TE with ke = 1: congestion-free under any single link failure. *)
  let config = Ffc.config ~protection:(Te_types.protection ~ke:1 ()) () in
  let ffc = Result.get_ok (Ffc.solve ~config input) in
  Printf.printf "FFC TE (ke=1): %.1f Gbps total\n" (Te_types.throughput ffc.Ffc.alloc);

  (* 3. Verify both claims by exhaustively simulating every single-link
     failure with ingress rescaling. Basic TE is expected to fail; FFC must
     not. *)
  let verdict name alloc =
    match Enumerate.verify_data_plane input alloc ~ke:1 ~kv:0 with
    | Ok () ->
      Printf.printf "%s: congestion-free under every single link failure\n" name;
      true
    | Error e ->
      Printf.printf "%s: NOT robust -- %s\n" name e;
      false
  in
  ignore (verdict "basic TE" basic);
  if not (verdict "FFC TE  " ffc.Ffc.alloc) then exit 1;

  (* 4. What the ingresses would actually do when link s2-s4 fails. *)
  let failed = (link 1 3).Topology.id in
  let rates =
    Rescale.rescale input ffc.Ffc.alloc
      ~failed_links:(fun id -> id = failed)
      ~failed_switches:(fun _ -> false)
      ()
  in
  let loads = Rescale.loads input rates.Rescale.tunnel_rates in
  Printf.printf "after s2-s4 fails, FFC loads (Gbps):\n";
  Array.iter
    (fun (l : Topology.link) ->
      if loads.(l.Topology.id) > 0. then
        Printf.printf "  %s -> %s : %.1f / %.1f\n"
          (Topology.switch_name topo l.Topology.src)
          (Topology.switch_name topo l.Topology.dst)
          loads.(l.Topology.id) l.Topology.capacity)
    (Topology.links topo)
