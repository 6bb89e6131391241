(* The §7 testbed experiment: an 8-site WAN (Figure 9), flows s3->s7 and
   s4->s5 at 1 Gbps each, and a failure of link s6-s7.

   Tunnels and the non-FFC spread follow Figure 10: s3->s7 splits over
   s3-s6-s7 and s3-s5-s7; s4->s5 over its direct link and s4-s3-s5. After
   s6-s7 fails, s3 rescales its full 1 Gbps onto s3-s5-s7 and link s3-s5
   carries 1.5 Gbps — congested until the controller moves s4's detour
   traffic (Figures 11(b,c)). FFC instead pre-places s4's detour on
   s4-s6-s5, so rescaling alone restores a congestion-free state and loss
   stops as soon as s3 rescales (Figure 11(a)).

   Run with:  dune exec examples/testbed.exe *)

open Ffc_net
open Ffc_core
module Sim = Ffc_sim
module Rng = Ffc_util.Rng

let s name = int_of_string (String.sub name 1 (String.length name - 1)) - 1

let () =
  let topo = Topo_gen.testbed () in
  let link a b = Option.get (Topology.find_link topo (s a) (s b)) in
  let tunnel ~id hops =
    let rec links = function
      | a :: (b :: _ as rest) -> link a b :: links rest
      | _ -> []
    in
    Tunnel.create ~id (links hops)
  in
  let flows =
    [
      Flow.create ~id:0 ~src:(s "s3") ~dst:(s "s7")
        [ tunnel ~id:0 [ "s3"; "s6"; "s7" ]; tunnel ~id:1 [ "s3"; "s5"; "s7" ] ];
      Flow.create ~id:1 ~src:(s "s4") ~dst:(s "s5")
        [
          tunnel ~id:2 [ "s4"; "s5" ];
          tunnel ~id:3 [ "s4"; "s3"; "s5" ];
          tunnel ~id:4 [ "s4"; "s6"; "s5" ];
        ];
    ]
  in
  let input = { Te_types.topo; flows; demands = [| 1.; 1. |] } in
  Printf.printf "testbed: 8 sites, 1 Gbps links; flows s3->s7 and s4->s5 at 1 Gbps\n\n";

  (* Figure 10, non-FFC: s4 detours 0.5 via s3. *)
  let non_ffc =
    { Te_types.bf = [| 1.; 1. |]; af = [| [| 0.5; 0.5 |]; [| 0.5; 0.5; 0. |] |] }
  in
  (* FFC: computed with ke = 1; the solver finds the Figure 10 variant that
     uses s4-s6-s5 instead of s4-s3-s5. *)
  let config = Ffc.config ~protection:(Te_types.protection ~ke:1 ()) ~mice_fraction:0. () in
  let ffc = (Result.get_ok (Ffc.solve ~config input)).Ffc.alloc in

  let fail_link = link "s6" "s7" in
  let detect_ms = 5. in
  let timeline name (alloc : Te_types.allocation) reacts =
    Printf.printf "--- %s ---\n" name;
    List.iter
      (fun (f : Flow.t) ->
        Printf.printf "  %s->%s over [%s], rate %.1f Gbps\n"
          (Topology.switch_name topo f.Flow.src)
          (Topology.switch_name topo f.Flow.dst)
          (String.concat "; "
             (List.mapi
                (fun ti t ->
                  Format.asprintf "%a=%.2f" (Tunnel.pp topo) t
                    alloc.Te_types.af.(f.Flow.id).(ti))
                f.Flow.tunnels))
          alloc.Te_types.bf.(f.Flow.id))
      flows;
    let notify_ms = detect_ms +. (link "s6" "s3").Topology.delay_ms in
    Printf.printf "  t=0 ms      : link s6-s7 fails\n";
    Printf.printf "  t=%-6.0f ms : s6 detects the failure\n" detect_ms;
    Printf.printf "  t=%-6.0f ms : s3 hears about it and rescales (2 ms)\n" notify_ms;
    let rates =
      Rescale.rescale input alloc
        ~failed_links:(fun id -> id = fail_link.Topology.id)
        ~failed_switches:(fun _ -> false)
        ()
    in
    let loads = Rescale.loads input rates.Rescale.tunnel_rates in
    let oversub = Te_types.max_oversubscription input loads in
    if oversub <= 1e-9 then
      Printf.printf "  t=%-6.0f ms : rescaled state is congestion-free -- loss STOPS here\n"
        (notify_ms +. 2.)
    else begin
      Array.iter
        (fun (l : Topology.link) ->
          if loads.(l.Topology.id) > l.Topology.capacity +. 1e-9 then
            Printf.printf "  t=%-6.0f ms : link %s-%s now carries %.1f / %.1f Gbps -- congestion\n"
              (notify_ms +. 2.)
              (Topology.switch_name topo l.Topology.src)
              (Topology.switch_name topo l.Topology.dst)
              loads.(l.Topology.id) l.Topology.capacity)
        (Topology.links topo);
      if reacts then begin
        let rng = Rng.create 1 in
        let um = Sim.Update_model.optimistic () in
        let controller_rtt = 2. *. 45. in
        let good = Sim.Update_model.delay_sample rng um *. 1000. in
        let bad = 10. *. good in
        Printf.printf
          "  t=%-6.0f ms : controller (s5) pushes a fix to s4 -- loss stops (best case, 11(b))\n"
          (notify_ms +. 2. +. controller_rtt +. good);
        Printf.printf
          "  t=%-6.0f ms : ... or only now if s4's update straggles (bad case, 11(c))\n"
          (notify_ms +. 2. +. controller_rtt +. bad)
      end
    end;
    Printf.printf "\n"
  in
  timeline "FFC (ke=1), Figure 11(a)" ffc false;
  timeline "non-FFC (Figure 10), Figures 11(b,c)" non_ffc true;
  match Enumerate.verify_data_plane input ffc ~ke:1 ~kv:0 with
  | Ok () -> Printf.printf "FFC allocation verified congestion-free under every single link failure\n"
  | Error e ->
    Printf.eprintf "FFC verification failed: %s\n" e;
    exit 1
