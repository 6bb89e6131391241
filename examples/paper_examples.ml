(* The paper's worked micro-examples, Figures 2-5, reproduced end to end:

   - Figure 2/4: a data-plane fault congests the detour link under plain TE;
     FFC with ke = 1 spreads traffic so any single link failure is safe.
   - Figure 3/5: adding a new flow requires moving traffic at s2/s3; FFC
     with kc = 1 (resp. 2) admits 7 (resp. 4) units instead of 10, and the
     update is robust to one (resp. two) stuck switches.

   Run with:  dune exec examples/paper_examples.exe *)

open Ffc_net
open Ffc_core

let link topo u v = Option.get (Topology.find_link topo u v)

let tunnel topo ~id hops =
  let rec links = function
    | a :: (b :: _ as rest) -> link topo a b :: links rest
    | _ -> []
  in
  Tunnel.create ~id (links hops)

let show_flows (input : Te_types.input) (alloc : Te_types.allocation) =
  List.iter
    (fun (f : Flow.t) ->
      let id = f.Flow.id in
      Printf.printf "  %s -> %s : %.1f units over [%s]\n"
        (Topology.switch_name input.Te_types.topo f.Flow.src)
        (Topology.switch_name input.Te_types.topo f.Flow.dst)
        alloc.Te_types.bf.(id)
        (String.concat "; "
           (List.mapi
              (fun ti t ->
                Format.asprintf "%a=%.1f" (Tunnel.pp input.Te_types.topo) t
                  alloc.Te_types.af.(id).(ti))
              f.Flow.tunnels)))
    input.Te_types.flows

(* ---------------- Figure 2 / Figure 4 ---------------- *)

let data_plane_example () =
  Printf.printf "=== Figures 2 and 4: data-plane FFC ===\n";
  let topo = Topo_gen.fig2 () in
  let flows =
    [
      Flow.create ~id:0 ~src:1 ~dst:3
        [ tunnel topo ~id:0 [ 1; 3 ]; tunnel topo ~id:1 [ 1; 0; 3 ] ];
      Flow.create ~id:1 ~src:2 ~dst:3
        [ tunnel topo ~id:2 [ 2; 3 ]; tunnel topo ~id:3 [ 2; 0; 3 ] ];
    ]
  in
  let input = { Te_types.topo; flows; demands = [| 10.; 10. |] } in
  let basic = Result.get_ok (Basic_te.solve input) in
  Printf.printf "Figure 2(a): plain TE fills the direct links (%.0f units total):\n"
    (Te_types.throughput basic);
  show_flows input basic;
  let failed = (link topo 1 3).Topology.id in
  let rates =
    Rescale.rescale input basic
      ~failed_links:(fun id -> id = failed)
      ~failed_switches:(fun _ -> false)
      ()
  in
  let loads = Rescale.loads input rates.Rescale.tunnel_rates in
  Printf.printf
    "Figure 2(b): link s2-s4 fails; after rescaling the max oversubscription is %.0f%%\n"
    (Te_types.max_oversubscription input loads);
  (if rates.Rescale.undeliverable.(0) > 0. then
     Printf.printf "  (flow s2->s4 blackholes %.1f units: its detour had no allocation)\n"
       rates.Rescale.undeliverable.(0));
  (* Max-min fairness picks the paper's symmetric 5/5 split among the many
     throughput-optimal FFC solutions. *)
  let config = Ffc.config ~protection:(Te_types.protection ~ke:1 ()) () in
  let ffc = fst (Result.get_ok (Fairness.solve ~config input)) in
  Printf.printf "Figure 4(a): FFC (ke=1) spreads %.0f units so any one link may fail:\n"
    (Te_types.throughput ffc);
  show_flows input ffc;
  (match Enumerate.verify_data_plane input ffc ~ke:1 ~kv:0 with
  | Ok () -> Printf.printf "Figure 4(b): verified congestion-free under every single link failure\n"
  | Error e ->
    Printf.eprintf "verification failed: %s\n" e;
    exit 1);
  Printf.printf "\n"

(* ---------------- Figure 3 / Figure 5 ---------------- *)

let control_plane_example () =
  Printf.printf "=== Figures 3 and 5: control-plane FFC ===\n";
  let topo = Topo_gen.fig3 () in
  let flows =
    [
      Flow.create ~id:0 ~src:0 ~dst:1 [ tunnel topo ~id:0 [ 0; 1 ] ];
      Flow.create ~id:1 ~src:0 ~dst:2 [ tunnel topo ~id:1 [ 0; 2 ] ];
      Flow.create ~id:2 ~src:1 ~dst:3
        [ tunnel topo ~id:2 [ 1; 3 ]; tunnel topo ~id:3 [ 1; 0; 3 ] ];
      Flow.create ~id:3 ~src:2 ~dst:3
        [ tunnel topo ~id:4 [ 2; 3 ]; tunnel topo ~id:5 [ 2; 0; 3 ] ];
      Flow.create ~id:4 ~src:0 ~dst:3 [ tunnel topo ~id:6 [ 0; 3 ] ];
    ]
  in
  let input = { Te_types.topo; flows; demands = [| 10.; 10.; 10.; 10.; 10. |] } in
  (* Figure 3(a): s2->s4 and s3->s4 each run 7 direct + 3 via s1; the new
     flow s1->s4 is not yet admitted. *)
  let old_alloc =
    {
      Te_types.bf = [| 10.; 10.; 10.; 10.; 0. |];
      af = [| [| 10. |]; [| 10. |]; [| 7.; 3. |]; [| 7.; 3. |]; [| 0. |] |];
    }
  in
  Printf.printf "Figure 3(a): current configuration (flow s1->s4 waiting to start):\n";
  show_flows input old_alloc;
  List.iter
    (fun kc ->
      let config = Ffc.config ~protection:(Te_types.protection ~kc ()) () in
      let r = Result.get_ok (Ffc.solve ~config ~prev:old_alloc input) in
      Printf.printf "FFC kc=%d admits %.0f units of s1->s4 (Figure %s):\n" kc
        r.Ffc.alloc.Te_types.bf.(4)
        (match kc with 0 -> "3(b)" | 1 -> "5(b)" | _ -> "5(a)");
      (match Enumerate.verify_control_plane input ~old_alloc ~new_alloc:r.Ffc.alloc ~kc with
      | Ok () -> Printf.printf "  verified safe with up to %d stuck switches\n" kc
      | Error e ->
        Printf.eprintf "  verification failed: %s\n" e;
        exit 1))
    [ 0; 1; 2 ];
  (* Figure 3(c): what happens if s2 is stuck while the full 10 units start. *)
  let config = Ffc.config ~protection:Te_types.no_protection () in
  let aggressive = (Result.get_ok (Ffc.solve ~config ~prev:old_alloc input)).Ffc.alloc in
  match Enumerate.verify_control_plane input ~old_alloc ~new_alloc:aggressive ~kc:1 with
  | Ok () ->
    Printf.eprintf "unexpected: aggressive update was robust\n";
    exit 1
  | Error e -> Printf.printf "Figure 3(c): without FFC, one stuck switch congests: %s\n" e

let () =
  data_plane_example ();
  control_plane_example ()
