(* Tests for the network substrate: topology, tunnels, path algorithms,
   generators, traffic, plus the util library (Rng/Stats/Table). *)

open Ffc_net
module Rng = Ffc_util.Rng
module Stats = Ffc_util.Stats
module Table = Ffc_util.Table

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Util                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  let x = Rng.int64 a and y = Rng.int64 c in
  Alcotest.(check bool) "split streams differ" true (x <> y)

let prop_rng_int_bounds =
  QCheck.Test.make ~count:500 ~name:"Rng.int within bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let xs = Array.init 50 (fun i -> i) in
  Rng.shuffle rng xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 11 in
  let xs = Array.init 10 (fun i -> i) in
  let s = Rng.sample_without_replacement rng 4 xs in
  Alcotest.(check int) "size" 4 (List.length s);
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare s))

let test_rng_bernoulli_bias () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. 10_000. in
  Alcotest.(check bool) "about 0.3" true (p > 0.27 && p < 0.33)

let test_stats_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "median" 3. (Stats.median xs);
  check_float "p0" 1. (Stats.percentile 0. xs);
  check_float "p100" 5. (Stats.percentile 100. xs);
  check_float "p25" 2. (Stats.percentile 25. xs)

let test_stats_cdf () =
  let c = Stats.cdf_of_samples [ 1.; 2.; 2.; 4. ] in
  check_float "F(2)" 0.75 (Stats.cdf_eval c 2.);
  check_float "F(0)" 0. (Stats.cdf_eval c 0.);
  check_float "F(9)" 1. (Stats.cdf_eval c 9.);
  check_float "inv(1)" 4. (Stats.cdf_inverse c 1.)

let prop_stats_cdf_inverse_monotone =
  QCheck.Test.make ~count:100 ~name:"cdf_inverse monotone"
    QCheck.(list_of_size Gen.(int_range 2 30) (float_range (-50.) 50.))
    (fun xs ->
      QCheck.assume (xs <> []);
      let c = Stats.cdf_of_samples xs in
      let qs = [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 1. ] in
      let vals = List.map (Stats.cdf_inverse c) qs in
      let rec mono = function a :: (b :: _ as tl) -> a <= b +. 1e-9 && mono tl | _ -> true in
      mono vals)

let test_stats_misc () =
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_float "mean empty" 0. (Stats.mean []);
  check_float "stddev const" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  check_float "fraction above" 0.5 (Stats.fraction_above 2. [ 1.; 2.; 3.; 4. ])

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Table.create [ "a"; "bb" ] in
  Table.add_row t [ "x"; "y"; "z" ];
  Table.add_floats t "row" [ 1.5 ];
  let s = Table.to_string t in
  Alcotest.(check bool) "contains separator" true (String.length s > 0 && String.contains s '-');
  Alcotest.(check bool) "contains 1.50" true (contains_substring s "1.50")

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_topology_basics () =
  let t = Topology.create 3 in
  let l01 = Topology.add_link t 0 1 10. in
  let _ = Topology.add_duplex t 1 2 5. in
  Alcotest.(check int) "links" 3 (Topology.num_links t);
  Alcotest.(check int) "switches" 3 (Topology.num_switches t);
  Alcotest.(check bool) "find" true (Topology.find_link t 0 1 = Some l01);
  Alcotest.(check bool) "find missing" true (Topology.find_link t 1 0 = None);
  Alcotest.(check int) "out of 1" 1 (List.length (Topology.out_links t 1))

(* Links added out of fibre order: each fibre is listed once, at its
   lower-id direction, with its reverse when present. *)
let test_topology_by_id () =
  let t = Topology.create 4 in
  List.iter
    (fun (u, v) -> ignore (Topology.add_link t u v 1.))
    [ (0, 1); (1, 2); (2, 1); (1, 0); (0, 2); (3, 0); (0, 3) ];
  Alcotest.(check (list (list int)))
    "fibres" [ [ 0; 3 ]; [ 1; 2 ]; [ 4 ]; [ 5; 6 ] ] (Topology.fibres t);
  let l = Topology.link t 4 in
  Alcotest.(check (list int)) "link 4 is 0->2" [ 4; 0; 2 ]
    [ l.Topology.id; l.Topology.src; l.Topology.dst ];
  Alcotest.(check bool) "links by id" true
    (Array.for_all (fun (l : Topology.link) -> Topology.link t l.Topology.id == l)
       (Topology.links t));
  List.iter
    (fun id ->
      match Topology.link t id with
      | _ -> Alcotest.failf "link %d: expected Invalid_argument" id
      | exception Invalid_argument _ -> ())
    [ -1; Topology.num_links t ];
  Alcotest.(check bool) "find from a non-switch" true
    (Topology.find_link t 4 0 = None && Topology.find_link t (-1) 0 = None)

(* 100 links cross several doublings of the link array: [links] holds
   exactly [num_links] entries, in id order, and no spare slot shows. *)
let test_topology_growth () =
  let n = 11 in
  let t = Topology.create n in
  let pairs =
    List.concat_map (fun u -> List.init 10 (fun k -> (u, (u + k + 1) mod n))) (List.init 10 Fun.id)
  in
  List.iter (fun (u, v) -> ignore (Topology.add_link t u v 1.)) pairs;
  let ls = Topology.links t in
  Alcotest.(check int) "num_links" 100 (Topology.num_links t);
  Alcotest.(check int) "links length" 100 (Array.length ls);
  Alcotest.(check (list (triple int int int)))
    "ids in insertion order"
    (List.mapi (fun i (u, v) -> (i, u, v)) pairs)
    (Array.to_list
       (Array.map (fun (l : Topology.link) -> (l.Topology.id, l.Topology.src, l.Topology.dst)) ls));
  (match Topology.link t (Topology.num_links t) with
  | _ -> Alcotest.fail "link num_links: expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "fibres cover every link" 100
    (List.length (List.concat (Topology.fibres t)))

let test_topology_validation () =
  let t = Topology.create 2 in
  ignore (Topology.add_link t 0 1 1.);
  let expect_invalid f = try ignore (f ()); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> () in
  expect_invalid (fun () -> Topology.add_link t 0 1 1.);
  expect_invalid (fun () -> Topology.add_link t 0 0 1.);
  expect_invalid (fun () -> Topology.add_link t 0 1 (-2.));
  expect_invalid (fun () -> Topology.add_link t 0 5 1.)

(* ------------------------------------------------------------------ *)
(* Tunnels                                                             *)
(* ------------------------------------------------------------------ *)

let line_topo () =
  let t = Topology.create 4 in
  let l01 = Topology.add_link ~delay_ms:2. t 0 1 10. in
  let l12 = Topology.add_link ~delay_ms:3. t 1 2 10. in
  let l23 = Topology.add_link ~delay_ms:4. t 2 3 10. in
  (t, l01, l12, l23)

let test_tunnel_basics () =
  let _, l01, l12, l23 = line_topo () in
  let tn = Tunnel.create ~id:0 [ l01; l12; l23 ] in
  Alcotest.(check int) "hops" 3 (Tunnel.hops tn);
  check_float "latency" 9. (Tunnel.latency_ms tn);
  Alcotest.(check (list int)) "switches" [ 0; 1; 2; 3 ] (Tunnel.switches tn);
  Alcotest.(check (list int)) "intermediate" [ 1; 2 ] (Tunnel.intermediate_switches tn);
  Alcotest.(check bool) "uses l12" true (Tunnel.uses_link tn l12);
  Alcotest.(check bool) "survives" true
    (Tunnel.survives tn ~failed_links:(fun _ -> false) ~failed_switches:(fun _ -> false));
  Alcotest.(check bool) "dies on link" false
    (Tunnel.survives tn
       ~failed_links:(fun id -> id = l12.Topology.id)
       ~failed_switches:(fun _ -> false));
  Alcotest.(check bool) "dies on switch" false
    (Tunnel.survives tn ~failed_links:(fun _ -> false) ~failed_switches:(fun v -> v = 2))

let test_tunnel_validation () =
  let _, l01, l12, l23 = line_topo () in
  let expect_invalid f = try ignore (f ()); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> () in
  expect_invalid (fun () -> Tunnel.create ~id:0 []);
  expect_invalid (fun () -> Tunnel.create ~id:0 [ l01; l23 ]);
  ignore l12

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let diamond () =
  (* 0 -> {1, 2} -> 3 plus a direct long path 0 -> 3. *)
  let t = Topology.create 4 in
  let mk u v = ignore (Topology.add_link t u v 10.) in
  mk 0 1; mk 1 3; mk 0 2; mk 2 3; mk 0 3;
  t

let test_shortest () =
  let t = diamond () in
  match Paths.shortest t 0 3 with
  | Some [ l ] -> Alcotest.(check (pair int int)) "direct" (0, 3) (l.Topology.src, l.Topology.dst)
  | _ -> Alcotest.fail "expected the 1-hop path"

let test_shortest_banned () =
  let t = diamond () in
  let direct = Option.get (Topology.find_link t 0 3) in
  match Paths.shortest ~banned_links:(fun id -> id = direct.Topology.id) t 0 3 with
  | Some p -> Alcotest.(check int) "2 hops" 2 (List.length p)
  | None -> Alcotest.fail "path should exist"

let test_shortest_banned_switch () =
  let t = diamond () in
  (match Paths.shortest ~banned_switches:(fun v -> v = 1) t 0 3 with
  | Some p ->
    Alcotest.(check bool) "avoids 1" true
      (not (List.exists (fun (l : Topology.link) -> l.Topology.dst = 1) p))
  | None -> Alcotest.fail "path should exist");
  match Paths.shortest ~banned_switches:(fun v -> v = 3) t 0 3 with
  | None -> ()
  | Some _ -> Alcotest.fail "banned destination must yield None"

let test_metric_rejects_non_finite () =
  (* Dijkstra's ordering is meaningless under NaN (polymorphic compare used
     to sort NaN distances arbitrarily); non-finite or negative metrics must
     be rejected loudly instead. *)
  let t = diamond () in
  let reject name metric =
    Alcotest.check_raises name
      (Invalid_argument "Paths: metric must be finite and non-negative") (fun () ->
        ignore (Paths.shortest ~metric t 0 3))
  in
  reject "nan metric" (fun _ -> nan);
  reject "infinite metric" (fun _ -> infinity);
  reject "negative metric" (fun _ -> -1.);
  (* A finite custom metric still works and can re-rank paths. *)
  let direct = Option.get (Topology.find_link t 0 3) in
  let heavy (l : Topology.link) = if l.Topology.id = direct.Topology.id then 100. else 1. in
  match Paths.shortest ~metric:heavy t 0 3 with
  | Some p -> Alcotest.(check int) "heavy direct link avoided" 2 (List.length p)
  | None -> Alcotest.fail "path should exist"

let test_k_shortest () =
  let t = diamond () in
  let ps = Paths.k_shortest t 0 3 ~k:5 in
  Alcotest.(check int) "three distinct paths" 3 (List.length ps);
  (* Sorted by length. *)
  Alcotest.(check int) "first is direct" 1 (List.length (List.hd ps))

let test_pq_disjoint () =
  let t = diamond () in
  let ps = Paths.pq_disjoint t 0 3 ~k:3 ~p:1 ~q:1 in
  Alcotest.(check int) "three link-disjoint paths" 3 (List.length ps);
  (* No link shared. *)
  let all = List.concat ps in
  let ids = List.map (fun (l : Topology.link) -> l.Topology.id) all in
  Alcotest.(check int) "no duplicates" (List.length ids) (List.length (List.sort_uniq compare ids))

let prop_pq_disjoint_respects_budgets =
  QCheck.Test.make ~count:50 ~name:"pq_disjoint respects (p, q) budgets"
    QCheck.(triple small_int (int_range 1 2) (int_range 1 3))
    (fun (seed, p, q) ->
      let rng = Rng.create seed in
      let topo = Topo_gen.lnet ~sites:8 rng in
      let src = Rng.int rng 8 and dst = Rng.int rng 8 in
      QCheck.assume (src <> dst);
      let paths = Paths.pq_disjoint topo src dst ~k:6 ~p ~q in
      let link_counts = Hashtbl.create 16 and switch_counts = Hashtbl.create 16 in
      let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
      List.iter
        (fun path ->
          List.iter (fun (l : Topology.link) -> bump link_counts l.Topology.id) path;
          List.iter
            (fun (l : Topology.link) -> if l.Topology.dst <> dst then bump switch_counts l.Topology.dst)
            path)
        paths;
      Hashtbl.fold (fun _ c acc -> acc && c <= p) link_counts true
      && Hashtbl.fold (fun _ c acc -> acc && c <= q) switch_counts true)

let prop_k_shortest_loop_free =
  QCheck.Test.make ~count:50 ~name:"k-shortest paths are loop-free and distinct"
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, k) ->
      let rng = Rng.create seed in
      let topo = Topo_gen.lnet ~sites:7 rng in
      let src = Rng.int rng 7 and dst = Rng.int rng 7 in
      QCheck.assume (src <> dst);
      let ps = Paths.k_shortest topo src dst ~k in
      List.for_all
        (fun path ->
          let sws =
            match path with
            | [] -> []
            | (first : Topology.link) :: _ ->
              first.Topology.src :: List.map (fun (l : Topology.link) -> l.Topology.dst) path
          in
          List.length sws = List.length (List.sort_uniq compare sws))
        ps
      && List.length ps = List.length (List.sort_uniq compare (List.map (List.map (fun (l : Topology.link) -> l.Topology.id)) ps)))

(* ------------------------------------------------------------------ *)
(* Generators and traffic                                              *)
(* ------------------------------------------------------------------ *)

let test_lnet_connected () =
  let rng = Rng.create 21 in
  let topo = Topo_gen.lnet ~sites:12 rng in
  let n = Topology.num_switches topo in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then
        match Paths.shortest topo u v with
        | Some _ -> ()
        | None -> Alcotest.failf "lnet disconnected: %d -> %d" u v
    done
  done

let test_snet_structure () =
  let topo = Topo_gen.snet () in
  Alcotest.(check int) "switches" 24 (Topology.num_switches topo);
  (* 12 intra-site duplex pairs + 19 site links x 4 switch pairs x 2 dirs *)
  Alcotest.(check int) "links" ((12 * 2) + (19 * 4 * 2)) (Topology.num_links topo)

let test_testbed_structure () =
  let topo = Topo_gen.testbed () in
  Alcotest.(check int) "switches" 8 (Topology.num_switches topo);
  Array.iter
    (fun (l : Topology.link) -> check_float "1 Gbps" 1. l.Topology.capacity)
    (Topology.links topo)

let test_make_flows () =
  let rng = Rng.create 5 in
  let topo = Topo_gen.lnet ~sites:10 rng in
  let spec = Traffic.make_flows ~nflows:12 rng topo in
  Alcotest.(check bool) "some flows" true (List.length spec.Traffic.flows > 5);
  List.iter
    (fun (f : Flow.t) ->
      Alcotest.(check bool) "at least 2 tunnels" true (Flow.num_tunnels f >= 2);
      let p, q = Flow.p_q f in
      Alcotest.(check bool) "p <= 1" true (p <= 1);
      Alcotest.(check bool) "q <= 3" true (q <= 3);
      Alcotest.(check bool) "demand positive" true
        (spec.Traffic.base_demand.(f.Flow.id) > 0.))
    spec.Traffic.flows

let test_series_shape () =
  let rng = Rng.create 6 in
  let topo = Topo_gen.lnet ~sites:6 rng in
  let spec = Traffic.make_flows ~nflows:5 rng topo in
  let s = Traffic.series rng ~intervals:7 spec in
  Alcotest.(check int) "intervals" 7 (Array.length s);
  Array.iter
    (fun d ->
      Alcotest.(check int) "flows" (Array.length spec.Traffic.base_demand) (Array.length d);
      Array.iter (fun v -> Alcotest.(check bool) "positive" true (v > 0.)) d)
    s

let test_split_priorities () =
  let rng = Rng.create 8 in
  let topo = Topo_gen.lnet ~sites:6 rng in
  let spec = Traffic.make_flows ~nflows:4 rng topo in
  let split = Traffic.split_priorities ~fractions:[ 0.2; 0.3; 0.5 ] spec in
  Alcotest.(check int) "3x flows" (3 * List.length spec.Traffic.flows)
    (List.length split.Traffic.flows);
  Alcotest.(check (float 1e-6)) "total preserved"
    (Traffic.total spec.Traffic.base_demand)
    (Traffic.total split.Traffic.base_demand);
  (* Ids are dense and match the demand array. *)
  List.iteri
    (fun i (f : Flow.t) -> Alcotest.(check int) "dense ids" i f.Flow.id)
    split.Traffic.flows

let test_split_priorities_validation () =
  let rng = Rng.create 8 in
  let topo = Topo_gen.lnet ~sites:6 rng in
  let spec = Traffic.make_flows ~nflows:4 rng topo in
  try
    ignore (Traffic.split_priorities ~fractions:[ 0.2; 0.2 ] spec);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "net"
    [
      ( "util",
        [
          case "rng deterministic" test_rng_deterministic;
          case "rng split" test_rng_split;
          QCheck_alcotest.to_alcotest prop_rng_int_bounds;
          case "shuffle is a permutation" test_rng_shuffle_permutation;
          case "sample without replacement" test_rng_sample_without_replacement;
          case "bernoulli bias" test_rng_bernoulli_bias;
          case "percentiles" test_stats_percentile;
          case "cdf" test_stats_cdf;
          QCheck_alcotest.to_alcotest prop_stats_cdf_inverse_monotone;
          case "stats misc" test_stats_misc;
          case "table render" test_table_render;
        ] );
      ( "topology",
        [
          case "basics" test_topology_basics;
          case "validation" test_topology_validation;
          case "links by id, fibres" test_topology_by_id;
          case "link array grows past doublings" test_topology_growth;
        ] );
      ( "tunnel", [ case "basics" test_tunnel_basics; case "validation" test_tunnel_validation ] );
      ( "paths",
        [
          case "shortest" test_shortest;
          case "shortest with banned link" test_shortest_banned;
          case "shortest with banned switch" test_shortest_banned_switch;
          case "non-finite metrics rejected" test_metric_rejects_non_finite;
          case "k-shortest" test_k_shortest;
          case "pq-disjoint" test_pq_disjoint;
          QCheck_alcotest.to_alcotest prop_pq_disjoint_respects_budgets;
          QCheck_alcotest.to_alcotest prop_k_shortest_loop_free;
        ] );
      ( "generators",
        [
          case "lnet connected" test_lnet_connected;
          case "snet structure" test_snet_structure;
          case "testbed structure" test_testbed_structure;
          case "make_flows" test_make_flows;
          case "series shape" test_series_shape;
          case "split priorities" test_split_priorities;
          case "split priorities validation" test_split_priorities_validation;
        ] );
    ]
