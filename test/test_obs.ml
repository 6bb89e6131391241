(* Tests for the observability subsystem (lib/obs) and its supports: the
   injectable wall clock (mock-clock full-record identity), registry
   semantics (disabled no-op, idempotent registration, gauge ordering),
   per-domain shard merging (histogram merge exactness and associativity,
   j=1 vs j=4 snapshot identity), span capture (nesting depth, exception
   safety, ring wrap-around) and the structured event log — plus the
   Stats/Table edge cases the summary printers lean on. *)

open Ffc_core
module Sim = Ffc_sim
module Rng = Ffc_util.Rng
module Clock = Ffc_util.Clock
module Stats = Ffc_util.Stats
module Table = Ffc_util.Table
module Pool = Ffc_util.Pool
module Obs = Ffc_obs.Obs
module Json = Ffc_util.Json

(* Every test leaves the registry the way it found it: disabled and empty. *)
let pristine f () =
  Obs.disable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let invalid_arg_raised f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* Injectable clock                                                    *)
(* ------------------------------------------------------------------ *)

let test_clock_hook () =
  let tick = ref 0. in
  let fake () =
    tick := !tick +. 1.;
    !tick
  in
  let inside =
    Clock.with_hook fake (fun () ->
        let a = Clock.now_ms () in
        let b = Clock.now_ms () in
        (a, b, Clock.since_ms 0.5))
  in
  Alcotest.(check (triple (float 0.) (float 0.) (float 0.)))
    "hooked clock is the fake, tick by tick" (1., 2., 2.5) inside;
  (* with_hook restored the real clock, which moves forward. *)
  let t0 = Clock.now_ms () in
  Alcotest.(check bool) "real clock restored and monotone" true
    (Clock.since_ms t0 >= 0.);
  (* set_hook/clear_hook are the persistent form of the same switch. *)
  Clock.set_hook (fun () -> 42.);
  let pinned = Clock.now_ms () in
  Clock.clear_hook ();
  Alcotest.(check (float 0.)) "set_hook pins the clock" 42. pinned;
  (* with_hook restores on exception too. *)
  (try Clock.with_hook (fun () -> 7.) (fun () -> failwith "boom") with
  | Failure _ -> ());
  Alcotest.(check bool) "hook restored after an exception" true
    (Clock.now_ms () <> 7.)

let instant_model =
  {
    Sim.Update_model.name = "instant";
    rpc_s = (fun _ -> 0.);
    per_rule_s = (fun _ -> 0.);
    switch_factor = (fun _ -> 1.);
    rules_per_update = 1;
    config_fail_prob = 0.;
    outage_prob = 0.;
    outage_duration_s = (fun _ -> 0.);
  }

let proactive ~kc ~ke =
  Sim.Interval_sim.Proactive
    (fun _ ->
      Ffc.config
        ~protection:(Te_types.protection ~kc ~ke ())
        ~encoding:`Duality ~mice_fraction:0. ~ingress_skip_fraction:0. ())

(* The neutral-telemetry bit-identity contract, upgraded: under a mock
   clock the wall-clock fields (attempt solve_ms) are a deterministic
   function of how many times the code path read the clock, so the two
   arms' {e full} stat records — no stripping — must be equal. A divergence
   in either control flow or clock-read count fails this where the stripped
   comparison would pass. *)
let test_mock_clock_full_records () =
  let sc = Sim.Scenario.lnet_sim ~sites:4 (Rng.create 42) in
  let input = sc.Sim.Scenario.input in
  let series = Sim.Scenario.demand_series (Rng.create 8) sc ~scale:1.0 ~intervals:3 in
  let fm = Sim.Fault_model.lnet_like input.Te_types.topo in
  let arm telemetry =
    let tick = ref 0. in
    Clock.with_hook
      (fun () ->
        tick := !tick +. 0.125;
        !tick)
      (fun () ->
        let cfg =
          Sim.Interval_sim.default_config ~audit_budget:2 ?telemetry
            ~mode:(proactive ~kc:1 ~ke:1) ~update_model:instant_model fm
        in
        Sim.Interval_sim.run ~rng:(Rng.create 9) cfg input ~demand_series:series)
  in
  let perfect = arm None and neutral = arm (Some Sim.Telemetry.neutral) in
  Alcotest.(check bool)
    "full stat records (solve_ms included) identical under the mock clock" true
    (perfect = neutral)

(* ------------------------------------------------------------------ *)
(* Stats and Table edge cases                                          *)
(* ------------------------------------------------------------------ *)

let test_stats_empty () =
  Alcotest.(check (float 0.)) "mean of nothing is 0" 0. (Stats.mean []);
  Alcotest.(check (float 0.)) "sum of nothing is 0" 0. (Stats.sum []);
  Alcotest.(check (float 0.)) "stddev of a singleton is 0" 0. (Stats.stddev [ 3. ]);
  Alcotest.(check bool) "percentile of nothing raises" true
    (invalid_arg_raised (fun () -> Stats.percentile 50. []));
  Alcotest.(check bool) "median of nothing raises" true
    (invalid_arg_raised (fun () -> Stats.median []));
  Alcotest.(check bool) "cdf of nothing raises" true
    (invalid_arg_raised (fun () -> Stats.cdf_of_samples []));
  Alcotest.(check bool) "NaN sample rejected" true
    (invalid_arg_raised (fun () -> Stats.percentile 50. [ 1.; nan ]))

let test_stats_single_sample () =
  (* With one sample every percentile is that sample — the interpolation
     has no second order statistic to lean on. *)
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%g of a singleton" p)
        7.25
        (Stats.percentile p [ 7.25 ]))
    [ 0.; 25.; 50.; 99.; 100. ];
  Alcotest.(check (float 0.)) "median" 7.25 (Stats.median [ 7.25 ]);
  Alcotest.(check (float 0.)) "minimum" 7.25 (Stats.minimum [ 7.25 ]);
  Alcotest.(check (float 0.)) "maximum" 7.25 (Stats.maximum [ 7.25 ]);
  let c = Stats.cdf_of_samples [ 7.25 ] in
  Alcotest.(check (float 0.)) "any quantile of a one-point cdf" 7.25
    (Stats.cdf_inverse c 0.9);
  Alcotest.(check (float 0.)) "cdf below the point" 0. (Stats.cdf_eval c 7.);
  Alcotest.(check (float 0.)) "cdf at the point" 1. (Stats.cdf_eval c 7.25)

let test_table_edges () =
  (* Headers only: renders the header and separator, no data rows. *)
  let t = Table.create [ "a"; "bb" ] in
  let lines = String.split_on_char '\n' (String.trim (Table.to_string t)) in
  Alcotest.(check int) "empty table renders two lines" 2 (List.length lines);
  (* Short rows are padded, long headers set the width. *)
  let t = Table.create [ "name"; "x"; "y" ] in
  Table.add_row t [ "only" ];
  Table.add_floats t "f" [ 1.5; 2.25 ];
  let s = Table.to_string t in
  Alcotest.(check bool) "short row padded and floats at 2 decimals" true
    (String.length s > 0
    && String.length (String.concat "" (String.split_on_char '\n' s)) > 0);
  let has_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "add_floats prints 2 decimal places" true
    (has_sub "1.50" s && has_sub "2.25" s)

(* The one JSON writer behind --stats-json, the Obs exports and every
   BENCH artifact: both layouts of one value using every constructor,
   string escaping and the number format. *)
let test_json () =
  let v =
    Json.Obj
      [
        ("null", Null); ("bool", Bool true); ("int", Int (-3)); ("float", Float 1.5);
        ("string", String "s"); ("flat", List [ Int 1; Float 0.25; String "x" ]);
        ("rows", List [ Obj [ ("a", Int 1) ]; List [ Null ] ]);
        ("nested", Obj [ ("empty", List []); ("obj", Obj [ ("k", Bool false) ]) ]);
      ]
  in
  Alcotest.(check string) "compact"
    "{\"null\":null,\"bool\":true,\"int\":-3,\"float\":1.5,\"string\":\"s\",\"flat\":[1,0.25,\"x\"],\
     \"rows\":[{\"a\":1},[null]],\"nested\":{\"empty\":[],\"obj\":{\"k\":false}}}"
    (Json.to_string v);
  Alcotest.(check string) "indented; containers of scalars stay on one line"
    "{\n\
    \  \"null\": null,\n\
    \  \"bool\": true,\n\
    \  \"int\": -3,\n\
    \  \"float\": 1.5,\n\
    \  \"string\": \"s\",\n\
    \  \"flat\": [1,0.25,\"x\"],\n\
    \  \"rows\": [\n\
    \    {\"a\":1},\n\
    \    [null]\n\
    \  ],\n\
    \  \"nested\": {\n\
    \    \"empty\": [],\n\
    \    \"obj\": {\"k\":false}\n\
    \  }\n\
     }"
    (Json.to_string_indented v);
  Alcotest.(check string) "quote, backslash, newline, tab and control bytes escaped"
    "\"q\\\"b\\\\n\\nt\\t\\u0001\""
    (Json.to_string (String "q\"b\\n\nt\t\x01"));
  Alcotest.(check string) "non-finite floats are null; %.17g round-trips"
    "[null,null,null,0.10000000000000001]"
    (Json.to_string (List [ Float nan; Float infinity; Float neg_infinity; Float 0.1 ]))

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                  *)
(* ------------------------------------------------------------------ *)

let test_registry_basics () =
  let c = Obs.counter "t.reg.c" in
  let g = Obs.gauge "t.reg.g" in
  let h = Obs.histogram "t.reg.h" in
  (* Disabled (the default): recording is a no-op. *)
  Obs.incr c;
  Obs.set g 5.;
  Obs.observe h 1.;
  let value name =
    match List.assoc_opt name (Obs.snapshot ()) with
    | Some (Obs.Counter_v v) | Some (Obs.Gauge_v v) -> v
    | Some (Obs.Hist_v hh) -> hh.Obs.Hist.count
    | None -> nan
  in
  Alcotest.(check (float 0.)) "disabled counter stays 0" 0. (value "t.reg.c");
  Alcotest.(check (float 0.)) "disabled hist stays empty" 0. (value "t.reg.h");
  Obs.enable ();
  Obs.incr c;
  Obs.incr c;
  Obs.add c 3.;
  Obs.set g 1.;
  Obs.set g 9.;
  Obs.observe h 2.;
  Obs.observe h 1024.;
  Alcotest.(check (float 0.)) "counter adds up" 5. (value "t.reg.c");
  Alcotest.(check (float 0.)) "gauge is last write" 9. (value "t.reg.g");
  (match List.assoc_opt "t.reg.h" (Obs.snapshot ()) with
  | Some (Obs.Hist_v hh) ->
    Alcotest.(check (float 0.)) "hist count" 2. hh.Obs.Hist.count;
    Alcotest.(check (float 0.)) "hist sum exact on integral samples" 1026.
      hh.Obs.Hist.sum;
    Alcotest.(check (float 0.)) "hist min" 2. hh.Obs.Hist.hmin;
    Alcotest.(check (float 0.)) "hist max" 1024. hh.Obs.Hist.hmax
  | _ -> Alcotest.fail "histogram missing from snapshot");
  (* Registration is idempotent by name, and kind mismatches are refused. *)
  let c' = Obs.counter "t.reg.c" in
  Obs.enable ();
  Obs.incr c';
  Alcotest.(check (float 0.)) "re-registration aliases the same counter" 6.
    (value "t.reg.c");
  Alcotest.(check bool) "kind mismatch rejected" true
    (invalid_arg_raised (fun () -> Obs.gauge "t.reg.c"))

let test_hist_merge_associative () =
  (* Build histograms the way a shard would: integral bucket counts and
     integer-valued samples, so float addition is exact and the merge is
     associative and commutative in the strict [=] sense. *)
  let mk samples =
    List.fold_left
      (fun h v ->
        let buckets = Array.copy h.Obs.Hist.buckets in
        let i = Obs.Hist.bucket_of v in
        buckets.(i) <- buckets.(i) +. 1.;
        {
          Obs.Hist.buckets;
          count = h.Obs.Hist.count +. 1.;
          sum = h.Obs.Hist.sum +. v;
          hmin = min h.Obs.Hist.hmin v;
          hmax = max h.Obs.Hist.hmax v;
        })
      Obs.Hist.empty samples
  in
  let a = mk [ 1.; 2.; 3.; 1024.; 7. ] in
  let b = mk [ 0.; 5.; 5.; 5. ] in
  let c = mk [ 123456.; 2. ] in
  let ( ++ ) = Obs.Hist.merge in
  Alcotest.(check bool) "associative" true ((a ++ b) ++ c = a ++ (b ++ c));
  Alcotest.(check bool) "commutative" true (a ++ b = b ++ a);
  Alcotest.(check bool) "empty is the identity" true
    (a ++ Obs.Hist.empty = a && Obs.Hist.empty ++ a = a);
  Alcotest.(check (float 0.)) "merged count" 11. ((a ++ b ++ c).Obs.Hist.count);
  (* bucket_of sanity at the edges the recorder leans on. *)
  Alcotest.(check int) "tiny samples land in bucket 0" 0 (Obs.Hist.bucket_of 0.);
  Alcotest.(check bool) "huge samples stay in range" true
    (Obs.Hist.bucket_of infinity < Obs.Hist.n_buckets);
  Alcotest.(check bool) "uppers are monotone" true
    (Obs.Hist.bucket_upper 0 < Obs.Hist.bucket_upper 1
    && Obs.Hist.bucket_upper (Obs.Hist.n_buckets - 1) = infinity)

(* The cross-domain form of the same exactness claim: a fixed workload
   fanned out over Pool.map leaves per-domain shards whose merge is
   independent of how the work was sharded. *)
let test_shard_merge_identity () =
  let c = Obs.counter "t.shard.c" in
  let h = Obs.histogram "t.shard.h" in
  let items = Array.init 512 (fun i -> i) in
  let snapshot_at jobs =
    Obs.reset ();
    Obs.enable ~tracing:false ();
    Pool.with_pool ~jobs (fun p ->
        ignore
          (Pool.map p
             (fun i ->
               Obs.incr c;
               Obs.observe h (float_of_int (i land 15));
               i)
             items));
    let snap =
      List.filter (fun (n, _) -> String.starts_with ~prefix:"t.shard." n) (Obs.snapshot ())
    in
    Obs.disable ();
    snap
  in
  let s1 = snapshot_at 1 and s4 = snapshot_at 4 in
  Alcotest.(check bool) "merged snapshot identical at j=1 and j=4" true (s1 = s4);
  (match List.assoc_opt "t.shard.c" s4 with
  | Some (Obs.Counter_v v) -> Alcotest.(check (float 0.)) "counter total" 512. v
  | _ -> Alcotest.fail "counter missing")

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  Obs.enable ();
  Obs.with_span "outer" (fun () ->
      Obs.with_span "left" (fun () -> ignore (Sys.opaque_identity 1));
      Obs.with_span "right" (fun () ->
          Obs.span_event "leaf" ~start_ms:0. ~dur_ms:1.));
  let sp = List.sort (fun a b -> compare a.Obs.start_ms b.Obs.start_ms) (Obs.spans ()) in
  let by_name n = List.find (fun s -> s.Obs.name = n) sp in
  Alcotest.(check int) "four spans retained" 4 (List.length sp);
  Alcotest.(check int) "outer at depth 0" 0 (by_name "outer").Obs.depth;
  Alcotest.(check int) "left nested once" 1 (by_name "left").Obs.depth;
  Alcotest.(check int) "right nested once" 1 (by_name "right").Obs.depth;
  Alcotest.(check int) "span_event leaf records below its parent" 2
    (by_name "leaf").Obs.depth;
  let outer = by_name "outer" and left = by_name "left" in
  Alcotest.(check bool) "parent brackets the child" true
    (outer.Obs.start_ms <= left.Obs.start_ms
    && outer.Obs.start_ms +. outer.Obs.dur_ms >= left.Obs.start_ms +. left.Obs.dur_ms);
  (* Exceptions record the span and re-raise; the depth unwinds. *)
  (try Obs.with_span "thrower" (fun () -> failwith "boom") with Failure _ -> ());
  Obs.with_span "after" (fun () -> ());
  let sp = Obs.spans () in
  Alcotest.(check bool) "thrown-through span recorded" true
    (List.exists (fun s -> s.Obs.name = "thrower" && s.Obs.depth = 0) sp);
  Alcotest.(check bool) "depth unwound for the next span" true
    (List.exists (fun s -> s.Obs.name = "after" && s.Obs.depth = 0) sp);
  (* Exporters stay well-formed on what we recorded. *)
  Alcotest.(check bool) "trace json mentions every span" true
    (let j = Obs.trace_json () in
     List.for_all
       (fun n ->
         let needle = Printf.sprintf "\"name\":\"%s\"" n in
         let rec go i =
           i + String.length needle <= String.length j
           && (String.sub j i (String.length needle) = needle || go (i + 1))
         in
         go 0)
       [ "outer"; "left"; "right"; "leaf"; "thrower"; "after" ])

let test_span_ring_wraps () =
  (* A fresh domain picks up the capacity in force when its ring is
     created; overflow overwrites the oldest entries and counts drops. *)
  Obs.set_ring_capacity 16;
  Obs.enable ();
  let res =
    Domain.join
      (Domain.spawn (fun () ->
           for i = 1 to 40 do
             Obs.span_event "wrap" ~start_ms:(float_of_int i) ~dur_ms:1.
           done;
           ()))
  in
  res;
  Obs.set_ring_capacity 32768;
  let mine = List.filter (fun s -> s.Obs.name = "wrap") (Obs.spans ()) in
  Alcotest.(check int) "ring retains its capacity" 16 (List.length mine);
  Alcotest.(check bool) "oldest entries were dropped, newest kept" true
    (List.for_all (fun s -> s.Obs.start_ms > 24.) mine);
  Alcotest.(check bool) "drops accounted" true (Obs.dropped_spans () >= 24)

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let test_events () =
  Obs.set_stderr_level None;
  Fun.protect ~finally:(fun () -> Obs.set_stderr_level (Some Obs.Warn)) @@ fun () ->
  (* Events are retained even with the registry disabled — the structured
     replacements for stderr warnings must never be silenced by the
     metrics switch. *)
  Obs.event ~level:Obs.Error "t.ev.disabled" [ ("k", Obs.Str "v") ];
  Obs.enable ();
  Obs.event "t.ev.info"
    [ ("n", Obs.Int 3); ("x", Obs.Float 1.5); ("b", Obs.Bool true) ];
  let evs = Obs.events () in
  Alcotest.(check int) "both events retained" 2 (List.length evs);
  (match evs with
  | [ first; second ] ->
    Alcotest.(check string) "oldest first" "t.ev.disabled" first.Obs.ev_name;
    Alcotest.(check bool) "level kept" true (first.Obs.ev_level = Obs.Error);
    Alcotest.(check string) "fields kept in order" "n" (fst (List.hd second.Obs.ev_fields))
  | _ -> Alcotest.fail "expected exactly two events");
  (* The JSON export carries the events. *)
  let j = Obs.metrics_json () in
  let has_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "metrics json includes the event log" true
    (has_sub "t.ev.disabled" j && has_sub "t.ev.info" j);
  Alcotest.(check bool) "prometheus text sanitises names" true
    (has_sub "ffc_" (Obs.metrics_prometheus ()))

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "hook install/restore" `Quick (pristine test_clock_hook);
          Alcotest.test_case "mock-clock full-record neutral identity" `Quick
            (pristine test_mock_clock_full_records);
        ] );
      ( "stats-table",
        [
          Alcotest.test_case "empty-sample edges" `Quick (pristine test_stats_empty);
          Alcotest.test_case "single-sample percentiles" `Quick
            (pristine test_stats_single_sample);
          Alcotest.test_case "table edges" `Quick (pristine test_table_edges);
        ] );
      ("json", [ Alcotest.test_case "printers, escaping, numbers" `Quick test_json ]);
      ( "registry",
        [
          Alcotest.test_case "counters, gauges, histograms" `Quick
            (pristine test_registry_basics);
          Alcotest.test_case "histogram merge associativity" `Quick
            (pristine test_hist_merge_associative);
          Alcotest.test_case "shard merge identity j=1 vs j=4" `Quick
            (pristine test_shard_merge_identity);
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting, exceptions, exporters" `Quick
            (pristine test_span_nesting);
          Alcotest.test_case "ring wrap-around" `Quick (pristine test_span_ring_wraps);
        ] );
      ("events", [ Alcotest.test_case "structured event log" `Quick (pristine test_events) ]);
    ]
