(* Tests for the domain pool (lib/util/pool.ml): the Array.map-exact
   contract (order, lowest-index exception selection), nested degradation,
   shutdown semantics, and the Validate parsers the CLI builds its
   range-checked converters from. *)

module Pool = Ffc_util.Pool
module Clock = Ffc_util.Clock
module Validate = Ffc_util.Validate

exception Boom of int

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      let n = 100 in
      let input = Array.init n (fun i -> i) in
      let out = Pool.map p (fun i -> i * i) input in
      Alcotest.(check (array int)) "squares at their index"
        (Array.init n (fun i -> i * i))
        out;
      (* Uneven task durations must not reorder results. *)
      let out =
        Pool.map p
          (fun i ->
            if i mod 7 = 0 then begin
              let s = ref 0 in
              for k = 0 to 20_000 do s := !s + k done;
              ignore (Sys.opaque_identity !s)
            end;
            i * 2)
          input
      in
      Alcotest.(check (array int)) "doubles despite skew"
        (Array.init n (fun i -> i * 2))
        out)

let test_map_empty () =
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check (array int)) "empty array" [||] (Pool.map p (fun x -> x) [||]))

let test_lowest_index_exception () =
  Pool.with_pool ~jobs:4 (fun p ->
      let input = Array.init 64 (fun i -> i) in
      (* Two failing indices: the lower one must win regardless of which
         domain hits which first. *)
      let run bad1 bad2 =
        match
          Pool.map p (fun i -> if i = bad1 || i = bad2 then raise (Boom i) else i) input
        with
        | _ -> Alcotest.fail "expected Boom"
        | exception Boom i -> i
      in
      Alcotest.(check int) "lowest of (9, 40)" 9 (run 9 40);
      Alcotest.(check int) "lowest of (63, 3)" 3 (run 63 3);
      (* The pool stays usable after a failing batch. *)
      Alcotest.(check (array int)) "pool survives failure"
        (Array.init 8 (fun i -> i + 1))
        (Pool.map p (fun i -> i + 1) (Array.init 8 (fun i -> i))))

let test_nested_map_degrades () =
  Pool.with_pool ~jobs:3 (fun p ->
      let out =
        Pool.map p
          (fun i ->
            (* A nested map from inside a task runs inline sequentially:
               same results, no deadlock. *)
            Array.fold_left ( + ) 0 (Pool.map p (fun j -> (10 * i) + j) [| 0; 1; 2 |]))
          [| 1; 2 |]
      in
      Alcotest.(check (array int)) "nested sums" [| 33; 63 |] out)

let test_jobs_one_inline () =
  Pool.with_pool ~jobs:1 (fun p ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs p);
      Alcotest.(check (array int)) "inline map" [| 1; 4; 9 |]
        (Pool.map p (fun i -> i * i) [| 1; 2; 3 |]))

(* A pool runs at most one domain per core, whatever width it was asked
   for: tasks that busy-wait about 2 ms never overlap more than that, and
   [jobs] still reports the requested width. *)
let test_one_domain_per_core () =
  let running = Atomic.make 0 and peak = Atomic.make 0 in
  let rec raise_peak now =
    let p = Atomic.get peak in
    if now > p && not (Atomic.compare_and_set peak p now) then raise_peak now
  in
  let task _ =
    raise_peak (1 + Atomic.fetch_and_add running 1);
    let t0 = Clock.now_ms () in
    while Clock.now_ms () -. t0 < 2. do
      ()
    done;
    Atomic.decr running
  in
  Pool.with_pool ~jobs:4 (fun p ->
      ignore (Pool.map p task (Array.make 32 ()));
      Alcotest.(check int) "jobs is the requested width" 4 (Pool.jobs p));
  let cap = min 4 (Pool.recommended_jobs ()) in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d concurrent tasks <= %d" (Atomic.get peak) cap)
    true
    (Atomic.get peak <= cap)

let test_shutdown () =
  let p = Pool.create ~jobs:3 in
  Alcotest.(check (array int)) "before shutdown" [| 0; 2; 4 |]
    (Pool.map p (fun i -> 2 * i) [| 0; 1; 2 |]);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map p (fun i -> i) [| 1 |]));
  Alcotest.check_raises "create ~jobs:0" (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> ignore (Pool.create ~jobs:0))

let test_validate () =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  Alcotest.(check (float 0.)) "probability" 0.25 (ok (Validate.probability "0.25"));
  Alcotest.(check int) "pos_int" 4 (ok (Validate.pos_int ~what:"--jobs" "4"));
  let rejected = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected rejection"
  in
  rejected (Validate.probability "1.5");
  rejected (Validate.probability "-0.1");
  rejected (Validate.probability "nan");
  rejected (Validate.probability "bogus");
  rejected (Validate.nonneg_float ~what:"--demand-noise" "-2");
  rejected (Validate.nonneg_float ~what:"--demand-noise" "inf");
  rejected (Validate.pos_float ~what:"--scale" "0");
  rejected (Validate.nonneg_int ~what:"--kc" "-1");
  rejected (Validate.pos_int ~what:"--jobs" "0");
  rejected (Validate.pos_int ~what:"--jobs" "2.5");
  (* Error messages are one-line and name the offending option. *)
  (match Validate.pos_int ~what:"--jobs" "0" with
  | Error e ->
    Alcotest.(check bool) "message names the option" true
      (String.length e > 0
      && (not (String.contains e '\n'))
      && String.length e >= 6
      && String.sub e 0 6 = "--jobs")
  | Ok _ -> Alcotest.fail "expected rejection")

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "order-preserving under skew" `Quick test_map_order;
          Alcotest.test_case "empty input" `Quick test_map_empty;
          Alcotest.test_case "lowest failing index wins" `Quick test_lowest_index_exception;
          Alcotest.test_case "nested map degrades inline" `Quick test_nested_map_degrades;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs_one_inline;
          Alcotest.test_case "at most one domain per core" `Quick test_one_domain_per_core;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown is idempotent and final" `Quick test_shutdown;
        ] );
      ("validate", [ Alcotest.test_case "range parsers" `Quick test_validate ]);
    ]
