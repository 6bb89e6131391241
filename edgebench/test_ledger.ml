(* Checks of the ledger's own helpers: the tail percentile's sample rule and
   self time from nested spans. *)

module Obs = Ffc_obs.Obs

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  check "p90 of 100 samples is the 90th" (Ledger.tail_percentile 0.9 (upto 100) = Some 90.);
  check "p90 of 99 samples has 9 beyond: withheld" (Ledger.tail_percentile 0.9 (upto 99) = None);
  check "p90 ignores input order"
    (Ledger.tail_percentile 0.9 (List.rev (upto 150)) = Some 135.);
  check "p50 of 20 samples" (Ledger.tail_percentile 0.5 (upto 20) = Some 10.);
  check "nothing from no samples" (Ledger.tail_percentile 0.9 [] = None);
  check "median odd" (close (Ledger.median [ 3.; 1.; 2. ]) 2.);
  check "median even" (close (Ledger.median [ 4.; 1.; 3.; 2. ]) 2.5)

let span name start_ms dur_ms depth = { Obs.name; dom = 0; start_ms; dur_ms; depth }

let () =
  (* step [0,10) > rung [1,9) > solve [2,8) > ftran [3,4) and [5,7);
     then a second top-level step [20,25) with one rung child [21,22). *)
  let spans =
    [
      span "solve" 2. 6. 2;
      span "step" 0. 10. 0;
      span "ftran" 3. 1. 3;
      span "rung" 1. 8. 1;
      span "ftran" 5. 2. 3;
      span "step" 20. 5. 0;
      span "rung" 21. 1. 1;
    ]
  in
  let t = Ledger.self_times spans in
  check "step self = 10 - 8 + 5 - 1" (close (Ledger.self_ms t "step") 6.);
  check "rung self = 8 - 6 + 1" (close (Ledger.self_ms t "rung") 3.);
  check "solve self = 6 - 3" (close (Ledger.self_ms t "solve") 3.);
  check "ftran leaves keep all their time" (close (Ledger.self_ms t "ftran") 3.);
  check "ftran total" (close (Ledger.total_ms t "ftran") 3.);
  check "self times sum to top-level time"
    (close
       (List.fold_left (fun a n -> a +. Ledger.self_ms t n) 0. [ "step"; "rung"; "solve"; "ftran" ])
       15.);
  check "prefix sum" (close (Ledger.self_ms_prefix t "s") 9.);
  check "unknown span" (Ledger.self_ms t "nope" = 0.)

let () =
  let line = Ledger.result_line ~correct:true ~attempted:3 ~failed:0 [ ("a_ms", "ms", 1.5) ] in
  check "result line"
    (line
    = {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}}}|});
  if !failures > 0 then exit 1;
  print_endline "ledger helpers: ok"
