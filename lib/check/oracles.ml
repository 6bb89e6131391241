(* The differential and invariant oracles run by the fuzzing harness.

   Each oracle checks a property that must hold for *every* instance, using
   an independent reference: a second LP solver, a dense linear-algebra
   reconstruction, the exhaustive fault-case enumerator, or a
   reimplementation of the accounting being tested. Failure messages are
   prefixed with a category (up to the first ':') so shrinking preserves the
   failure kind; see {!Fuzz.category}. *)

open Ffc_lp
open Ffc_net
open Ffc_core
module Rng = Ffc_util.Rng

let failf fmt = Printf.ksprintf (fun s -> Fuzz.Fail s) fmt

(* ------------------------------------------------------------------ *)
(* LP: revised (with and without presolve) vs dense tableau            *)
(* ------------------------------------------------------------------ *)

(* Both solvers' verdicts are compared as [Dense_tableau.result]s: the
   revised simplex's through [Dense_tableau.of_outcome]. *)
let status_label = function
  | Problem.Optimal -> "optimal"
  | Problem.Infeasible -> "infeasible"
  | Problem.Unbounded -> "unbounded"
  | Problem.Iteration_limit -> "iteration-limit"
  | Problem.Deadline_exceeded -> "deadline"

let label (r : Dense_tableau.result) = status_label r.Dense_tableau.status
let optimal (r : Dense_tableau.result) = r.Dense_tableau.status = Problem.Optimal
let objective (r : Dense_tableau.result) = r.Dense_tableau.objective

let obj_close a b = abs_float (a -. b) <= 1e-5 *. (1. +. max (abs_float a) (abs_float b))

(* Largest relative constraint/bound violation of a point. Used at two
   scales: [1e-6] is the loose acceptance matching solver feasibility
   tolerances, [1e-10] is the strict level that certifies a point as a
   genuine witness when adjudicating a disagreement -- adversarial
   instances contain near-parallel rows whose exact optimum is ill-defined
   at solver tolerance, and a mismatch only proves a bug if the winning
   point satisfies the instance much more tightly than tolerance. *)
let lp_violation ?(with_mass = true) (t : Gen.lp) x =
  let worst = ref 0. in
  Array.iteri
    (fun j v ->
      let scale = 1. +. abs_float v in
      let over = max (t.Gen.lb.(j) -. v) (v -. t.Gen.ub.(j)) in
      if over /. scale > !worst then worst := over /. scale)
    x;
  List.iter
    (fun (r : Gen.lp_row) ->
      let lhs = ref 0. and mass = ref 0. in
      Array.iteri
        (fun j c ->
          lhs := !lhs +. (c *. x.(j));
          mass := !mass +. abs_float (c *. x.(j)))
        r.Gen.coeffs;
      let scale =
        1. +. abs_float r.Gen.rhs +. (if with_mass then !mass else 0.)
      in
      let viol =
        match r.Gen.sense with
        | Gen.Le -> !lhs -. r.Gen.rhs
        | Gen.Ge -> r.Gen.rhs -. !lhs
        | Gen.Eq -> abs_float (!lhs -. r.Gen.rhs)
      in
      if viol /. scale > !worst then worst := viol /. scale)
    t.Gen.rows;
  !worst

(* The strict certificate deliberately drops the term-mass from the row
   scale: a solver exploiting its 1e-6 row tolerance at a large-magnitude
   point would otherwise have its (absolute ~1e-7) residual diluted below
   the strict threshold, certifying a tolerance artifact as a witness. *)
let strictly_feasible t x = lp_violation ~with_mass:false t x <= 1e-10

let point t xs (r : Dense_tableau.result) =
  Array.init (Gen.lp_nvars t) (fun j -> r.Dense_tableau.x.(xs.(j)))

(* Relax the inequality right-hand sides a little so the warm-started
   re-solve starts from a near-optimal but non-final basis. *)
let relax_lp (t : Gen.lp) =
  {
    t with
    Gen.rows =
      List.map
        (fun (r : Gen.lp_row) ->
          match r.Gen.sense with
          | Gen.Le -> { r with Gen.rhs = r.Gen.rhs +. 0.125 }
          | Gen.Ge -> { r with Gen.rhs = r.Gen.rhs -. 0.125 }
          | Gen.Eq -> r)
        t.Gen.rows;
  }

(* Move every objective coefficient by 1.5, alternately up and down, so a
   warm basis from the original objective usually starts dual infeasible. *)
let reweigh_lp (t : Gen.lp) =
  { t with Gen.obj = Array.mapi (fun j c -> if j land 1 = 0 then c +. 1.5 else c -. 1.5) t.Gen.obj }

let budget_outcome (r : Dense_tableau.result) =
  match r.Dense_tableau.status with
  | Problem.Iteration_limit | Problem.Deadline_exceeded -> true
  | _ -> false

(* A warm-started revised solve of [t'] from [basis] against a cold dense
   solve, adjudicated like the cold legs: a disagreement counts only with a
   strict witness for the better value (or against an infeasible verdict),
   never on tolerance ambiguity near a huge optimum. *)
let warm_leg basis ?row_ids category what (t' : Gen.lp) =
  let m1, xs1 = Gen.lp_model ?row_ids t' in
  let m2, _ = Gen.lp_model ?row_ids t' in
  let w1 = Dense_tableau.of_outcome m1 (Model.solve ~presolve:false ~warm_start:basis m1) in
  let w2 = Dense_tableau.solve m2 in
  if budget_outcome w1 || budget_outcome w2 then Fuzz.Pass
  else
    match (optimal w1, optimal w2) with
    | true, true ->
      let a = objective w1 and b = objective w2 in
      if obj_close a b then Fuzz.Pass
      else
        let best = max a b in
        let proves =
          List.exists
            (fun u ->
              objective u >= best -. (1e-7 *. (1. +. abs_float best))
              && strictly_feasible t' (point t' xs1 u))
            [ w1; w2 ]
        in
        if proves then failf "%s: warm revised=%.9g dense=%.9g (%s)" category a b what
        else Fuzz.Skip "ill-conditioned (warm leg)"
    | true, false | false, true ->
      let u, other = if optimal w1 then (w1, w2) else (w2, w1) in
      if
        (other.Dense_tableau.status = Problem.Infeasible
        && strictly_feasible t' (point t' xs1 u))
        || (other.Dense_tableau.status = Problem.Unbounded && abs_float (objective u) <= 1e6)
      then failf "%s: warm revised=%s dense=%s (%s)" category (label w1) (label w2) what
      else Fuzz.Skip "ill-conditioned (warm leg)"
    | false, false -> Fuzz.Pass

let lp_test (t : Gen.lp) =
  (* Variable handles are structural — identical across models built from the
     same instance (the warm leg below has always relied on this) — but
     [Model.solve] caches stats on the model, so each leg solves its own
     freshly built copy. *)
  let _, xs = Gen.lp_model t in
  let revised ~presolve =
    let m, _ = Gen.lp_model t in
    let o = Model.solve ~presolve m in
    (Dense_tableau.of_outcome m o, o)
  in
  let o_rev, _ = revised ~presolve:true in
  let o_raw, raw = revised ~presolve:false in
  let o_dense = Dense_tableau.solve ~presolve:true (fst (Gen.lp_model t)) in
  let legs = [ o_rev; o_raw; o_dense ] in
  if List.exists budget_outcome legs then Fuzz.Skip "budget outcome"
  else begin
    let labels = List.map label legs in
    let describe () =
      Printf.sprintf "revised=%s nopresolve=%s dense=%s" (List.nth labels 0)
        (List.nth labels 1) (List.nth labels 2)
    in
    let sols = List.filter optimal legs in
    let strict_witness () =
      List.exists (fun s -> strictly_feasible t (point t xs s)) sols
    in
    if List.exists (( <> ) (List.hd labels)) labels then begin
      (* Status disagreement: flag only with a strict witness against an
         infeasible verdict, or when no huge-optimum/unbounded ambiguity
         explains it. *)
      let has l = List.mem l labels in
      if has "infeasible" && sols <> [] then
        if strict_witness () then failf "status-mismatch: %s" (describe ())
        else Fuzz.Skip "ill-conditioned (loose witness only)"
      else if has "unbounded" && sols <> [] then
        if List.exists (fun s -> abs_float (objective s) > 1e6) sols
        then Fuzz.Skip "ill-conditioned (huge optimum vs unbounded)"
        else failf "status-mismatch: %s" (describe ())
      else failf "status-mismatch: %s" (describe ())
    end
    else
      match raw with
      | Model.Optimal s2 ->
        let v1 = objective o_rev and v2 = objective o_raw and v3 = objective o_dense in
        let viol =
          List.find_map
            (fun (name, s) ->
              let v = lp_violation t (point t xs s) in
              if v > 1e-6 then Some (name, v) else None)
            [ ("revised", o_rev); ("nopresolve", o_raw); ("dense", o_dense) ]
        in
        (match viol with
         | Some (name, v) ->
           failf "feasibility: %s solution violates the instance by %.3g" name v
         | None ->
           if not (obj_close v1 v3 && obj_close v2 v3 && obj_close v1 v2) then begin
             (* Only a strictly feasible point at the best value proves the
                others suboptimal. *)
             let best = max v1 (max v2 v3) in
             let proves =
               List.exists
                 (fun s ->
                   objective s >= best -. (1e-7 *. (1. +. abs_float best))
                   && strictly_feasible t (point t xs s))
                 sols
             in
             if proves then
               failf "objective-mismatch: revised=%.9g nopresolve=%.9g dense=%.9g" v1 v2 v3
             else Fuzz.Skip "ill-conditioned (objectives differ within tolerance slop)"
           end
           else
             (* Warm-start legs, each seeded with the final cold basis and
                checked against a cold dense solve: a relaxed copy (same
                shape), a reshaped one (a row dropped, an objective cut
                that the old optimum violates added) whose basis must be
                mapped by key, and the reshaped one under a moved
                objective, whose warm start is then usually primal and
                dual infeasible. *)
             let basis = Model.solution_basis s2 in
             let t', row_ids = Gen.lp_reshape t ~cap:(v2 -. (0.125 *. (1. +. abs_float v2))) in
             let legs =
               [
                 (fun () -> warm_leg basis "warm-mismatch" "after rhs relaxation" (relax_lp t));
                 (fun () ->
                   warm_leg basis ~row_ids "warm-shape-mismatch" "after row set change" t');
                 (fun () ->
                   warm_leg basis ~row_ids "warm-cost-mismatch"
                     "after row set and objective change" (reweigh_lp t'));
               ]
             in
             List.fold_left
               (fun verdict leg -> match verdict with Fuzz.Pass -> leg () | v -> v)
               Fuzz.Pass legs)
      | _ -> Fuzz.Pass (* statuses agree on infeasible/unbounded *)
  end

(* ------------------------------------------------------------------ *)
(* Sparse LU vs dense reconstruction                                   *)
(* ------------------------------------------------------------------ *)

(* Dense image of the factorised basis under the pivot convention: the
   column pivoted at row [r] occupies dense column [r]; completed rows are
   implicit unit columns; rejected columns (slot [-1]) are left out.
   Updates overwrite dense column [r]. *)
let dense_of_lu m cols row_of_col completed =
  let b = Array.make_matrix m m 0. in
  Array.iteri
    (fun k (rows, vals) ->
      let slot = row_of_col.(k) in
      if slot >= 0 then
        Array.iteri (fun u r -> b.(r).(slot) <- b.(r).(slot) +. vals.(u)) rows)
    cols;
  List.iter (fun r -> b.(r).(r) <- 1.) completed;
  b

let lu_residuals ~tol m dense lu =
  let rhss =
    [
      ("ones", Array.make m 1.);
      ("e0", Array.init m (fun i -> if i = 0 then 1. else 0.));
      ("alt", Array.init m (fun i -> if i mod 2 = 0 then 1. else -1.));
    ]
  in
  let check dir solve mat_vec =
    List.find_map
      (fun (name, rhs) ->
        let x = Array.copy rhs in
        solve x;
        let xinf = Array.fold_left (fun acc v -> max acc (abs_float v)) 0. x in
        let worst = ref 0. in
        for i = 0 to m - 1 do
          let s = mat_vec x i in
          worst := max !worst (abs_float (s -. rhs.(i)))
        done;
        if !worst > tol *. (1. +. xinf) then
          Some (Printf.sprintf "residual: %s %s residual %.3g (tol %.3g, m=%d)"
                  dir name !worst (tol *. (1. +. xinf)) m)
        else None)
      rhss
  in
  let bx x i =
    let s = ref 0. in
    for r = 0 to m - 1 do s := !s +. (dense.(i).(r) *. x.(r)) done;
    !s
  in
  let btx y i =
    let s = ref 0. in
    for j = 0 to m - 1 do s := !s +. (dense.(j).(i) *. y.(j)) done;
    !s
  in
  match check "ftran" (Sparse_lu.ftran lu) bx with
  | Some msg -> Some msg
  | None -> check "btran" (Sparse_lu.btran lu) btx

(* Residuals of a factorised basis, then, after the column replacements
   [updates] (tracked densely in [dense]), again at a looser tolerance. *)
let lu_residuals_updated m dense lu updates =
  match lu_residuals ~tol:1e-6 m dense lu with
  | Some msg -> Some msg
  | None -> (
    List.iter
      (fun (r, a) ->
        let w = Array.copy a in
        Sparse_lu.ftran lu w;
        if abs_float w.(r) > 1e-3 then begin
          Sparse_lu.update lu ~r ~w;
          for i = 0 to m - 1 do
            dense.(i).(r) <- a.(i)
          done
        end)
      updates;
    match lu_residuals ~tol:1e-5 m dense lu with
    | Some msg -> Some ("residual: after updates, " ^ String.sub msg 10 (String.length msg - 10))
    | None -> None)

(* An instance's columns, [(rows, values)] pairs, flattened into the form
   {!Sparse_lu.factorise} takes. *)
let factorise ?(repair = false) ~m ~complete cols =
  let ncols = Array.length cols in
  let col_start = Array.make (ncols + 1) 0 in
  Array.iteri (fun k (rows, _) -> col_start.(k + 1) <- col_start.(k) + Array.length rows) cols;
  let row_idx = Array.concat (Array.to_list (Array.map fst cols)) in
  let col_val = Array.concat (Array.to_list (Array.map snd cols)) in
  Sparse_lu.factorise ~repair ~m ~complete ~ncols ~col_start ~row_idx ~col_val

(* Slack leg: a basis made mostly of identity steps, as warm simplex bases
   are. Even column [k] becomes the unit column at row [k], -1 at [k = 0]
   and 1 elsewhere; odd column [k] is divided by its first nonzero entry on
   row [k], so that its diagonal is exactly 1. The triangular solves skip
   the steps with no multipliers, no U entries and pivot 1, and the
   diagonally dominant bases (diagonals 4 to 6) only make such steps of
   completed rows; here a -1 unit pivot and pivot-1 steps with U entries
   meet the skip too. The leg draws nothing from the RNG, and an instance
   with no nonzero diagonal entry in an odd column is left to the other
   legs. *)
let lu_slack_leg (t : Gen.lu) =
  let m = t.Gen.lu_m in
  let diagonal k (rows, vals) =
    let d = ref 0. in
    Array.iteri (fun u r -> if !d = 0. && r = k then d := vals.(u)) rows;
    !d
  in
  let cols =
    Array.mapi
      (fun k ((rows, vals) as col) ->
        if k mod 2 = 0 then Some ([| k |], [| (if k = 0 then -1. else 1.) |])
        else
          let d = diagonal k col in
          if d = 0. then None else Some (rows, Array.map (fun v -> v /. d) vals))
      t.Gen.cols
  in
  if not (t.Gen.must_factor && Array.for_all Option.is_some cols) then Fuzz.Pass
  else
    let cols = Array.map Option.get cols in
    match factorise ~m ~complete:t.Gen.complete cols with
    | None -> failf "slack: factorise returned None on a unit-diagonal basis (m=%d)" m
    | Some { Sparse_lu.lu; row_of_col; completed_rows; _ } -> (
      match lu_residuals_updated m (dense_of_lu m cols row_of_col completed_rows) lu t.Gen.lu_updates with
      | Some msg -> Fuzz.Fail ("slack: " ^ msg)
      | None -> Fuzz.Pass)

(* Repair leg: the factorisation a mapped warm basis gets. On a basis built
   nonsingular, two columns dependent on the supplied ones are appended
   (often more columns than rows); repair mode must then reject exactly
   two and solve the kept-plus-completed basis to residual. On one built
   exactly singular it must reject at least one, and the rest must solve.
   Always: it succeeds, rejected columns get no slot, and every row is
   covered once. *)
let lu_repair_leg (t : Gen.lu) =
  let m = t.Gen.lu_m and n = Array.length t.Gen.cols in
  let cols = Gen.lu_repair_cols t in
  let extra = Array.length cols - n in
  match factorise ~repair:true ~m ~complete:t.Gen.complete cols with
  | None -> failf "repair: repair-mode factorise returned None (m=%d, %d columns)" m (Array.length cols)
  | Some { Sparse_lu.lu; row_of_col; completed_rows; rejected } ->
    let cover = Array.make m 0 in
    Array.iteri (fun k slot -> if slot >= 0 && not (List.mem k rejected) then cover.(slot) <- cover.(slot) + 1) row_of_col;
    List.iter (fun r -> cover.(r) <- cover.(r) + 1) completed_rows;
    let nrej = List.length rejected in
    if List.exists (fun k -> row_of_col.(k) <> -1) rejected then
      failf "repair: a rejected column holds a pivot row (m=%d)" m
    else if not (Array.for_all (( = ) 1) cover) then
      failf "repair: rows not covered exactly once (m=%d)" m
    else if t.Gen.must_factor && nrej <> extra then
      failf "repair: rejected %d columns of a rank-%d set with %d dependent (m=%d)" nrej n
        extra m
    else if t.Gen.must_reject && nrej = 0 then
      failf "repair: kept every column of an exactly singular basis (m=%d)" m
    else if not (t.Gen.must_factor || t.Gen.must_reject) then Fuzz.Pass
    else
      match lu_residuals ~tol:1e-6 m (dense_of_lu m cols row_of_col completed_rows) lu with
      | Some msg -> Fuzz.Fail ("repair: " ^ msg)
      | None -> Fuzz.Pass

(* Every factorisation here runs on its domain's {!Sparse_lu} scratch,
   grown and reset across instances (and shared with any solve on that
   domain), so the oracle exercises the scratch reuse path the way a
   long-lived simplex does. *)
let lu_test (t : Gen.lu) =
  let m = t.Gen.lu_m in
  let main =
    match factorise ~m ~complete:t.Gen.complete t.Gen.cols with
    | None ->
      if t.Gen.must_factor then
        failf "rejected-nonsingular: factorise returned None on a diagonally dominant basis (m=%d)"
          m
      else Fuzz.Pass
    | Some { Sparse_lu.lu; row_of_col; completed_rows; _ } ->
      if t.Gen.must_reject then
        failf "accepted-singular: factorise accepted an exactly singular basis (m=%d)" m
      else begin
        (* Structural invariants of the pivot assignment. *)
        let ncols = Array.length t.Gen.cols in
        let used = Array.make m false in
        let structural = ref None in
        if Array.length row_of_col <> ncols then
          structural := Some "row_of_col length differs from column count"
        else
          Array.iter
            (fun r ->
              if r < 0 || r >= m then structural := Some "pivot row out of range"
              else if used.(r) then structural := Some "pivot row assigned twice"
              else used.(r) <- true)
            row_of_col;
        List.iter
          (fun r ->
            if r < 0 || r >= m || used.(r) then
              structural := Some "completed row clashes with a pivot row"
            else used.(r) <- true)
          completed_rows;
        if t.Gen.complete && Array.exists not used then
          structural := Some "complete factorisation left a row uncovered";
        match !structural with
        | Some what -> failf "structure: %s (m=%d)" what m
        | None ->
          if not t.Gen.must_factor then Fuzz.Pass
            (* near-singular: accepting is fine, no residual contract *)
          else begin
            let dense = dense_of_lu m t.Gen.cols row_of_col completed_rows in
            match lu_residuals_updated m dense lu t.Gen.lu_updates with
            | Some msg -> Fuzz.Fail msg
            | None -> Fuzz.Pass
          end
      end
  in
  List.fold_left
    (fun verdict leg -> match verdict with Fuzz.Pass -> leg t | v -> v)
    main [ lu_slack_leg; lu_repair_leg ]

(* ------------------------------------------------------------------ *)
(* FFC: encoding agreement + exhaustive guarantee audit                *)
(* ------------------------------------------------------------------ *)

let enumeration_cap = 20_000

let ffc_test (t : Gen.te) =
  let input = Gen.te_input t in
  if input.Te_types.flows = [] then Fuzz.Skip "no flows"
  else begin
    let kc = t.Gen.kc and ke = t.Gen.ke and kv = t.Gen.kv in
    let cost =
      Enumerate.control_constraint_count input ~kc
      + Enumerate.data_constraint_count input ~ke ~kv
    in
    if cost > enumeration_cap then Fuzz.Skip "too large for the exhaustive oracle"
    else begin
      let protection = Te_types.protection ~kc ~ke ~kv () in
      let prev =
        match Basic_te.solve input with
        | Ok a -> a
        | Error _ -> Te_types.zero_allocation input
      in
      let solve encoding =
        (* rescale_aware is required for a sound simultaneous (kc, ke/kv)
           guarantee; exact optimisations off so encodings are comparable. *)
        let config =
          Ffc.config ~protection ~encoding ~mice_fraction:0. ~ingress_skip_fraction:0.
            ~rescale_aware:(kc > 0 && ke + kv > 0) ()
        in
        Ffc.solve_checked ~config ~prev input
      in
      let r_sort = solve `Sorting_network in
      let r_dual = solve `Duality in
      match (r_sort, r_dual) with
      | Error f, _ | _, Error f ->
        (* Zero allocation is always feasible and bf <= demand bounds the
           objective, so any failure here is a solver bug. *)
        failf "solver-failure: %s (%s)" f.Te_types.message
          (Te_types.failure_kind_label f.Te_types.kind)
      | Ok rs, Ok rd ->
        let ts = Te_types.throughput rs.Ffc.alloc
        and td = Te_types.throughput rd.Ffc.alloc in
        if not (obj_close ts td) then
          failf "encoding-mismatch: sorting-network %.9g vs duality %.9g" ts td
        else begin
          let alloc = rs.Ffc.alloc in
          let over =
            List.find_map
              (fun (f : Flow.t) ->
                let id = f.Flow.id in
                let bf = alloc.Te_types.bf.(id) and d = input.Te_types.demands.(id) in
                if bf > d +. (1e-6 *. (1. +. d)) || bf < -1e-9 then Some (id, bf, d)
                else None)
              input.Te_types.flows
          in
          match over with
          | Some (id, bf, d) ->
            failf "guarantee: flow %d granted %.9g outside [0, demand %.9g]" id bf d
          | None ->
            let checks =
              [
                (ke + kv > 0, fun () ->
                  Result.map_error (fun e -> "data-plane: " ^ e)
                    (Enumerate.verify_data_plane input alloc ~ke ~kv));
                (kc > 0, fun () ->
                  Result.map_error (fun e -> "control-plane: " ^ e)
                    (Enumerate.verify_control_plane input ~old_alloc:prev
                       ~new_alloc:alloc ~kc));
                (kc > 0 && ke + kv > 0, fun () ->
                  Result.map_error (fun e -> "combined: " ^ e)
                    (Enumerate.verify_combined input ~old_alloc:prev ~new_alloc:alloc
                       ~protection));
              ]
            in
            let run_check (active, run) =
              if active then (match run () with Ok () -> None | Error e -> Some e)
              else None
            in
            (match List.find_map run_check checks with
             | Some e -> failf "guarantee: %s" e
             | None -> Fuzz.Pass)
        end
    end
  end

(* ------------------------------------------------------------------ *)
(* Simulator: conservation and priority-drop accounting                *)
(* ------------------------------------------------------------------ *)

let sim_test (s : Gen.sim) =
  let t = s.Gen.sim_te in
  let input = Gen.te_input t in
  if input.Te_types.flows = [] then Fuzz.Skip "no flows"
  else begin
    let mem a x = Array.exists (fun y -> y = x) a in
    let alloc =
      match Basic_te.solve input with
      | Ok a -> a
      | Error _ -> Te_types.zero_allocation input
    in
    let old_alloc =
      if s.Gen.old_zero then Te_types.zero_allocation input
      else
        let scaled =
          { input with Te_types.demands = Array.map (fun d -> 0.7 *. d) input.Te_types.demands }
        in
        match Basic_te.solve scaled with
        | Ok a -> a
        | Error _ -> Te_types.zero_allocation input
    in
    let rates =
      Rescale.rescale input alloc ~stuck:(mem s.Gen.stuck)
        ~old_alloc_of:(fun _ -> old_alloc)
        ~failed_links:(mem s.Gen.failed_links)
        ~failed_switches:(mem s.Gen.failed_switches) ()
    in
    (* Per-flow conservation: emitted + undeliverable = granted rate. *)
    let bad_flow =
      List.find_map
        (fun (f : Flow.t) ->
          let id = f.Flow.id in
          let bf = alloc.Te_types.bf.(id) in
          let sent = Array.fold_left ( +. ) 0. rates.Rescale.tunnel_rates.(id) in
          let und = rates.Rescale.undeliverable.(id) in
          if abs_float ((sent +. und) -. bf) > 1e-6 *. (1. +. bf) then
            Some (id, bf, sent, und)
          else None)
        input.Te_types.flows
    in
    match bad_flow with
    | Some (id, bf, sent, und) ->
      failf "flow-conservation: flow %d rate %.9g but sent %.9g + undeliverable %.9g" id bf
        sent und
    | None ->
      let loads = Rescale.loads input rates.Rescale.tunnel_rates in
      let by_class = Ffc_sim.Loss.loads_by_class input rates.Rescale.tunnel_rates in
      let nl = Topology.num_links input.Te_types.topo in
      let nc = Array.length by_class in
      let bad_link = ref None in
      for l = 0 to nl - 1 do
        let s = ref 0. in
        for c = 0 to nc - 1 do
          s := !s +. by_class.(c).(l)
        done;
        if abs_float (!s -. loads.(l)) > 1e-6 *. (1. +. loads.(l)) then
          bad_link := Some (l, !s, loads.(l))
      done;
      (match !bad_link with
       | Some (l, a, b) ->
         failf "load-mismatch: link %d class-summed load %.9g vs %.9g" l a b
       | None ->
         (* Reference drop accounting via prefix sums: under strict priority,
            class c drops overflow(prefix up to c) - overflow(prefix below c)
            on each link. Algebraically equal to the greedy serve loop in
            [Loss.congestion_rates], computed differently on purpose. *)
         let ref_drops = Array.make nc 0. in
         Array.iter
           (fun (l : Topology.link) ->
             let lid = l.Topology.id in
             let prefix = ref 0. in
             let over x = max 0. (x -. l.Topology.capacity) in
             for c = 0 to nc - 1 do
               let below = over !prefix in
               prefix := !prefix +. by_class.(c).(lid);
               ref_drops.(c) <- ref_drops.(c) +. (over !prefix -. below)
             done)
           (Topology.links input.Te_types.topo);
         let drops = Ffc_sim.Loss.congestion_rates input rates.Rescale.tunnel_rates in
         let bad_class = ref None in
         Array.iteri
           (fun c d ->
             if abs_float (d -. ref_drops.(c)) > 1e-6 *. (1. +. abs_float d) then
               bad_class := Some (c, d, ref_drops.(c)))
           drops;
         (match !bad_class with
          | Some (c, d, r) ->
            failf "priority-drop-mismatch: class %d dropped %.9g, reference %.9g" c d r
          | None ->
            let total = Array.fold_left ( +. ) 0. drops in
            let overflow = Rescale.overflow input loads in
            if abs_float (total -. overflow) > 1e-6 *. (1. +. overflow) then
              failf "drop-overflow-mismatch: total drops %.9g vs capacity overflow %.9g"
                total overflow
            else Fuzz.Pass))
  end

(* ------------------------------------------------------------------ *)

(* Each repro names its oracle's test here, and only here. *)
let lp_repro = Fuzz.repro_program ~test:"Ffc_check.Oracles.lp_test" Gen.lp_literal
let lu_repro = Fuzz.repro_program ~test:"Ffc_check.Oracles.lu_test" Gen.lu_literal
let ffc_repro = Fuzz.repro_program ~test:"Ffc_check.Oracles.ffc_test" Gen.te_literal
let sim_repro = Fuzz.repro_program ~test:"Ffc_check.Oracles.sim_test" Gen.sim_literal

let all () =
  [
    Fuzz.oracle ~name:"lp" ~generate:Gen.lp_instance ~test:lp_test ~shrink:Gen.shrink_lp
      ~repro:lp_repro;
    Fuzz.oracle ~name:"lu" ~generate:Gen.lu_instance ~test:lu_test
      ~shrink:Gen.shrink_lu ~repro:lu_repro;
    Fuzz.oracle ~name:"ffc" ~generate:Gen.te_instance ~test:ffc_test ~shrink:Gen.shrink_te
      ~repro:ffc_repro;
    Fuzz.oracle ~name:"sim" ~generate:Gen.sim_instance ~test:sim_test ~shrink:Gen.shrink_sim
      ~repro:sim_repro;
  ]

(* The chaos oracle is selectable but not part of the default campaign: one
   instance costs a multi-interval simulation, and the fuzz time budget is
   shared across oracles, so it would starve the cheap ones. *)
let available () = all () @ [ Chaos.oracle () ]

let select names =
  let avail = available () in
  let unknown =
    List.filter (fun n -> not (List.exists (fun o -> Fuzz.oracle_name o = n) avail)) names
  in
  match unknown with
  | [] -> Ok (List.filter (fun o -> List.mem (Fuzz.oracle_name o) names) avail)
  | u ->
    Error
      (Printf.sprintf "unknown oracle(s) %s (available: %s)" (String.concat ", " u)
         (String.concat ", " (List.map Fuzz.oracle_name avail)))
