(* Two-phase full-tableau simplex with Bland's rule (guaranteed termination).
   The bounded problem is first rewritten into [min c x, A x = b, x >= 0]:
   - fixed variables are substituted out;
   - finite lower bounds are shifted to zero;
   - upper-only-bounded variables are mirrored;
   - two-sided bounds add an explicit range row;
   - free variables are split into a positive and a negative part. *)

open Ffc_lp

type col_map =
  | Fixed of float (* original value *)
  | Shifted of int * float (* x = x'_idx + offset *)
  | Mirrored of int * float (* x = offset - x'_idx *)
  | Split of int * int (* x = x'_pos - x'_neg *)

type std_form = {
  n : int; (* columns of the standard form *)
  rows : (int * float) list array; (* sparse rows, equality *)
  b : float array;
  c : float array;
  mapping : col_map array; (* per original column *)
}

let standardise (p : Problem.t) =
  let next = ref 0 in
  let fresh () =
    let i = !next in
    incr next;
    i
  in
  let extra_rows = ref [] in
  let mapping =
    Array.init p.Problem.ncols (fun j ->
        let lo = p.Problem.lb.(j) and hi = p.Problem.ub.(j) in
        if lo = hi then Fixed lo
        else if Float.is_finite lo then begin
          let idx = fresh () in
          if Float.is_finite hi then extra_rows := (idx, hi -. lo) :: !extra_rows;
          Shifted (idx, lo)
        end
        else if Float.is_finite hi then Mirrored (fresh (), hi)
        else Split (fresh (), fresh ()))
  in
  (* Range rows get their own slack variables. *)
  let range_rows =
    List.rev_map
      (fun (idx, width) ->
        let slack = fresh () in
        ([ (idx, 1.); (slack, 1.) ], width))
      !extra_rows
  in
  let n = !next in
  let nrows = p.Problem.nrows + List.length range_rows in
  let rows = Array.make nrows [] in
  let b = Array.make nrows 0. in
  Array.blit p.Problem.rhs 0 b 0 p.Problem.nrows;
  let add_entry i j v = if v <> 0. then rows.(i) <- (j, v) :: rows.(i) in
  let entry j i v =
    match mapping.(j) with
    | Fixed value -> b.(i) <- b.(i) -. (v *. value)
    | Shifted (idx, off) ->
      add_entry i idx v;
      b.(i) <- b.(i) -. (v *. off)
    | Mirrored (idx, off) ->
      add_entry i idx (-.v);
      b.(i) <- b.(i) -. (v *. off)
    | Split (pos, neg) ->
      add_entry i pos v;
      add_entry i neg (-.v)
  in
  (* The structural columns, then each slack's unit column. *)
  for j = 0 to p.Problem.nstruct - 1 do
    for k = p.Problem.col_start.(j) to p.Problem.col_start.(j + 1) - 1 do
      entry j p.Problem.row_idx.(k) p.Problem.col_val.(k)
    done
  done;
  for i = 0 to p.Problem.nrows - 1 do
    entry (p.Problem.nstruct + i) i 1.
  done;
  List.iteri
    (fun k (terms, width) ->
      let i = p.Problem.nrows + k in
      rows.(i) <- terms;
      b.(i) <- width)
    range_rows;
  let c = Array.make n 0. in
  for j = 0 to p.Problem.ncols - 1 do
    let cj = p.Problem.obj.(j) in
    if cj <> 0. then
      match mapping.(j) with
      | Fixed _ -> ()
      | Shifted (idx, _) -> c.(idx) <- c.(idx) +. cj
      | Mirrored (idx, _) -> c.(idx) <- c.(idx) -. cj
      | Split (pos, neg) ->
        c.(pos) <- c.(pos) +. cj;
        c.(neg) <- c.(neg) -. cj
  done;
  { n; rows; b; c; mapping }

let eps = 1e-9

(* Full tableau over columns [0..n-1] structural, [n..n+m-1] artificial,
   column n+m = rhs. Row m is the objective row. Returns the status and,
   when optimal, the values of [p]'s structural columns. *)
let tableau (p : Problem.t) =
  let sf = standardise p in
  let m = Array.length sf.b in
  let n = sf.n in
  let width = n + m + 1 in
  let t = Array.make_matrix (m + 1) width 0. in
  for i = 0 to m - 1 do
    let flip = if sf.b.(i) < 0. then -1. else 1. in
    List.iter (fun (j, v) -> t.(i).(j) <- t.(i).(j) +. (flip *. v)) sf.rows.(i);
    t.(i).(n + i) <- 1.;
    t.(i).(width - 1) <- flip *. sf.b.(i)
  done;
  let basis = Array.init m (fun i -> n + i) in
  let max_iterations = 200 * (m + n) + 5_000 in
  let iterations = ref 0 in
  (* Bland's rule: entering = lowest-index column with negative reduced cost,
     leaving = lowest-index basic among the min-ratio rows. In phase 1 a
     column whose ratio test finds no pivot row is skipped rather than
     declared an unbounded direction: the phase-1 objective is bounded below
     by 0, so no genuine unbounded ray exists and such a column is numerical
     noise (typically a near-zero reduced cost left by pivoting on a tiny
     element elsewhere). Treating it as a certificate used to turn feasible
     instances into [Infeasible]. *)
  let pivot r c =
    let piv = t.(r).(c) in
    for j = 0 to width - 1 do
      t.(r).(j) <- t.(r).(j) /. piv
    done;
    for i = 0 to m do
      if i <> r then begin
        let f = t.(i).(c) in
        if f <> 0. then
          for j = 0 to width - 1 do
            t.(i).(j) <- t.(i).(j) -. (f *. t.(r).(j))
          done
      end
    done;
    basis.(r) <- c
  in
  (* Ratio test with a pivot-magnitude floor. Pivoting on a near-zero
     element multiplies the whole tableau by its reciprocal: one pivot on a
     1e-7 entry scales a row by 1e7, and the resulting noise can later pass
     the [eps] test and stop phase 2 at a suboptimal vertex. So the ratio
     test prefers pivots above [piv_tol], tie-breaking min-ratio rows
     (within [eps]) by the largest pivot element to keep the tableau
     conditioned. (This trades Bland's anti-cycling tie-break for numerical
     stability; the iteration cap still guarantees termination.)
     - [`Pivot r]: a well-scaled pivot row.
     - [`Tiny r]: every positive entry is at most [piv_tol]; [r] is the
       best of them. A tiny coefficient may be genuine data (an unbounded
       ray can require stepping over it), so such columns are usable — but
       only as a last resort, after every other improving column has been
       tried, because the reciprocal blow-up pollutes the whole tableau.
     - [`Empty]: no positive entry above [eps] at all, the textbook
       unbounded-ray certificate. *)
  let piv_tol = 1e-7 in
  let ratio_test c =
    (* The min ratio is taken over every entry above [eps] — restricting it
       to well-scaled pivots would overshoot a tiny-pivot blocking row and
       drive its basic variable negative. Only the *choice* of leaving row
       prefers large pivots, among rows within a relative slack of the min. *)
    let rmin = ref infinity in
    for i = 0 to m - 1 do
      if t.(i).(c) > eps then begin
        let ratio = t.(i).(width - 1) /. t.(i).(c) in
        if ratio < !rmin then rmin := ratio
      end
    done;
    if !rmin = infinity then `Empty
    else begin
      let cutoff = !rmin +. (eps *. (1. +. abs_float !rmin)) in
      let pick threshold =
        let leave = ref (-1) in
        for i = 0 to m - 1 do
          if t.(i).(c) > threshold then begin
            let ratio = t.(i).(width - 1) /. t.(i).(c) in
            if ratio <= cutoff && (!leave < 0 || t.(i).(c) > t.(!leave).(c))
            then leave := i
          end
        done;
        !leave
      in
      match pick piv_tol with
      | r when r >= 0 -> `Pivot r
      | _ -> `Tiny (pick eps)
    end
  in
  let rec iterate ~phase1 allowed =
    if !iterations > max_iterations then `Iterlimit
    else begin
      let step = ref `Optimal in
      let tiny = ref (-1, -1) in
      let empty = ref false in
      (try
         for j = 0 to n + m - 1 do
           if allowed j && t.(m).(j) < -.eps then begin
             match ratio_test j with
             | `Empty -> empty := true
             | `Tiny r -> if fst !tiny < 0 then tiny := (r, j)
             | `Pivot r ->
               step := `Pivot (r, j);
               raise Exit
           end
         done
       with Exit -> ());
      (if !step = `Optimal then
         (* No well-scaled pivot anywhere. In phase 2 an [`Empty] column is
            a genuine unbounded ray (in phase 1 it can only be noise: the
            phase-1 objective is bounded below by 0). Otherwise fall back
            to the best tiny pivot — except in phase 1 once the remaining
            infeasibility is already under the acceptance threshold, where
            the blow-up would buy nothing. *)
         if not phase1 && !empty then step := `Unbounded
         else
           match !tiny with
           | -1, _ -> ()
           | r, c ->
             let infeasibility = -.t.(m).(width - 1) in
             if not (phase1 && infeasibility <= 1e-6) then step := `Pivot (r, c));
      match !step with
      | `Optimal -> `Optimal
      | `Unbounded -> `Unbounded
      | `Pivot (r, c) ->
        pivot r c;
        incr iterations;
        iterate ~phase1 allowed
    end
  in
  (* Phase 1. *)
  for j = 0 to width - 1 do
    let acc = ref 0. in
    for i = 0 to m - 1 do
      acc := !acc +. t.(i).(j)
    done;
    t.(m).(j) <- (if j >= n && j < n + m then 1. -. !acc else -. !acc)
  done;
  match iterate ~phase1:true (fun _ -> true) with
  | `Iterlimit -> (Problem.Iteration_limit, [||])
  | `Unbounded -> assert false (* phase 1 never reports unbounded *)
  | `Optimal ->
    let phase1_obj = -.t.(m).(width - 1) in
    if phase1_obj > 1e-6 then (Problem.Infeasible, [||])
    else begin
      (* Drive any basic artificial out where possible, pivoting on the
         row's largest structural entry. The pivot moves the artificial's
         residual level rhs/t onto the entering variable, so only do it
         when that stays negligible: for a cleanly feasible basis the
         artificial sits at 0, but a tolerance-accepted phase 1 can leave
         it at up to 1e-6, and pivoting such a row on a same-order entry
         would hand a structural variable a macroscopic negative value.
         An artificial left basic is harmless — phase 2 never re-enters
         artificial columns. *)
      for i = 0 to m - 1 do
        if basis.(i) >= n then begin
          let found = ref (-1) in
          for j = 0 to n - 1 do
            if
              abs_float t.(i).(j) > 1e-7
              && (!found < 0 || abs_float t.(i).(j) > abs_float t.(i).(!found))
            then found := j
          done;
          if
            !found >= 0
            && abs_float (t.(i).(width - 1) /. t.(i).(!found)) <= 1e-6
          then pivot i !found
        end
      done;
      (* Phase 2: rebuild the cost row from real costs. *)
      for j = 0 to width - 1 do
        t.(m).(j) <- (if j < n then sf.c.(j) else 0.)
      done;
      for i = 0 to m - 1 do
        let cb = if basis.(i) < n then sf.c.(basis.(i)) else 0. in
        if cb <> 0. then
          for j = 0 to width - 1 do
            t.(m).(j) <- t.(m).(j) -. (cb *. t.(i).(j))
          done
      done;
      let allowed j = j < n in
      match iterate ~phase1:false allowed with
      | `Iterlimit -> (Problem.Iteration_limit, [||])
      | `Unbounded -> (Problem.Unbounded, [||])
      | `Optimal ->
        let xs = Array.make n 0. in
        for i = 0 to m - 1 do
          if basis.(i) < n then xs.(basis.(i)) <- t.(i).(width - 1)
        done;
        ( Problem.Optimal,
          Array.init p.Problem.nstruct (fun j ->
              match sf.mapping.(j) with
              | Fixed v -> v
              | Shifted (idx, off) -> xs.(idx) +. off
              | Mirrored (idx, off) -> off -. xs.(idx)
              | Split (pos, neg) -> xs.(pos) -. xs.(neg)) )
    end

type result = { status : Problem.status; x : float array; objective : float }

let unsolved status = { status; x = [||]; objective = nan }

let solve ?presolve model =
  match Model.to_problem ?presolve model with
  | None -> unsolved Problem.Infeasible
  | Some (p, _) -> (
    match tableau p with
    | Problem.Optimal, x ->
      { status = Problem.Optimal; x; objective = Model.objective_at model x }
    | status, _ -> unsolved status)

let of_outcome model = function
  | Model.Optimal s ->
    {
      status = Problem.Optimal;
      x = Array.init (Model.num_vars model) (Model.value s);
      objective = Model.objective_value s;
    }
  | Model.Infeasible -> unsolved Problem.Infeasible
  | Model.Unbounded -> unsolved Problem.Unbounded
  | Model.Iteration_limit -> unsolved Problem.Iteration_limit
  | Model.Deadline_exceeded -> unsolved Problem.Deadline_exceeded
