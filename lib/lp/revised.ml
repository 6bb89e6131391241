(* Bounded-variable revised simplex over a factorised basis: primal phases
   for cold solves and optimisation, a dual phase for warm re-solves.

   The basis inverse is never formed explicitly: the basis matrix is held as
   a sparse LU factorisation ({!Sparse_lu}) built with Markowitz ordering and
   threshold partial pivoting, so fill-in stays close to the structural
   minimum of these network-flow-shaped matrices. FTRAN/BTRAN are sparse
   triangular solves over the factors; each simplex pivot absorbs the column
   replacement as one sparse product-form update eta layered on the fixed
   factors. The factorisation is rebuilt after [lu_update_limit] updates or
   when numerical drift is detected; its scratch memory is {!Sparse_lu}'s
   own, one workspace per domain, and a solve holds only the flat buffers
   its basis columns are gathered into for {!Sparse_lu.factorise}.

   Pricing is candidate-list (partial) Dantzig: a full reduced-cost scan
   fills a short list of the most attractive nonbasic columns, and subsequent
   iterations price only that list; optimality is only ever declared by an
   empty *full* scan. Bland's rule (first eligible index, full scan; ratio
   ties leave by smallest basic index) takes over on long degenerate runs.

   Variable layout: columns [0, ncols) are the problem's structural + slack
   columns; columns [ncols, ncols + nrows) are artificial variables, one per
   row, used by the cold-start phase 1 (minimise the artificial sum) and to
   complete rank-deficient warm-start bases.

   Warm starts ([solve ?basis]): the caller supplies per-column statuses for
   this problem's layout -- typically a previous interval's optimal basis,
   mapped by key onto this build's rows and columns ({!Problem.remap_basis},
   done by [Model.solve]). Such a basis may hold more basic columns than
   rows, or a dependent set of them. The basic columns are factorised in
   repair mode: a column that cannot be pivoted moves to a bound (counted
   in [stats.warm_repairs]) and uncovered rows are completed with
   artificials pinned to [0,0], so a badly mapped basis costs iterations,
   never the warm start. If the implied point violates bounds, a dual
   simplex phase under the real costs runs before phase 2: the basic
   variable that violates its bounds most leaves at that bound, a Harris
   two-pass ratio test over its pivot row (BTRAN of e_r, then the rows of
   A it reaches, read from the transpose {!Problem.rows} that the state's
   first dual phase builds) picks the entering column, and the reduced
   costs follow the pivot row instead of being priced again. A remapped
   optimal basis is usually dual feasible (right-hand sides moved, costs
   did not); a nonbasic column that is not gets its cost shifted until it
   is, and phase 2, which prices the true costs, removes the shifts and
   certifies optimality. A dual phase that finds no entering column (which proves
   nothing once costs are shifted) or stalls ends the warm attempt: the
   solve starts cold, counted in [stats.restarts], and its [status_reason]
   names the warm failure. The same dual phase repairs a phase-2 optimum
   that turns out primally infeasible after a refactorisation.

   Resumes ([resume]): an optimal solve's state keeps its basis, its
   factorisation and every array it worked in, and a re-solve of the same
   problem after its bounds moved starts from it as a warm solve starts
   from a freshly factorised basis.

   Invariants maintained across iterations:
   - [basic.(i)] is the variable basic in position/row i; [vstat.(j)] tracks
     whether a variable is basic, at a bound, or nonbasic free (value 0);
   - [xval.(j)] is the current value of every variable;
   - the factorisation (plus its update etas) applied to a scattered column
     equals B^-1 times it; drift is measured against the true residual and
     triggers refactorisation. *)

module Clock = Ffc_util.Clock
module Obs = Ffc_obs.Obs

(* Registry handles; recording is a no-op flag test unless `Obs.enable` ran. *)
let m_pivots = Obs.counter "revised.pivots"
let m_refactorisations = Obs.counter "revised.refactorisations"
let m_degenerate = Obs.counter "revised.degenerate_pivots"
let m_restarts = Obs.counter "revised.restarts"
let m_lu_updates = Obs.counter "revised.lu_updates"
let m_cold_fallbacks = Obs.counter "revised.cold_fallbacks"
let m_warm_repairs = Obs.counter "revised.warm_repairs"
let m_resumes = Obs.counter "revised.resumes"
let m_solve_ms = Obs.histogram "revised.solve_ms"
let m_solve_iterations = Obs.histogram "revised.solve_iterations"

let feas_tol = 1e-7
let opt_tol = 1e-7
let pivot_tol = 1e-8
let zero_tol = 1e-11
let lu_update_limit = 100
let candidate_list_size = 128

(* Instrumentation counters that survive a warm-start fallback. *)
type acc = {
  mutable refactorisations : int;
  mutable degenerate_pivots : int;
  mutable bland_activations : int;
  mutable restarts : int;
  mutable ftran_ms : float;
  mutable lu_updates : int;
  mutable warm_repairs : int;
  mutable spent_iterations : int; (* iterations of abandoned attempts *)
  mutable fallback : string option; (* why a warm basis was abandoned *)
}

let fresh_acc () =
  {
    refactorisations = 0;
    degenerate_pivots = 0;
    bland_activations = 0;
    restarts = 0;
    ftran_ms = 0.;
    lu_updates = 0;
    warm_repairs = 0;
    spent_iterations = 0;
    fallback = None;
  }

type vstat = Basic | At_lower | At_upper | Free_nonbasic

(* Scratch of the dual phase. [alpha] is 0 outside the columns listed in
   [touched] by the last [pivot_row]. The structural part of A is kept by
   rows too ({!Problem.rows}): row [i]'s entries are [row_start.(i) ..
   row_start.(i + 1) - 1] of [row_cols] and [row_vals]. *)
type dual_work = {
  y : float array; (* duals, length m *)
  rho : float array; (* B^-T e_r, length m *)
  d : float array; (* reduced costs, length n; 0 on basic columns *)
  alpha : float array; (* pivot row, length n *)
  touched : int array;
  eligible : int array; (* the ratio test's eligible columns *)
  row_start : int array;
  row_cols : int array;
  row_vals : float array;
}

(* A solve's state holds every array the solve works in, so a state kept
   after an optimal solve can be resumed ([resume]) without allocating
   them again. *)
type state = {
  p : Problem.t;
  n : int; (* total columns including artificials *)
  m : int;
  lb : float array; (* length n *)
  ub : float array;
  art_sign : float array; (* per-row sign of its artificial column *)
  cost : float array; (* current phase costs, length n *)
  mutable basic : int array; (* position -> variable *)
  vstat : vstat array;
  xval : float array;
  mutable lu : Sparse_lu.t option; (* None only before the first factorisation *)
  mutable g_start : int array; (* the basis columns gathered for [Sparse_lu.factorise] *)
  mutable g_idx : int array;
  mutable g_val : float array;
  work : float array; (* scratch, length m *)
  rwork : float array;
  y_primal : float array; (* the primal phases' duals, length m *)
  cand : int array; (* candidate-list pricing: variable indices *)
  scores : float array; (* and their scores *)
  mutable ncand : int;
  mutable dw : dual_work option; (* built by the first dual phase *)
  mutable bland : bool;
  mutable degenerate_run : int;
  mutable iterations : int;
  mutable deadline_at : float; (* absolute Clock.now_ms deadline; infinity = none *)
  mutable acc : acc;
}

(* Column [j] of [A I Art] is a structural column's segment of the
   problem's flat CSC ([j < nstruct]), slack [nstruct + i]'s unit column
   on row [i], or artificial [ncols + i]'s column on row [i] with entry
   [art_sign.(i)]. Where a unit entry multiplies a value [x], the code
   below writes [x]: [1. *. x] is [x] exactly. *)

(* rhs - (sum of nonbasic columns at their values), the vector whose image
   under B^-1 gives the basic values. *)
let residual st out =
  let p = st.p in
  Array.blit p.Problem.rhs 0 out 0 st.m;
  for j = 0 to st.n - 1 do
    if st.vstat.(j) <> Basic then begin
      let xj = st.xval.(j) in
      if xj <> 0. then
        if j < p.Problem.nstruct then
          for k = p.Problem.col_start.(j) to p.Problem.col_start.(j + 1) - 1 do
            let i = p.Problem.row_idx.(k) in
            out.(i) <- out.(i) -. (p.Problem.col_val.(k) *. xj)
          done
        else if j < p.Problem.ncols then begin
          let i = j - p.Problem.nstruct in
          out.(i) <- out.(i) -. xj
        end
        else begin
          let i = j - p.Problem.ncols in
          out.(i) <- out.(i) -. (st.art_sign.(i) *. xj)
        end
    end
  done

(* ------------------------------------------------------------------ *)
(* FTRAN / BTRAN over the LU factorisation                             *)
(* ------------------------------------------------------------------ *)

(* w := B^-1 w. Before the first factorisation the basis is the identity
   (never the case once [initial_state]/[warm_state] ran). *)
let ftran_vec st w =
  match st.lu with
  | None -> ()
  | Some lu ->
    let t0 = Clock.now_ms () in
    Sparse_lu.ftran lu w;
    let dt = Clock.since_ms t0 in
    st.acc.ftran_ms <- st.acc.ftran_ms +. dt;
    Obs.span_event "revised.ftran" ~start_ms:t0 ~dur_ms:dt

(* w = B^-1 a_j: scatter the sparse column, then FTRAN. *)
let ftran st j w =
  Array.fill w 0 st.m 0.;
  let p = st.p in
  if j < p.Problem.nstruct then
    for k = p.Problem.col_start.(j) to p.Problem.col_start.(j + 1) - 1 do
      w.(p.Problem.row_idx.(k)) <- p.Problem.col_val.(k)
    done
  else if j < p.Problem.ncols then w.(j - p.Problem.nstruct) <- 1.
  else w.(j - p.Problem.ncols) <- st.art_sign.(j - p.Problem.ncols);
  ftran_vec st w

(* y := B^-T y. *)
let btran_vec st y =
  match st.lu with
  | None -> ()
  | Some lu ->
    if Obs.tracing_enabled () then begin
      let t0 = Clock.now_ms () in
      Sparse_lu.btran lu y;
      Obs.span_event "revised.btran" ~start_ms:t0 ~dur_ms:(Clock.since_ms t0)
    end
    else Sparse_lu.btran lu y

(* y^T = cB^T B^-1: BTRAN. *)
let duals st y =
  for i = 0 to st.m - 1 do
    y.(i) <- st.cost.(st.basic.(i))
  done;
  btran_vec st y

(* Recompute basic variable values from the factorisation; returns max
   change seen (numerical drift indicator). *)
let recompute_basics st =
  let r = st.rwork in
  residual st r;
  ftran_vec st r;
  let drift = ref 0. in
  for i = 0 to st.m - 1 do
    let j = st.basic.(i) in
    drift := max !drift (abs_float (st.xval.(j) -. r.(i)));
    st.xval.(j) <- r.(i)
  done;
  !drift

(* ------------------------------------------------------------------ *)
(* Refactorisation                                                     *)
(* ------------------------------------------------------------------ *)

(* Nonbasic at its lower bound if finite, else at its upper, else free at 0. *)
let rest_at_bound ~lb ~ub vstat xval j =
  if Float.is_finite lb.(j) then begin
    vstat.(j) <- At_lower;
    xval.(j) <- lb.(j)
  end
  else if Float.is_finite ub.(j) then begin
    vstat.(j) <- At_upper;
    xval.(j) <- ub.(j)
  end
  else begin
    vstat.(j) <- Free_nonbasic;
    xval.(j) <- 0.
  end

(* A nonbasic column that was at its upper bound stays there while that
   bound is finite; any other rests at a bound. *)
let place_nonbasic ~lb ~ub vstat xval j ~at_upper =
  if at_upper && Float.is_finite ub.(j) then begin
    vstat.(j) <- At_upper;
    xval.(j) <- ub.(j)
  end
  else rest_at_bound ~lb ~ub vstat xval j

(* The first [ncols] columns of [cols], gathered into the state's flat
   buffers. They are kept for the solve's later refactorisations and
   grown to the size a refactorisation needs: most warm solves
   refactorise once, so a larger buffer would only cost its fill. *)
let gather st cols ncols =
  let p = st.p in
  let nnz = ref 0 in
  for k = 0 to ncols - 1 do
    let j = cols.(k) in
    nnz :=
      !nnz
      + if j < p.Problem.nstruct then p.Problem.col_start.(j + 1) - p.Problem.col_start.(j) else 1
  done;
  if Array.length st.g_start <= ncols then st.g_start <- Array.make (ncols + 1) 0;
  if Array.length st.g_idx < !nnz then begin
    st.g_idx <- Array.make !nnz 0;
    st.g_val <- Array.make !nnz 0.
  end;
  let g_idx = st.g_idx and g_val = st.g_val in
  let t = ref 0 in
  for k = 0 to ncols - 1 do
    st.g_start.(k) <- !t;
    let j = cols.(k) in
    if j < p.Problem.nstruct then
      for e = p.Problem.col_start.(j) to p.Problem.col_start.(j + 1) - 1 do
        g_idx.(!t) <- p.Problem.row_idx.(e);
        g_val.(!t) <- p.Problem.col_val.(e);
        incr t
      done
    else begin
      if j < p.Problem.ncols then begin
        g_idx.(!t) <- j - p.Problem.nstruct;
        g_val.(!t) <- 1.
      end
      else begin
        g_idx.(!t) <- j - p.Problem.ncols;
        g_val.(!t) <- st.art_sign.(j - p.Problem.ncols)
      end;
      incr t
    end
  done;
  st.g_start.(ncols) <- !t

(* Rebuild the LU factorisation from the basis columns [cols]. Markowitz
   ordering inside {!Sparse_lu} replaces the old fewest-nonzeros-first
   Gauss-Jordan sweep. With [~complete], rows left unpivoted by [cols] are
   covered by their pinned artificial columns (rank completion for warm
   starts) -- those artificials all have sign +1 on the warm path, so the
   unit columns {!Sparse_lu} completes with are exactly the artificial
   columns. With [~repair] (warm starts) any number of columns may be
   given and a column the factorisation rejects goes back to a bound.
   Returns false -- leaving the previous factorisation and basis in place
   -- if the basis matrix is (numerically) singular, which repair mode
   never reports. *)
let refactorise_cols st cols ~complete ~repair =
  let ncols = Array.length cols in
  gather st cols ncols;
  match
    Obs.with_span "revised.refactor" (fun () ->
        Sparse_lu.factorise ~repair ~m:st.m ~complete ~ncols ~col_start:st.g_start
          ~row_idx:st.g_idx ~col_val:st.g_val)
  with
  | None -> false
  | Some { Sparse_lu.lu; row_of_col; completed_rows; rejected } ->
    List.iter (fun k -> rest_at_bound ~lb:st.lb ~ub:st.ub st.vstat st.xval cols.(k)) rejected;
    st.acc.warm_repairs <- st.acc.warm_repairs + List.length rejected;
    let new_basic = Array.make st.m (-1) in
    Array.iteri (fun k j -> if row_of_col.(k) >= 0 then new_basic.(row_of_col.(k)) <- j) cols;
    List.iter
      (fun r ->
        let aj = st.p.Problem.ncols + r in
        st.vstat.(aj) <- Basic;
        new_basic.(r) <- aj)
      completed_rows;
    st.basic <- new_basic;
    st.lu <- Some lu;
    st.acc.refactorisations <- st.acc.refactorisations + 1;
    ignore (recompute_basics st);
    true

let refactorise st = refactorise_cols st st.basic ~complete:false ~repair:false

(* ------------------------------------------------------------------ *)
(* Pricing and pivoting                                                *)
(* ------------------------------------------------------------------ *)

(* Reduced cost of column [j] under duals [y]; a slack or artificial column
   is its one entry. Inlined, so pricing never boxes it. *)
let[@inline] reduced_cost st y j =
  let p = st.p in
  if j < p.Problem.nstruct then begin
    let row_idx = p.Problem.row_idx and col_val = p.Problem.col_val in
    let acc = ref st.cost.(j) in
    for k = p.Problem.col_start.(j) to p.Problem.col_start.(j + 1) - 1 do
      acc := !acc -. (Array.unsafe_get col_val k *. Array.unsafe_get y (Array.unsafe_get row_idx k))
    done;
    !acc
  end
  else if j < p.Problem.ncols then st.cost.(j) -. y.(j - p.Problem.nstruct)
  else st.cost.(j) -. (st.art_sign.(j - p.Problem.ncols) *. y.(j - p.Problem.ncols))

type pricing_result = No_candidate | Enter of int * float (* variable, direction *)

(* Only a nonbasic column that is not fixed can enter, so every scan tests
   this before computing a reduced cost: a warm start pins all artificials
   to [0, 0]. *)
let[@inline] can_enter st j = st.vstat.(j) <> Basic && st.lb.(j) <> st.ub.(j)

(* Direction in which a column that [can_enter] may profitably enter; 0. if
   none. *)
let[@inline] entering_dir st j d =
  match st.vstat.(j) with
  | Basic -> 0.
  | At_lower -> if d < -.opt_tol then 1. else 0.
  | At_upper -> if d > opt_tol then -1. else 0.
  | Free_nonbasic -> if d < -.opt_tol then 1. else if d > opt_tol then -1. else 0.

(* Full Dantzig scan. Returns the best eligible column and refills the
   candidate list with the [candidate_list_size] most attractive eligible
   columns (smallest-score slot replaced as better ones appear), so the next
   iterations can price the short list only. In Bland mode the first
   eligible index is returned and the list is left alone. *)
let price_full st y =
  if st.bland then begin
    let best = ref No_candidate in
    (try
       for j = 0 to st.n - 1 do
         if can_enter st j then begin
           let dir = entering_dir st j (reduced_cost st y j) in
           if dir <> 0. then begin
             best := Enter (j, dir);
             raise Exit
           end
         end
       done
     with Exit -> ());
    !best
  end
  else begin
    let k = Array.length st.cand in
    (* A slot's score is written before it is read. *)
    let scores = st.scores in
    st.ncand <- 0;
    let min_pos = ref 0 in
    let best = ref No_candidate and best_score = ref opt_tol in
    for j = 0 to st.n - 1 do
      if can_enter st j then begin
        let d = reduced_cost st y j in
        let dir = entering_dir st j d in
        if dir <> 0. then begin
          let score = abs_float d in
          if score > !best_score then begin
            best_score := score;
            best := Enter (j, dir)
          end;
          if st.ncand < k then begin
            st.cand.(st.ncand) <- j;
            scores.(st.ncand) <- score;
            if score < scores.(!min_pos) then min_pos := st.ncand;
            st.ncand <- st.ncand + 1
          end
          else if k > 0 && score > scores.(!min_pos) then begin
            st.cand.(!min_pos) <- j;
            scores.(!min_pos) <- score;
            for i = 0 to k - 1 do
              if scores.(i) < scores.(!min_pos) then min_pos := i
            done
          end
        end
      end
    done;
    !best
  end

(* Minor pricing pass over the candidate list. Columns that became basic or
   ineligible are dropped in place; [No_candidate] here only means the list
   ran dry -- the caller must confirm with a full pass before declaring
   optimality. *)
let price_minor st y =
  let best = ref No_candidate and best_score = ref opt_tol in
  let keep = ref 0 in
  for i = 0 to st.ncand - 1 do
    let j = st.cand.(i) in
    if can_enter st j then begin
      let d = reduced_cost st y j in
      let dir = entering_dir st j d in
      if dir <> 0. then begin
        st.cand.(!keep) <- j;
        incr keep;
        let score = abs_float d in
        if score > !best_score then begin
          best_score := score;
          best := Enter (j, dir)
        end
      end
    end
  done;
  st.ncand <- !keep;
  !best

let price st y =
  if st.bland then price_full st y
  else
    match price_minor st y with
    | Enter _ as e -> e
    | No_candidate -> price_full st y

type ratio_result =
  | Unbounded_dir
  | Bound_flip of float
  | Pivot of int * float * float (* leaving row, theta, target bound of leaver *)

(* Ties within 1e-12 go to the largest |pivot| for numerical stability,
   except in Bland mode, where the basic variable with the smallest index
   leaves: Bland's rule needs both halves (smallest entering index, smallest
   leaving index among ties) to rule out cycling. *)
let ratio_test st enter dir w =
  (* The entering variable increases by theta along [dir]; basic variable in
     row i changes by [-dir * w_i * theta]. *)
  let theta_own =
    let range = st.ub.(enter) -. st.lb.(enter) in
    if Float.is_finite range then range else infinity
  in
  let theta = ref theta_own in
  let leave_row = ref (-1) in
  let leave_bound = ref 0. in
  let leave_piv = ref 0. in
  for i = 0 to st.m - 1 do
    let wi = Array.unsafe_get w i in
    if abs_float wi > pivot_tol then begin
      let bvar = st.basic.(i) in
      let delta = dir *. wi in
      (* A decreasing variable ([delta > 0.]) blocks at its lower bound. *)
      let b = if delta > 0. then st.lb.(bvar) else st.ub.(bvar) in
      (* No bound that way: the variable never blocks. *)
      let limit = if Float.is_finite b then (st.xval.(bvar) -. b) /. delta else infinity in
      let bound = if Float.is_finite b then b else 0. in
      let limit = if limit >= 0. then limit else 0. in
      if
        limit < !theta -. 1e-12
        || limit <= !theta +. 1e-12
           && !leave_row >= 0
           &&
           if st.bland then bvar < st.basic.(!leave_row)
           else abs_float wi > abs_float !leave_piv
      then begin
        theta := limit;
        leave_row := i;
        leave_bound := bound;
        leave_piv := wi
      end
    end
  done;
  if Float.is_finite !theta then
    if !leave_row < 0 then Bound_flip !theta else Pivot (!leave_row, !theta, !leave_bound)
  else Unbounded_dir

let apply_step st enter dir w theta =
  if theta <> 0. then begin
    for i = 0 to st.m - 1 do
      let wi = Array.unsafe_get w i in
      if wi <> 0. then begin
        let bvar = st.basic.(i) in
        st.xval.(bvar) <- st.xval.(bvar) -. (theta *. dir *. wi)
      end
    done;
    st.xval.(enter) <- st.xval.(enter) +. (theta *. dir)
  end

exception Numerical_restart

let pivot st enter dir w = function
  | Bound_flip theta ->
    apply_step st enter dir w theta;
    st.vstat.(enter) <- (if dir > 0. then At_upper else At_lower);
    (* Snap to the exact bound to stop error accumulation. *)
    st.xval.(enter) <- (if dir > 0. then st.ub.(enter) else st.lb.(enter));
    theta
  | Pivot (r, theta, bound) ->
    if abs_float w.(r) < pivot_tol then raise Numerical_restart;
    apply_step st enter dir w theta;
    let leaver = st.basic.(r) in
    st.vstat.(leaver) <-
      (if Float.is_finite bound then if bound = st.lb.(leaver) then At_lower else At_upper
       else Free_nonbasic);
    st.xval.(leaver) <- bound;
    st.basic.(r) <- enter;
    st.vstat.(enter) <- Basic;
    (* B' = B E with E's column r = w: one product-form update eta on the
       factorisation. *)
    (match st.lu with
    | Some lu ->
      Sparse_lu.update lu ~r ~w;
      st.acc.lu_updates <- st.acc.lu_updates + 1
    | None -> raise Numerical_restart);
    theta
  | Unbounded_dir -> invalid_arg "pivot: unbounded"

(* Run simplex iterations with the current [st.cost] until optimal, unbounded,
   iteration budget exhausted, or wall-clock deadline expired. *)
type phase_outcome = Phase_optimal | Phase_unbounded | Phase_iterlimit | Phase_deadline

(* Deadline checks cost a clock read, so sample every [deadline_check_interval]
   pivots (including iteration 0, catching an already-expired budget before any
   pivoting work). *)
let deadline_check_interval = 16

let deadline_expired st =
  Float.is_finite st.deadline_at
  && st.iterations land (deadline_check_interval - 1) = 0
  && Clock.now_ms () >= st.deadline_at

(* Every [drift_check_interval] pivots the basic values are recomputed from
   the factorisation, which is rebuilt if they drifted; it is also rebuilt
   once the eta file passes [lu_update_limit]. Both return whether a
   refactorisation ran. *)
let drift_check_interval = 128

let check_drift st =
  st.iterations mod drift_check_interval = drift_check_interval - 1
  && recompute_basics st > 1e-6
  && refactorise st

let refactorise_if_full st =
  match st.lu with
  | Some lu when Sparse_lu.updates lu > lu_update_limit -> refactorise st
  | _ -> false

let run_phase st ~max_iterations =
  let y = st.y_primal in
  let w = st.work in
  let rec loop () =
    if st.iterations >= max_iterations then Phase_iterlimit
    else if deadline_expired st then Phase_deadline
    else begin
      ignore (check_drift st);
      duals st y;
      match price st y with
      | No_candidate ->
        if st.bland then begin
          (* Re-verify optimality with a fresh factorisation: Bland mode may
             have been running on a drifted basis. *)
          ignore (refactorise st);
          st.bland <- false;
          duals st y;
          match price st y with No_candidate -> Phase_optimal | Enter _ -> loop ()
        end
        else Phase_optimal
      | Enter (j, dir) ->
        ftran st j w;
        (match ratio_test st j dir w with
        | Unbounded_dir -> Phase_unbounded
        | step ->
          let theta =
            try pivot st j dir w step
            with Numerical_restart ->
              ignore (refactorise st);
              0.
          in
          st.iterations <- st.iterations + 1;
          ignore (refactorise_if_full st);
          if theta <= 1e-10 then begin
            st.degenerate_run <- st.degenerate_run + 1;
            st.acc.degenerate_pivots <- st.acc.degenerate_pivots + 1;
            if st.degenerate_run > 100 && not st.bland then begin
              st.bland <- true;
              st.acc.bland_activations <- st.acc.bland_activations + 1
            end
          end
          else begin
            st.degenerate_run <- 0;
            st.bland <- false
          end;
          loop ())
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* State construction                                                  *)
(* ------------------------------------------------------------------ *)

let make_state acc (p : Problem.t) ~lb ~ub ~vstat ~xval ~art_sign =
  let m = p.Problem.nrows in
  let n = p.Problem.ncols + m in
  {
    p;
    n;
    m;
    lb;
    ub;
    art_sign;
    cost = Array.make n 0.;
    basic = Array.init m (fun i -> p.Problem.ncols + i);
    vstat;
    xval;
    lu = None;
    g_start = [||];
    g_idx = [||];
    g_val = [||];
    work = Array.make m 0.;
    rwork = Array.make m 0.;
    y_primal = Array.make m 0.;
    cand = Array.make candidate_list_size 0;
    scores = Array.make candidate_list_size 0.;
    ncand = 0;
    dw = None;
    bland = false;
    degenerate_run = 0;
    iterations = 0;
    deadline_at = infinity;
    acc;
  }

let initial_state acc (p : Problem.t) =
  let m = p.Problem.nrows in
  let ncols = p.Problem.ncols in
  let n = ncols + m in
  let lb = Array.make n 0. and ub = Array.make n infinity in
  Array.blit p.Problem.lb 0 lb 0 ncols;
  Array.blit p.Problem.ub 0 ub 0 ncols;
  let xval = Array.make n 0. in
  let vstat = Array.make n At_lower in
  for j = 0 to ncols - 1 do
    rest_at_bound ~lb ~ub vstat xval j
  done;
  let art_sign = Array.make m 1. in
  let st = make_state acc p ~lb ~ub ~vstat ~xval ~art_sign in
  (* Start from the slack basis where the slack bounds admit the residual;
     use an artificial (with a sign making its value >= 0) elsewhere. *)
  let r = st.rwork in
  residual st r;
  for i = 0 to m - 1 do
    let slack = p.Problem.nstruct + i in
    let aj = ncols + i in
    if r.(i) >= lb.(slack) -. 1e-12 && r.(i) <= ub.(slack) +. 1e-12 then begin
      st.basic.(i) <- slack;
      vstat.(slack) <- Basic;
      xval.(slack) <- r.(i);
      (* This row needs no artificial: pin it. *)
      st.lb.(aj) <- 0.;
      st.ub.(aj) <- 0.;
      vstat.(aj) <- At_lower;
      xval.(aj) <- 0.
    end
    else begin
      let sign = if r.(i) >= 0. then 1. else -1. in
      art_sign.(i) <- sign;
      vstat.(aj) <- Basic;
      xval.(aj) <- abs_float r.(i)
    end
  done;
  ignore (refactorise st);
  st

(* Build a state from a warm-start basis snapshot. All artificials are
   pinned to [0,0]; rank completion may make some of them (degenerately)
   basic. The snapshot may come from a different LP mapped by key, so its
   basic columns are factorised in repair mode: too many of them, or a
   dependent set, costs the rejected columns their basic status, never the
   warm start. *)
let warm_state acc (p : Problem.t) (b : Problem.basis) =
  let m = p.Problem.nrows in
  let ncols = p.Problem.ncols in
  let n = ncols + m in
  let lb = Array.make n 0. and ub = Array.make n 0. in
  Array.blit p.Problem.lb 0 lb 0 ncols;
  Array.blit p.Problem.ub 0 ub 0 ncols;
  let vstat = Array.make n At_lower in
  let xval = Array.make n 0. in
  let nbasic = ref 0 in
  for j = 0 to ncols - 1 do
    match b.Problem.statuses.(j) with
    | Problem.Bs_basic ->
      vstat.(j) <- Basic;
      incr nbasic
    | status -> place_nonbasic ~lb ~ub vstat xval j ~at_upper:(status = Problem.Bs_upper)
  done;
  (* The basic columns in increasing order. *)
  let cols = Array.make !nbasic 0 in
  let k = ref 0 in
  for j = 0 to ncols - 1 do
    if vstat.(j) = Basic then begin
      cols.(!k) <- j;
      incr k
    end
  done;
  let st = make_state acc p ~lb ~ub ~vstat ~xval ~art_sign:(Array.make m 1.) in
  let factorised = refactorise_cols st cols ~complete:true ~repair:true in
  assert factorised;
  st

(* ------------------------------------------------------------------ *)
(* Dual simplex (warm starts; a primally infeasible phase-2 optimum)   *)
(* ------------------------------------------------------------------ *)

(* The row whose basic variable violates its bounds the most (-1 if none
   does by more than [feas_tol]), and the sum of the violations. *)
let leaving_row st =
  let r = ref (-1) and worst = ref 0. and sum = ref 0. in
  for i = 0 to st.m - 1 do
    let j = st.basic.(i) in
    let x = st.xval.(j) and lb = st.lb.(j) and ub = st.ub.(j) in
    let v = if x > ub +. feas_tol then x -. ub else if x < lb -. feas_tol then lb -. x else 0. in
    sum := !sum +. v;
    if v > !worst then begin
      worst := v;
      r := i
    end
  done;
  (!r, !sum)

(* Only a dual phase reads the rows, so a solve that runs none never
   builds them; the state keeps them for its later dual phases. Between
   two dual pivots [alpha] is all 0 and every other array is written
   before it is read. *)
let dual_work st =
  match st.dw with
  | Some dw -> dw
  | None ->
    let { Problem.row_start; row_cols; row_vals } = Problem.rows st.p and m = st.m in
    let dw =
      {
        y = Array.make m 0.;
        rho = Array.make m 0.;
        d = Array.make st.n 0.;
        alpha = Array.make st.n 0.;
        touched = Array.make st.n 0;
        eligible = Array.make st.n 0;
        row_start;
        row_cols;
        row_vals;
      }
    in
    st.dw <- Some dw;
    dw

(* Reduced costs of every nonbasic column under the current costs; a column
   that could enter in its improving direction is dual infeasible and gets
   its cost shifted so that its reduced cost is 0. The primal phase 2 that
   follows prices the true objective again. *)
let price_shifted st dw =
  duals st dw.y;
  for j = 0 to st.n - 1 do
    if st.vstat.(j) = Basic then dw.d.(j) <- 0.
    else begin
      let dj = reduced_cost st dw.y j in
      if can_enter st j && entering_dir st j dj <> 0. then begin
        st.cost.(j) <- st.cost.(j) -. dj;
        dw.d.(j) <- 0.
      end
      else dw.d.(j) <- dj
    end
  done

(* Row [r] of B^-1 A from the rows of A that [rho] = B^-T e_r reaches:
   fills [alpha] and lists its nonzero columns in [touched], returning
   their count. A slack is a unit column; artificials are pinned and never
   enter, so they are left out. *)
let pivot_row st dw =
  let alpha = dw.alpha and touched = dw.touched in
  let row_start = dw.row_start and row_cols = dw.row_cols and row_vals = dw.row_vals in
  let nt = ref 0 in
  for i = 0 to st.m - 1 do
    let ri = dw.rho.(i) in
    if ri <> 0. then begin
      for k = row_start.(i) to row_start.(i + 1) - 1 do
        let j = row_cols.(k) in
        let aj = alpha.(j) in
        if aj = 0. then begin
          touched.(!nt) <- j;
          incr nt
        end;
        (* A sum that cancels to exactly 0 must stay listed once. *)
        let a = aj +. (ri *. row_vals.(k)) in
        alpha.(j) <- (if a = 0. then Float.min_float else a)
      done;
      (* Row [i]'s slack appears in no other row: its entry is [ri]. *)
      let j = st.p.Problem.nstruct + i in
      touched.(!nt) <- j;
      incr nt;
      alpha.(j) <- ri
    end
  done;
  !nt

(* Whether column [j], with pivot-row entry [a] signed so that entering
   along it moves the leaving variable toward its bound, can enter. *)
let[@inline] dual_eligible st j a =
  can_enter st j
  &&
  match st.vstat.(j) with
  | At_lower -> a > pivot_tol
  | At_upper -> a < -.pivot_tol
  | Free_nonbasic -> abs_float a > pivot_tol
  | Basic -> false

(* Harris two-pass dual ratio test over the [nt] touched columns. [s] is
   1. when the leaving variable rises to its lower bound, -1. when it falls
   to its upper. Pass 1 lists the eligible columns and finds the largest
   dual step that keeps every reduced cost within [opt_tol] of feasible;
   pass 2 takes, among those columns whose exact ratio is within that
   step, the one with the largest pivot. Returns -1 if no column can
   enter. *)
let dual_ratio_test st dw nt s =
  let eligible = dw.eligible in
  let ne = ref 0 in
  let bound = ref infinity in
  for t = 0 to nt - 1 do
    let j = dw.touched.(t) in
    let a = -.s *. dw.alpha.(j) in
    if dual_eligible st j a then begin
      eligible.(!ne) <- j;
      incr ne;
      bound := Float.min !bound ((dw.d.(j) /. a) +. (opt_tol /. abs_float a))
    end
  done;
  let q = ref (-1) and best = ref 0. in
  for t = 0 to !ne - 1 do
    let j = eligible.(t) in
    let a = -.s *. dw.alpha.(j) in
    if dw.d.(j) /. a <= !bound && abs_float a > !best then begin
      q := j;
      best := abs_float a
    end
  done;
  !q

type dual_pivot_result =
  | Pivoted of float (* the dual step *)
  | No_entering
  | Mismatch (* the row and the FTRAN'd column disagree on the pivot *)

(* One dual pivot: the basic variable of row [r] leaves at the bound it
   violates, the ratio test's column enters, and the reduced costs move
   along the pivot row. *)
let dual_pivot st dw r =
  let leaver = st.basic.(r) in
  let below = st.xval.(leaver) < st.lb.(leaver) in
  let bound = if below then st.lb.(leaver) else st.ub.(leaver) in
  let s = if below then 1. else -1. in
  Array.fill dw.rho 0 st.m 0.;
  dw.rho.(r) <- 1.;
  btran_vec st dw.rho;
  let nt = pivot_row st dw in
  let q = dual_ratio_test st dw nt s in
  let result =
    if q < 0 then No_entering
    else begin
      let w = st.work in
      ftran st q w;
      let wr = w.(r) and aq = dw.alpha.(q) in
      if abs_float wr < pivot_tol || abs_float (wr -. aq) > 1e-6 *. (1. +. abs_float wr) then
        Mismatch
      else begin
        (* A step of the wrong sign means [d.(q)] is within tolerance of
           feasible on the wrong side: shift it to 0 and step by 0. *)
        let theta_d = dw.d.(q) /. aq in
        let theta_d =
          if s *. theta_d > 0. then begin
            st.cost.(q) <- st.cost.(q) -. dw.d.(q);
            0.
          end
          else theta_d
        in
        if theta_d <> 0. then
          for t = 0 to nt - 1 do
            let j = dw.touched.(t) in
            if st.vstat.(j) <> Basic then dw.d.(j) <- dw.d.(j) -. (theta_d *. dw.alpha.(j))
          done;
        dw.d.(leaver) <- -.theta_d;
        dw.d.(q) <- 0.;
        let theta_p = (st.xval.(leaver) -. bound) /. wr in
        ignore (pivot st q 1. w (Pivot (r, theta_p, bound)));
        Pivoted theta_d
      end
    end
  in
  for t = 0 to nt - 1 do
    dw.alpha.(dw.touched.(t)) <- 0.
  done;
  result

type dual_outcome = Dual_feasible | Dual_no_entering | Dual_stalled | Dual_iterlimit | Dual_deadline

(* The phase has stalled after [dual_stall_limit] pivots without a new low
   in the sum of bound violations, or after [dual_retry_limit] pivots in a
   row that refactorising did not mend. *)
let dual_stall_limit = 1000
let dual_retry_limit = 3

(* Dual simplex from a basis that may violate bounds, with [st.cost] the
   phase-2 costs: the row that violates its bounds most leaves. Dual
   infeasibilities are removed by shifting costs ([price_shifted]) before
   the first pivot and after every refactorisation, so the phase needs no
   dual feasible start. [Dual_feasible] leaves a primal feasible basis,
   optimal for the shifted costs; a start that is already primal feasible
   returns it at once. *)
let dual_phase st ~max_iterations =
  if fst (leaving_row st) < 0 then Dual_feasible
  else begin
    let dw = dual_work st in
    let priced = ref false and retries = ref 0 in
    let best = ref infinity and since_best = ref 0 in
    let rec loop () =
      if st.iterations >= max_iterations then Dual_iterlimit
      else if deadline_expired st then Dual_deadline
      else begin
        if check_drift st then priced := false;
        let r, inf = leaving_row st in
        if inf < !best then begin
          best := inf;
          since_best := 0
        end
        else incr since_best;
        if r < 0 then Dual_feasible
        else if !since_best > dual_stall_limit then Dual_stalled
        else begin
          if not !priced then begin
            price_shifted st dw;
            priced := true
          end;
          match dual_pivot st dw r with
          | No_entering -> Dual_no_entering
          | Mismatch ->
            incr retries;
            if !retries >= dual_retry_limit then Dual_stalled
            else begin
              ignore (refactorise st);
              priced := false;
              loop ()
            end
          | Pivoted theta_d ->
            retries := 0;
            st.iterations <- st.iterations + 1;
            if abs_float theta_d <= 1e-12 then
              st.acc.degenerate_pivots <- st.acc.degenerate_pivots + 1;
            if refactorise_if_full st then priced := false;
            loop ()
        end
      end
    in
    loop ()
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let col_status = function
  | Basic -> Problem.Bs_basic
  | At_lower -> Problem.Bs_lower
  | At_upper -> Problem.Bs_upper
  | Free_nonbasic -> Problem.Bs_free

let export_basis st =
  Problem.basis_of_statuses (Array.init st.p.Problem.ncols (fun j -> col_status st.vstat.(j)))

let finish st ~phase1 ~warm status reason =
  let p = st.p in
  let x = Array.sub st.xval 0 p.Problem.ncols in
  let objective =
    let acc = ref 0. in
    for j = 0 to p.Problem.ncols - 1 do
      acc := !acc +. (p.Problem.obj.(j) *. x.(j))
    done;
    !acc
  in
  let a = st.acc in
  let stats =
    {
      Problem.phase1_iterations = a.spent_iterations + phase1;
      phase2_iterations = st.iterations - phase1;
      refactorisations = a.refactorisations;
      degenerate_pivots = a.degenerate_pivots;
      bland_activations = a.bland_activations;
      restarts = a.restarts;
      ftran_ms = a.ftran_ms;
      factor_nnz = (match st.lu with Some lu -> Sparse_lu.nnz lu | None -> 0);
      factor_fill = (match st.lu with Some lu -> Sparse_lu.fill_in lu | None -> 0);
      lu_updates = a.lu_updates;
      warm_started = warm;
      warm_remapped = false;
      warm_repairs = a.warm_repairs;
      status_reason =
        (match a.fallback with
        | None -> reason
        | Some why -> Printf.sprintf "%s (cold fallback: %s)" reason why);
    }
  in
  {
    Problem.status;
    x;
    objective;
    iterations = a.spent_iterations + st.iterations;
    stats;
    basis = export_basis st;
  }

(* Pin artificials to zero and install the real objective. *)
let enter_phase2 st =
  let p = st.p in
  for i = 0 to st.m - 1 do
    let aj = p.Problem.ncols + i in
    st.lb.(aj) <- 0.;
    st.ub.(aj) <- 0.;
    if st.vstat.(aj) <> Basic then begin
      st.vstat.(aj) <- At_lower;
      st.xval.(aj) <- 0.
    end
  done;
  Array.blit p.Problem.obj 0 st.cost 0 p.Problem.ncols;
  Array.fill st.cost p.Problem.ncols st.m 0.;
  st.bland <- false;
  st.degenerate_run <- 0

let run_phase2 st ~max_iterations ~phase1 ~warm =
  let rec attempt tries =
    match run_phase st ~max_iterations with
    | Phase_optimal ->
      ignore (recompute_basics st);
      (* Clean tiny values. *)
      for j = 0 to st.n - 1 do
        if abs_float st.xval.(j) < zero_tol then st.xval.(j) <- 0.
      done;
      (* Dual optimality alone does not certify the point. A degenerate
         pivot can land on a near-singular basis whose exact solution --
         materialised by [recompute_basics] after a refactorisation --
         sits far outside the bounds even though the working values only
         drifted by rounding. Without this check "optimal" could return a
         point violating a constraint by a macroscopic amount. *)
      let _, infeasibility = leaving_row st in
      if infeasibility <= feas_tol *. float_of_int (st.m + 1) then
        finish st ~phase1 ~warm Problem.Optimal "optimal"
      else if tries >= 3 then
        finish st ~phase1 ~warm Problem.Iteration_limit
          "phase-2 optimum primally infeasible (numerical trouble)"
      else begin
        (* The basis is (nearly) dual feasible: the dual phase removes the
           violations, then phase 2 prices the true costs again. *)
        st.acc.restarts <- st.acc.restarts + 1;
        match dual_phase st ~max_iterations with
        | Dual_feasible ->
          enter_phase2 st;
          attempt (tries + 1)
        | Dual_no_entering | Dual_stalled ->
          finish st ~phase1 ~warm Problem.Iteration_limit
            "phase-2 dual repair stuck (numerical trouble)"
        | Dual_iterlimit ->
          finish st ~phase1 ~warm Problem.Iteration_limit "iteration-limit (phase 2)"
        | Dual_deadline ->
          finish st ~phase1 ~warm Problem.Deadline_exceeded "deadline (phase 2)"
      end
    | Phase_unbounded -> finish st ~phase1 ~warm Problem.Unbounded "unbounded"
    | Phase_iterlimit ->
      finish st ~phase1 ~warm Problem.Iteration_limit "iteration-limit (phase 2)"
    | Phase_deadline ->
      finish st ~phase1 ~warm Problem.Deadline_exceeded "deadline (phase 2)"
  in
  enter_phase2 st;
  attempt 0

let cold_solve acc (p : Problem.t) ~max_iterations ~deadline_at =
  let st = initial_state acc p in
  st.deadline_at <- deadline_at;
  (* Phase 1: minimise the artificial sum. *)
  for i = 0 to st.m - 1 do
    st.cost.(p.Problem.ncols + i) <- 1.
  done;
  let outcome =
    match run_phase st ~max_iterations with
    | Phase_unbounded ->
      (* The phase-1 objective is bounded below by 0, so an unbounded ray is
         numerical trouble: refactorise and retry once before giving up. *)
      acc.restarts <- acc.restarts + 1;
      ignore (refactorise st);
      run_phase st ~max_iterations
    | o -> o
  in
  ( st,
    match outcome with
    | Phase_unbounded ->
      finish st ~phase1:st.iterations ~warm:false Problem.Infeasible
        "phase1-unbounded (numerical trouble; reported infeasible)"
    | Phase_iterlimit ->
      finish st ~phase1:st.iterations ~warm:false Problem.Iteration_limit
        "iteration-limit (phase 1)"
    | Phase_deadline ->
      finish st ~phase1:st.iterations ~warm:false Problem.Deadline_exceeded "deadline (phase 1)"
    | Phase_optimal ->
      let art_sum = ref 0. in
      for i = 0 to st.m - 1 do
        art_sum := !art_sum +. abs_float st.xval.(p.Problem.ncols + i)
      done;
      if !art_sum > feas_tol *. float_of_int (st.m + 1) then
        finish st ~phase1:st.iterations ~warm:false Problem.Infeasible "infeasible"
      else begin
        let phase1 = st.iterations in
        run_phase2 st ~max_iterations ~phase1 ~warm:false
      end )

(* A warm state -- its basis factorised, its basic values computed -- run
   with the real costs through the dual phase, then phase 2. A dual phase
   that finds no entering column (a dual ray, which would prove
   infeasibility only if no cost were shifted) or stalls abandons the
   basis: [None] hands the problem to a cold solve. *)
let run_warm st ~max_iterations =
  enter_phase2 st;
  let abandon why =
    let acc = st.acc in
    acc.restarts <- acc.restarts + 1;
    acc.spent_iterations <- acc.spent_iterations + st.iterations;
    acc.fallback <- Some why;
    None
  in
  match dual_phase st ~max_iterations with
  | Dual_feasible -> Some (run_phase2 st ~max_iterations ~phase1:st.iterations ~warm:true)
  | Dual_iterlimit ->
    Some
      (finish st ~phase1:st.iterations ~warm:true Problem.Iteration_limit
         "iteration-limit (warm dual)")
  | Dual_deadline ->
    (* No wall-clock budget left for a cold fallback either: report. *)
    Some
      (finish st ~phase1:st.iterations ~warm:true Problem.Deadline_exceeded
         "deadline (warm dual)")
  | Dual_no_entering -> abandon "warm dual found no entering column"
  | Dual_stalled -> abandon "warm dual stalled"

(* Make [st], the state an optimal solve ended in, the start of a re-solve
   of its problem with the bounds the problem holds now: each nonbasic
   column moves onto its new bound, where [warm_state] would place it, and
   the basic values are recomputed from the kept factorisation and its eta
   file. Once the eta file holds more nonzeros than the factors, each
   FTRAN and BTRAN reads more of the etas than of the factors, so the
   basis is refactorised first. *)
let resume_state st ~deadline_at =
  let p = st.p in
  st.acc <- fresh_acc ();
  st.iterations <- 0;
  st.ncand <- 0;
  st.deadline_at <- deadline_at;
  Array.blit p.Problem.lb 0 st.lb 0 p.Problem.ncols;
  Array.blit p.Problem.ub 0 st.ub 0 p.Problem.ncols;
  for j = 0 to p.Problem.ncols - 1 do
    let status = st.vstat.(j) in
    if status <> Basic then
      place_nonbasic ~lb:st.lb ~ub:st.ub st.vstat st.xval j ~at_upper:(status = At_upper)
  done;
  let refactorised =
    match st.lu with
    | Some lu -> Sparse_lu.eta_nnz lu > Sparse_lu.nnz lu && refactorise st
    | None -> false
  in
  if not refactorised then ignore (recompute_basics st)

let budget ?max_iterations ?deadline_ms (p : Problem.t) =
  let m = p.Problem.nrows in
  let n = p.Problem.ncols + m in
  let max_iterations =
    match max_iterations with Some k -> k | None -> (20 * (m + n)) + 10_000
  in
  let deadline_at =
    match deadline_ms with None -> infinity | Some d -> Clock.now_ms () +. d
  in
  (max_iterations, deadline_at)

(* A warm basis was offered but abandoned: structured replacement for what
   used to be an invisible counter bump. *)
let cold_fallback acc (p : Problem.t) ~max_iterations ~deadline_at =
  Obs.incr m_cold_fallbacks;
  Obs.event ~level:Obs.Debug "revised.cold_fallback"
    [ ("rows", Obs.Int p.Problem.nrows); ("cols", Obs.Int p.Problem.ncols) ];
  cold_solve acc p ~max_iterations ~deadline_at

let solve_impl ?max_iterations ?deadline_ms ?basis (p : Problem.t) =
  let acc = fresh_acc () in
  let max_iterations, deadline_at = budget ?max_iterations ?deadline_ms p in
  match basis with
  | None -> cold_solve acc p ~max_iterations ~deadline_at
  | Some b when Array.length b.Problem.statuses = p.Problem.ncols -> (
    let st = warm_state acc p b in
    st.deadline_at <- deadline_at;
    match run_warm st ~max_iterations with
    | Some r -> (st, r)
    | None -> cold_fallback acc p ~max_iterations ~deadline_at)
  | Some _ ->
    (* A bare positional snapshot of another layout; keyed ones arrive
       here already mapped onto this problem by [Model.solve]. *)
    acc.restarts <- acc.restarts + 1;
    acc.fallback <- Some "basis of another dimension";
    cold_fallback acc p ~max_iterations ~deadline_at

let resume_impl ?max_iterations ?deadline_ms st =
  let max_iterations, deadline_at = budget ?max_iterations ?deadline_ms st.p in
  resume_state st ~deadline_at;
  match run_warm st ~max_iterations with
  | Some r -> (st, r)
  | None -> cold_fallback st.acc st.p ~max_iterations ~deadline_at

(* Both entries open the same span and record the same metrics; the state
   is handed back only with an optimum. *)
let instrumented solve =
  Obs.with_span "revised.solve" (fun () ->
      let t0 = Clock.now_ms () in
      let st, r = solve () in
      if Obs.enabled () then begin
        let s = r.Problem.stats in
        Obs.add m_warm_repairs (float_of_int s.Problem.warm_repairs);
        Obs.add m_pivots (float_of_int r.Problem.iterations);
        Obs.add m_refactorisations (float_of_int s.Problem.refactorisations);
        Obs.add m_degenerate (float_of_int s.Problem.degenerate_pivots);
        Obs.add m_restarts (float_of_int s.Problem.restarts);
        Obs.add m_lu_updates (float_of_int s.Problem.lu_updates);
        Obs.observe m_solve_ms (Clock.since_ms t0);
        Obs.observe m_solve_iterations (float_of_int r.Problem.iterations)
      end;
      (r, if r.Problem.status = Problem.Optimal then Some st else None))

let solve ?max_iterations ?deadline_ms ?basis p =
  instrumented (fun () -> solve_impl ?max_iterations ?deadline_ms ?basis p)

let resumes st (b : Problem.basis) =
  let s = b.Problem.statuses in
  Array.length s = st.p.Problem.ncols
  &&
  let rec same j = j < 0 || (s.(j) = col_status st.vstat.(j) && same (j - 1)) in
  same (Array.length s - 1)

let resume ?max_iterations ?deadline_ms st =
  Obs.incr m_resumes;
  instrumented (fun () -> resume_impl ?max_iterations ?deadline_ms st)
