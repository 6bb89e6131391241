module Obs = Ffc_obs.Obs

let m_remaps = Obs.counter "model.basis_remaps"

type var = int

(* The unpresolved problem and the key of each of its columns: the
   variables' keys, then the rows' keys (their slacks). [set_ub] writes
   through to [problem]. [solver] is the state the last solve ended in
   when that solve was an unpresolved optimum of [problem]. *)
type kept = {
  problem : Problem.t;
  keys : int array;
  mutable solver : Revised.state option;
}

(* Variables and rows live in growable arrays whose first [nvars] / [nrows]
   slots are in use. Row [i]'s terms are the slots [row_start.(i)] to
   [row_start.(i + 1) - 1] of one row-major buffer, unmerged and in the
   order they were appended; [Problem.of_rows] merges them. The slots from
   [row_start.(nrows)] to [nterms - 1] are the row being built. *)
type t = {
  mutable nvars : int;
  mutable lbs : float array;
  mutable ubs : float array;
  mutable var_keys : int array;
  mutable nrows : int;
  mutable senses : Problem.sense array;
  mutable rhs : float array;
  mutable row_keys : int array;
  mutable row_start : int array; (* one slot more than the rows in use *)
  mutable nterms : int;
  mutable term_var : int array;
  mutable term_coef : float array;
  mutable objective : Expr.t;
  mutable sense_max : bool;
  mutable last_stats : Problem.solver_stats option;
      (* instrumentation of the most recent [solve], whatever its outcome *)
  mutable kept : kept option;
      (* what the last [solve] assembled, reused by the next one until a
         variable, row or objective is added *)
  mutable scope : int; (* hash of the current scope's path from the root *)
  mutable var_ord : int; (* variables added directly in the current scope *)
  mutable row_ord : int; (* rows added directly in the current scope *)
}

(* The arrays grow by doubling: [a] copied into [n] slots, padded with
   [x]. *)
let resize a n x =
  let b = Array.make n x in
  Array.blit a 0 b 0 (Array.length a);
  b

let grown n = max 16 (2 * n)

(* Keys: a scope is a hash of its path from the root (the root is 0), and
   a variable's or row's key hashes its scope with its ordinal there, so no
   key depends on what other scopes hold. Each kind -- child scope,
   variable, row -- adds its own salt before a multiply-xorshift finaliser
   (a bijection on 63-bit ints). The salts lie ~2^60 apart, far beyond any
   ordinal, so kinds never meet (without them 0 mixes to 0, making scope 0
   the root and variable 0 share a key with row 0); other collisions need
   two pseudo-random scope hashes to land within an ordinal's distance. *)
let mix salt h x =
  let z = (h * 0x2545F4914F6CDD1D) + x + salt in
  let z = (z lxor (z lsr 32)) * 0x1D8E4E27C47D124F in
  z lxor (z lsr 29)

let child_scope = mix 0x3C6EF372FE94F82B
let var_key = mix 0x1F83D9ABFB41BD6B
let row_key = mix 0x2BD9D3E8A4C6F3A1

let create () =
  {
    nvars = 0;
    lbs = [||];
    ubs = [||];
    var_keys = [||];
    nrows = 0;
    senses = [||];
    rhs = [||];
    row_keys = [||];
    row_start = [||];
    nterms = 0;
    term_var = [||];
    term_coef = [||];
    objective = Expr.zero;
    sense_max = true;
    last_stats = None;
    kept = None;
    scope = 0;
    var_ord = 0;
    row_ord = 0;
  }

let scope t id f =
  let outer = t.scope and var_ord = t.var_ord and row_ord = t.row_ord in
  t.scope <- child_scope outer id;
  t.var_ord <- 0;
  t.row_ord <- 0;
  match f () with
  | v ->
    t.scope <- outer;
    t.var_ord <- var_ord;
    t.row_ord <- row_ord;
    v
  | exception e ->
    t.scope <- outer;
    t.var_ord <- var_ord;
    t.row_ord <- row_ord;
    raise e

let add_var ?(lb = 0.) ?(ub = infinity) t =
  let i = t.nvars in
  if i = Array.length t.lbs then begin
    t.lbs <- resize t.lbs (grown i) 0.;
    t.ubs <- resize t.ubs (grown i) 0.;
    t.var_keys <- resize t.var_keys (grown i) 0
  end;
  t.lbs.(i) <- lb;
  t.ubs.(i) <- ub;
  t.var_keys.(i) <- var_key t.scope t.var_ord;
  t.nvars <- i + 1;
  t.var_ord <- t.var_ord + 1;
  t.kept <- None;
  i

let set_ub t j ub =
  if j < 0 || j >= t.nvars then invalid_arg "Model.set_ub: no such variable";
  if Float.is_nan ub then invalid_arg "Model.set_ub: NaN bound";
  if t.lbs.(j) > ub then invalid_arg "Model.set_ub: lb > ub";
  t.ubs.(j) <- ub;
  match t.kept with Some k -> k.problem.Problem.ub.(j) <- ub | None -> ()

let term t j c =
  let k = t.nterms in
  if k = Array.length t.term_var then begin
    t.term_var <- resize t.term_var (grown k) 0;
    t.term_coef <- resize t.term_coef (grown k) 0.
  end;
  t.term_var.(k) <- j;
  t.term_coef.(k) <- c;
  t.nterms <- k + 1

let close_row t sense ~lhs ~rhs =
  let i = t.nrows in
  if i = Array.length t.senses then begin
    t.senses <- resize t.senses (grown i) Problem.Le;
    t.rhs <- resize t.rhs (grown i) 0.;
    t.row_keys <- resize t.row_keys (grown i) 0;
    t.row_start <- resize t.row_start (grown i + 1) 0
  end;
  t.senses.(i) <- sense;
  t.rhs.(i) <- -.(lhs -. rhs);
  t.row_keys.(i) <- row_key t.scope t.row_ord;
  t.row_start.(i + 1) <- t.nterms;
  t.row_ord <- t.row_ord + 1;
  t.nrows <- i + 1;
  t.kept <- None

(* The [Expr] front-end: a row's terms in the order [Expr.iter_sub] lists
   [lhs - rhs], then both constants. *)
let add_row t lhs rhs sense =
  Expr.iter_sub (term t) lhs rhs;
  close_row t sense ~lhs:(Expr.constant lhs) ~rhs:(Expr.constant rhs)

let le t lhs rhs = add_row t lhs rhs Problem.Le
let ge t lhs rhs = add_row t lhs rhs Problem.Ge
let eq t lhs rhs = add_row t lhs rhs Problem.Eq

let maximize t e =
  t.objective <- e;
  t.sense_max <- true;
  t.kept <- None

let minimize t e =
  t.objective <- e;
  t.sense_max <- false;
  t.kept <- None

type solution = {
  x : float array;
  obj : float;
  stats : Problem.solver_stats;
  basis : Problem.basis;
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit
  | Deadline_exceeded

(* The unpresolved computational form and the key of each of its columns. *)
let assemble t =
  let lb = Array.sub t.lbs 0 t.nvars and ub = Array.sub t.ubs 0 t.nvars in
  let obj = Array.make t.nvars 0. in
  let sign = if t.sense_max then -1. else 1. in
  List.iter (fun (j, c) -> obj.(j) <- obj.(j) +. (sign *. c)) (Expr.terms t.objective);
  let p =
    Problem.of_rows ~nstruct:t.nvars ~lb ~ub ~obj ~nrows:t.nrows ~sense:t.senses ~rhs:t.rhs
      ~row_start:t.row_start ~term_var:t.term_var ~term_coef:t.term_coef
  in
  (p, Array.append (Array.sub t.var_keys 0 t.nvars) (Array.sub t.row_keys 0 t.nrows))

(* Presolve, when asked, keeps a subset of the rows: their slacks keep
   their keys. *)
let reduce ~presolve t ((p, _) as assembled) =
  if not presolve then Some assembled
  else
    match Presolve.reduce p with
    | Presolve.Infeasible _ -> None
    | Presolve.Reduced { problem; kept } ->
      Some
        ( problem,
          Array.append (Array.sub t.var_keys 0 t.nvars) (Array.map (fun i -> t.row_keys.(i)) kept)
        )

let to_problem ?(presolve = true) t = reduce ~presolve t (assemble t)

let objective_at t x = Expr.eval (fun j -> x.(j)) t.objective

(* Whether [b] is the basis the solve that left [st] returned: the kept
   problem's keys and [st]'s statuses. *)
let resumes st keys (b : Problem.basis) =
  let bk = b.Problem.keys in
  (bk == keys || (Array.length bk = Array.length keys && Array.for_all2 Int.equal bk keys))
  && Revised.resumes st b

let solve ?(presolve = true) ?max_iterations ?deadline_ms ?warm_start t =
  let kept =
    match t.kept with
    | Some k -> k
    | None ->
      let problem, keys = assemble t in
      let k = { problem; keys; solver = None } in
      t.kept <- Some k;
      k
  in
  let last = kept.solver in
  kept.solver <- None;
  match reduce ~presolve t (kept.problem, kept.keys) with
  | None ->
    t.last_stats <- Some (Problem.default_stats ~reason:"presolve-infeasible" ());
    Infeasible
  | Some (p, keys) ->
  let (result, state), remapped =
    match (warm_start, last) with
    | Some b, Some st when (not presolve) && resumes st keys b ->
      (* The basis the last solve of this very problem returned: resume
         that solve's state instead of factorising the basis again. *)
      (Revised.resume ?max_iterations ?deadline_ms st, false)
    | _ ->
      (* A keyed basis is mapped onto this build's columns: rows and
         variables that appeared or vanished since it was recorded
         (data-dependent blocks of the formulation, presolve reductions)
         are matched by key, never by position. *)
      let basis, remapped =
        match warm_start with
        | Some b when Array.length b.Problem.keys > 0 ->
          let b, remapped = Problem.remap_basis b ~nstruct:t.nvars ~keys in
          if remapped then Obs.incr m_remaps;
          (Some b, remapped)
        | w -> (w, false)
      in
      (Revised.solve ?max_iterations ?deadline_ms ?basis p, remapped)
  in
  if not presolve then kept.solver <- state;
  let stats = { result.Problem.stats with Problem.warm_remapped = remapped } in
  t.last_stats <- Some stats;
  match result.Problem.status with
  | Problem.Optimal ->
    let x = Array.sub result.Problem.x 0 t.nvars in
    Optimal
      { x; obj = objective_at t x; stats; basis = { result.Problem.basis with Problem.keys } }
  | Problem.Infeasible -> Infeasible
  | Problem.Unbounded -> Unbounded
  | Problem.Iteration_limit -> Iteration_limit
  | Problem.Deadline_exceeded -> Deadline_exceeded

let last_stats t = t.last_stats

let solution_stats sol = sol.stats

let solution_basis sol = sol.basis

let value sol j = sol.x.(j)

let objective_value sol = sol.obj

let num_vars t = t.nvars
let num_constraints t = t.nrows
