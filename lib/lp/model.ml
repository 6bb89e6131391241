module Obs = Ffc_obs.Obs

let m_remaps = Obs.counter "model.basis_remaps"

type var = int

type row = { terms : (int * float) list; sense : Problem.sense; rhs : float; key : int }

type t = {
  mutable nvars : int;
  mutable lbs : float list; (* reversed *)
  mutable ubs : float list; (* reversed *)
  mutable var_keys : int list; (* reversed *)
  mutable rows : row list; (* reversed *)
  mutable nrows : int;
  mutable objective : Expr.t;
  mutable sense_max : bool;
  mutable last_stats : Problem.solver_stats option;
      (* instrumentation of the most recent [solve], whatever its outcome *)
  mutable scope : int; (* hash of the current scope's path from the root *)
  mutable var_ord : int; (* variables added directly in the current scope *)
  mutable row_ord : int; (* rows added directly in the current scope *)
}

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
    lbs = [];
    ubs = [];
    var_keys = [];
    rows = [];
    nrows = 0;
    objective = Expr.zero;
    sense_max = true;
    last_stats = None;
    scope = 0;
    var_ord = 0;
    row_ord = 0;
  }

let scope t id f =
  let outer = t.scope and var_ord = t.var_ord and row_ord = t.row_ord in
  let restore () =
    t.scope <- outer;
    t.var_ord <- var_ord;
    t.row_ord <- row_ord
  in
  t.scope <- child_scope outer id;
  t.var_ord <- 0;
  t.row_ord <- 0;
  match f () with
  | v ->
    restore ();
    v
  | exception e ->
    restore ();
    raise e

let add_var ?(lb = 0.) ?(ub = infinity) t =
  let i = t.nvars in
  t.nvars <- i + 1;
  t.lbs <- lb :: t.lbs;
  t.ubs <- ub :: t.ubs;
  t.var_keys <- var_key t.scope t.var_ord :: t.var_keys;
  t.var_ord <- t.var_ord + 1;
  i

let add_row t lhs rhs sense =
  let diff = Expr.sub lhs rhs in
  let terms = Expr.terms diff in
  let b = -.Expr.constant diff in
  t.rows <- { terms; sense; rhs = b; key = row_key t.scope t.row_ord } :: t.rows;
  t.row_ord <- t.row_ord + 1;
  t.nrows <- t.nrows + 1

let le t lhs rhs = add_row t lhs rhs Problem.Le
let ge t lhs rhs = add_row t lhs rhs Problem.Ge
let eq t lhs rhs = add_row t lhs rhs Problem.Eq

let maximize t e =
  t.objective <- e;
  t.sense_max <- true

let minimize t e =
  t.objective <- e;
  t.sense_max <- false

type solution = {
  x : float array;
  obj : float;
  stats : Problem.solver_stats;
  basis : Problem.basis option;
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit
  | Deadline_exceeded

type backend = [ `Revised | `Dense_tableau ]

(* The computational form plus the key of each of its columns: the
   variables' keys, then the keys of the rows presolve kept (their slacks). *)
let to_problem ?(presolve = true) t =
  let lb = Array.of_list (List.rev t.lbs) in
  let ub = Array.of_list (List.rev t.ubs) in
  let obj = Array.make t.nvars 0. in
  let sign = if t.sense_max then -1. else 1. in
  List.iter (fun (j, c) -> obj.(j) <- obj.(j) +. (sign *. c)) (Expr.terms t.objective);
  let rows = List.rev_map (fun r -> (r.terms, r.sense, r.rhs)) t.rows in
  let row_keys = Array.of_list (List.rev_map (fun r -> r.key) t.rows) in
  let var_keys = Array.of_list (List.rev t.var_keys) in
  let build ~lb ~ub rows row_keys =
    (Problem.build ~nstruct:t.nvars ~lb ~ub ~obj ~rows, Array.append var_keys row_keys)
  in
  if presolve then
    match Presolve.reduce ~lb ~ub ~rows with
    | Presolve.Infeasible _ -> None
    | Presolve.Reduced { lb; ub; rows; kept } ->
      Some (build ~lb ~ub rows (Array.map (fun i -> row_keys.(i)) kept))
  else Some (build ~lb ~ub rows row_keys)

let solve ?(backend = `Revised) ?presolve ?max_iterations ?deadline_ms ?warm_start t =
  match to_problem ?presolve t with
  | None ->
    t.last_stats <- Some (Problem.default_stats ~reason:"presolve-infeasible" ());
    Infeasible
  | Some (p, keys) ->
  let result, remapped =
    match backend with
    | `Revised ->
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
    | `Dense_tableau -> (Dense_tableau.solve ?max_iterations ?deadline_ms p, false)
  in
  let stats = { result.Problem.stats with Problem.warm_remapped = remapped } in
  t.last_stats <- Some stats;
  match result.Problem.status with
  | Problem.Optimal ->
    let x = Array.sub result.Problem.x 0 t.nvars in
    let obj =
      Expr.eval (fun j -> x.(j)) t.objective
    in
    let basis = Option.map (fun b -> { b with Problem.keys }) result.Problem.basis in
    Optimal { x; obj; stats; basis }
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
