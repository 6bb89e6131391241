type sense = Le | Ge | Eq

type t = {
  nstruct : int;
  ncols : int;
  nrows : int;
  col_rows : int array array;
  col_vals : float array array;
  lb : float array;
  ub : float array;
  obj : float array;
  rhs : float array;
}

let build ~nstruct ~lb ~ub ~obj ~rows =
  let nrows = List.length rows in
  let ncols = nstruct + nrows in
  if Array.length lb <> nstruct || Array.length ub <> nstruct || Array.length obj <> nstruct
  then invalid_arg "Problem.build: bound/objective arrays must have length nstruct";
  Array.iteri
    (fun i l ->
      if Float.is_nan l || Float.is_nan ub.(i) then invalid_arg "Problem.build: NaN bound";
      if l > ub.(i) then invalid_arg "Problem.build: lb > ub")
    lb;
  let lb' = Array.make ncols 0. and ub' = Array.make ncols 0. in
  Array.blit lb 0 lb' 0 nstruct;
  Array.blit ub 0 ub' 0 nstruct;
  let obj' = Array.make ncols 0. in
  Array.blit obj 0 obj' 0 nstruct;
  let rhs = Array.make nrows 0. in
  (* Accumulate column nonzeros; duplicate (row, var) terms are merged. *)
  let acc : (int, float) Hashtbl.t array = Array.init ncols (fun _ -> Hashtbl.create 4) in
  let add_entry col row v =
    if v <> 0. then begin
      let tbl = acc.(col) in
      match Hashtbl.find_opt tbl row with
      | None -> Hashtbl.add tbl row v
      | Some v0 -> Hashtbl.replace tbl row (v0 +. v)
    end
  in
  List.iteri
    (fun i (terms, sense, b) ->
      if Float.is_nan b then invalid_arg "Problem.build: NaN rhs";
      rhs.(i) <- b;
      List.iter
        (fun (j, v) ->
          if j < 0 || j >= nstruct then invalid_arg "Problem.build: variable index out of range";
          if Float.is_nan v then invalid_arg "Problem.build: NaN coefficient";
          add_entry j i v)
        terms;
      let slack = nstruct + i in
      add_entry slack i 1.;
      let slo, shi =
        match sense with Le -> (0., infinity) | Ge -> (neg_infinity, 0.) | Eq -> (0., 0.)
      in
      lb'.(slack) <- slo;
      ub'.(slack) <- shi)
    rows;
  let col_rows = Array.make ncols [||] and col_vals = Array.make ncols [||] in
  for j = 0 to ncols - 1 do
    let entries =
      Hashtbl.fold (fun r v l -> if v = 0. then l else (r, v) :: l) acc.(j) []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    col_rows.(j) <- Array.of_list (List.map fst entries);
    col_vals.(j) <- Array.of_list (List.map snd entries)
  done;
  { nstruct; ncols; nrows; col_rows; col_vals; lb = lb'; ub = ub'; obj = obj'; rhs }

type status = Optimal | Infeasible | Unbounded | Iteration_limit | Deadline_exceeded

type col_status = Bs_basic | Bs_lower | Bs_upper | Bs_free

type basis = { statuses : col_status array; keys : int array }

let basis_of_statuses statuses = { statuses; keys = [||] }

let remap_basis (b : basis) ~nstruct ~keys =
  let n = Array.length keys in
  if Array.length b.keys = n && Array.for_all2 Int.equal b.keys keys then
    (* Same column layout: the common case (a formulation whose rows and
       columns do not depend on the data), kept free of hashing. *)
    ({ b with keys }, false)
  else begin
    let old = Hashtbl.create (Array.length b.keys) in
    Array.iteri (fun j k -> Hashtbl.replace old k b.statuses.(j)) b.keys;
    let statuses =
      Array.init n (fun j ->
          match Hashtbl.find_opt old keys.(j) with
          | Some s -> s
          | None -> if j < nstruct then Bs_lower else Bs_basic)
    in
    ({ statuses; keys }, true)
  end

type solver_stats = {
  phase1_iterations : int;
  phase2_iterations : int;
  refactorisations : int;
  degenerate_pivots : int;
  bland_activations : int;
  restarts : int;
  ftran_ms : float;
  factor_nnz : int;
  factor_fill : int;
  lu_updates : int;
  warm_started : bool;
  warm_remapped : bool;
  warm_repairs : int;
  status_reason : string;
}

let default_stats ?(reason = "") () =
  {
    phase1_iterations = 0;
    phase2_iterations = 0;
    refactorisations = 0;
    degenerate_pivots = 0;
    bland_activations = 0;
    restarts = 0;
    ftran_ms = 0.;
    factor_nnz = 0;
    factor_fill = 0;
    lu_updates = 0;
    warm_started = false;
    warm_remapped = false;
    warm_repairs = 0;
    status_reason = reason;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "iters=%d+%d refactor=%d nnz=%d fill=%d updates=%d degen=%d bland=%d restarts=%d \
     ftran=%.2fms warm=%b%s%s%s"
    s.phase1_iterations s.phase2_iterations s.refactorisations s.factor_nnz s.factor_fill
    s.lu_updates s.degenerate_pivots s.bland_activations s.restarts s.ftran_ms s.warm_started
    (if s.warm_remapped then " remapped" else "")
    (if s.warm_repairs > 0 then Printf.sprintf " repaired=%d" s.warm_repairs else "")
    (if s.status_reason = "" then "" else " (" ^ s.status_reason ^ ")")

type result = {
  status : status;
  x : float array;
  objective : float;
  iterations : int;
  stats : solver_stats;
  basis : basis option;
}

let max_violation p x =
  let viol = ref 0. in
  (* Bounds. *)
  for j = 0 to p.ncols - 1 do
    if x.(j) < p.lb.(j) then viol := max !viol (p.lb.(j) -. x.(j));
    if x.(j) > p.ub.(j) then viol := max !viol (x.(j) -. p.ub.(j))
  done;
  (* Rows: A x + s = rhs. *)
  let lhs = Array.make p.nrows 0. in
  for j = 0 to p.ncols - 1 do
    let rows = p.col_rows.(j) and vals = p.col_vals.(j) in
    let xj = x.(j) in
    if xj <> 0. then
      for k = 0 to Array.length rows - 1 do
        lhs.(rows.(k)) <- lhs.(rows.(k)) +. (vals.(k) *. xj)
      done
  done;
  for i = 0 to p.nrows - 1 do
    viol := max !viol (abs_float (lhs.(i) -. p.rhs.(i)))
  done;
  !viol
