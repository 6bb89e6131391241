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

let of_rows ~nstruct ~lb ~ub ~obj ~nrows ~sense ~rhs ~row_start ~term_var ~term_coef =
  let ncols = nstruct + nrows in
  if Array.length lb <> nstruct || Array.length ub <> nstruct || Array.length obj <> nstruct
  then invalid_arg "Problem.of_rows: bound/objective arrays must have length nstruct";
  Array.iteri
    (fun i l ->
      if Float.is_nan l || Float.is_nan ub.(i) then invalid_arg "Problem.of_rows: NaN bound";
      if l > ub.(i) then invalid_arg "Problem.of_rows: lb > ub")
    lb;
  Array.iter (fun c -> if Float.is_nan c then invalid_arg "Problem.of_rows: NaN objective") obj;
  (* The column fill, by counting sort. The first pass validates and
     counts each column's nonzero terms; the second, in row order, fills
     arrays of those sizes, so every column comes out sorted by row. *)
  let col_rows = Array.make ncols [||] and col_vals = Array.make ncols [||] in
  let count = Array.make nstruct 0 in
  for i = 0 to nrows - 1 do
    if Float.is_nan rhs.(i) then invalid_arg "Problem.of_rows: NaN rhs";
    for k = row_start.(i) to row_start.(i + 1) - 1 do
      let j = term_var.(k) and v = term_coef.(k) in
      if j < 0 || j >= nstruct then invalid_arg "Problem.of_rows: variable index out of range";
      if Float.is_nan v then invalid_arg "Problem.of_rows: NaN coefficient";
      if v <> 0. then count.(j) <- count.(j) + 1
    done
  done;
  for j = 0 to nstruct - 1 do
    col_rows.(j) <- Array.make count.(j) 0;
    col_vals.(j) <- Array.make count.(j) 0.
  done;
  let fill = Array.make nstruct 0 in
  for i = 0 to nrows - 1 do
    for e = row_start.(i) to row_start.(i + 1) - 1 do
      let j = term_var.(e) and v = term_coef.(e) in
      if v <> 0. then begin
        let k = fill.(j) and rs = col_rows.(j) and vs = col_vals.(j) in
        (* A repeated (row, var) term finds its row as the column's last
           entry and is summed into it, in input order. *)
        if k > 0 && rs.(k - 1) = i then begin
          let s = vs.(k - 1) +. v in
          if Float.is_nan s then invalid_arg "Problem.of_rows: NaN coefficient";
          vs.(k - 1) <- s
        end
        else begin
          rs.(k) <- i;
          vs.(k) <- v;
          fill.(j) <- k + 1
        end
      end
    done
  done;
  (* Only a merged column can be short or hold a sum of 0: trim it. *)
  for j = 0 to nstruct - 1 do
    if fill.(j) < count.(j) then begin
      let rs = col_rows.(j) and vs = col_vals.(j) in
      let keep = ref 0 in
      for k = 0 to fill.(j) - 1 do
        if vs.(k) <> 0. then begin
          rs.(!keep) <- rs.(k);
          vs.(!keep) <- vs.(k);
          incr keep
        end
      done;
      col_rows.(j) <- Array.sub rs 0 !keep;
      col_vals.(j) <- Array.sub vs 0 !keep
    end
  done;
  let lb' = Array.make ncols 0. and ub' = Array.make ncols 0. in
  Array.blit lb 0 lb' 0 nstruct;
  Array.blit ub 0 ub' 0 nstruct;
  let obj' = Array.make ncols 0. in
  Array.blit obj 0 obj' 0 nstruct;
  (* Each row's slack is its unit column, bounded by the row's sense. *)
  for i = 0 to nrows - 1 do
    let slack = nstruct + i in
    col_rows.(slack) <- [| i |];
    col_vals.(slack) <- [| 1. |];
    let slo, shi =
      match sense.(i) with Le -> (0., infinity) | Ge -> (neg_infinity, 0.) | Eq -> (0., 0.)
    in
    lb'.(slack) <- slo;
    ub'.(slack) <- shi
  done;
  let rhs = Array.sub rhs 0 nrows in
  { nstruct; ncols; nrows; col_rows; col_vals; lb = lb'; ub = ub'; obj = obj'; rhs }

(* The transpose of the structural columns, by one counting sort: the
   columns are sorted by row, so each row comes out sorted by column. *)
type rows = { row_start : int array; row_cols : int array; row_vals : float array }

let rows p =
  let m = p.nrows in
  let row_start = Array.make (m + 1) 0 in
  for j = 0 to p.nstruct - 1 do
    Array.iter (fun i -> row_start.(i + 1) <- row_start.(i + 1) + 1) p.col_rows.(j)
  done;
  for i = 0 to m - 1 do
    row_start.(i + 1) <- row_start.(i + 1) + row_start.(i)
  done;
  let nnz = row_start.(m) in
  let row_cols = Array.make nnz 0 and row_vals = Array.make nnz 0. in
  let next = Array.sub row_start 0 m in
  for j = 0 to p.nstruct - 1 do
    let rs = p.col_rows.(j) and vs = p.col_vals.(j) in
    for k = 0 to Array.length rs - 1 do
      let t = next.(rs.(k)) in
      row_cols.(t) <- j;
      row_vals.(t) <- vs.(k);
      next.(rs.(k)) <- t + 1
    done
  done;
  { row_start; row_cols; row_vals }

type status = Optimal | Infeasible | Unbounded | Iteration_limit | Deadline_exceeded

type col_status = Bs_basic | Bs_lower | Bs_upper | Bs_free

type basis = { statuses : col_status array; keys : int array }

let basis_of_statuses statuses = { statuses; keys = [||] }

(* Column keys are already mixed hashes ({!Model}), so their own bits
   index the table: no polymorphic hashing or comparison. *)
module Key_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

let remap_basis (b : basis) ~nstruct ~keys =
  let n = Array.length keys in
  if Array.length b.keys = n && Array.for_all2 Int.equal b.keys keys then
    (* Same column layout: the common case (a formulation whose rows and
       columns do not depend on the data), kept free of hashing. *)
    ({ b with keys }, false)
  else begin
    let old = Key_table.create (Array.length b.keys) in
    Array.iteri (fun j k -> Key_table.replace old k b.statuses.(j)) b.keys;
    let statuses =
      Array.init n (fun j ->
          match Key_table.find_opt old keys.(j) with
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
