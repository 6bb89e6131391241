type sense = Le | Ge | Eq

type t = {
  nstruct : int;
  ncols : int;
  nrows : int;
  col_start : int array;
  row_idx : int array;
  col_val : float array;
  lb : float array;
  ub : float array;
  obj : float array;
  rhs : float array;
}

let of_rows ~nstruct ~lb ~ub ~obj ~nrows ~sense ~rhs ~row_start ~term_var ~term_coef =
  let ncols = nstruct + nrows in
  if Array.length lb <> nstruct || Array.length ub <> nstruct || Array.length obj <> nstruct
  then invalid_arg "Problem.of_rows: bound/objective arrays must have length nstruct";
  for j = 0 to nstruct - 1 do
    if Float.is_nan lb.(j) || Float.is_nan ub.(j) then invalid_arg "Problem.of_rows: NaN bound";
    if lb.(j) > ub.(j) then invalid_arg "Problem.of_rows: lb > ub"
  done;
  for j = 0 to nstruct - 1 do
    if Float.is_nan obj.(j) then invalid_arg "Problem.of_rows: NaN objective"
  done;
  (* The column fill, by counting sort. The first pass validates and
     counts each column's nonzero terms; the second, in row order, fills
     each column's segment, so every column comes out sorted by row. *)
  let col_start = Array.make (nstruct + 1) 0 in
  for i = 0 to nrows - 1 do
    if Float.is_nan rhs.(i) then invalid_arg "Problem.of_rows: NaN rhs";
    for k = row_start.(i) to row_start.(i + 1) - 1 do
      let j = term_var.(k) and v = term_coef.(k) in
      if j < 0 || j >= nstruct then invalid_arg "Problem.of_rows: variable index out of range";
      if Float.is_nan v then invalid_arg "Problem.of_rows: NaN coefficient";
      if v <> 0. then col_start.(j + 1) <- col_start.(j + 1) + 1
    done
  done;
  for j = 0 to nstruct - 1 do
    col_start.(j + 1) <- col_start.(j + 1) + col_start.(j)
  done;
  let nnz = col_start.(nstruct) in
  let row_idx = Array.make nnz 0 and col_val = Array.make nnz 0. in
  (* [fill.(j)] is the next free slot of column [j]'s segment. *)
  let fill = Array.sub col_start 0 nstruct in
  let merged = ref false in
  for i = 0 to nrows - 1 do
    for e = row_start.(i) to row_start.(i + 1) - 1 do
      let j = term_var.(e) and v = term_coef.(e) in
      if v <> 0. then begin
        let k = fill.(j) in
        (* A repeated (row, var) term finds its row as the column's last
           entry and is summed into it, in input order. *)
        if k > col_start.(j) && row_idx.(k - 1) = i then begin
          let s = col_val.(k - 1) +. v in
          if Float.is_nan s then invalid_arg "Problem.of_rows: NaN coefficient";
          col_val.(k - 1) <- s;
          merged := true
        end
        else begin
          row_idx.(k) <- i;
          col_val.(k) <- v;
          fill.(j) <- k + 1
        end
      end
    done
  done;
  (* Only a merged column can be short or hold a sum of 0: close the gaps
     and drop the zeros, column by column. *)
  let col_start, row_idx, col_val =
    if not !merged then (col_start, row_idx, col_val)
    else begin
      let keep = ref 0 in
      for j = 0 to nstruct - 1 do
        let first = col_start.(j) in
        col_start.(j) <- !keep;
        for k = first to fill.(j) - 1 do
          if col_val.(k) <> 0. then begin
            row_idx.(!keep) <- row_idx.(k);
            col_val.(!keep) <- col_val.(k);
            incr keep
          end
        done
      done;
      col_start.(nstruct) <- !keep;
      (col_start, Array.sub row_idx 0 !keep, Array.sub col_val 0 !keep)
    end
  in
  let lb' = Array.make ncols 0. and ub' = Array.make ncols 0. in
  Array.blit lb 0 lb' 0 nstruct;
  Array.blit ub 0 ub' 0 nstruct;
  let obj' = Array.make ncols 0. in
  Array.blit obj 0 obj' 0 nstruct;
  (* Each row's slack is its implicit unit column, bounded by the row's
     sense. *)
  for i = 0 to nrows - 1 do
    let slack = nstruct + i in
    let slo, shi =
      match sense.(i) with Le -> (0., infinity) | Ge -> (neg_infinity, 0.) | Eq -> (0., 0.)
    in
    lb'.(slack) <- slo;
    ub'.(slack) <- shi
  done;
  let rhs = Array.sub rhs 0 nrows in
  { nstruct; ncols; nrows; col_start; row_idx; col_val; lb = lb'; ub = ub'; obj = obj'; rhs }

(* The transpose of the structural columns, by one counting sort: the
   columns are sorted by row, so each row comes out sorted by column. *)
type rows = { row_start : int array; row_cols : int array; row_vals : float array }

let rows p =
  let m = p.nrows and nnz = p.col_start.(p.nstruct) in
  let row_start = Array.make (m + 1) 0 in
  for k = 0 to nnz - 1 do
    let i = p.row_idx.(k) in
    row_start.(i + 1) <- row_start.(i + 1) + 1
  done;
  for i = 0 to m - 1 do
    row_start.(i + 1) <- row_start.(i + 1) + row_start.(i)
  done;
  let row_cols = Array.make nnz 0 and row_vals = Array.make nnz 0. in
  let next = Array.sub row_start 0 m in
  for j = 0 to p.nstruct - 1 do
    for k = p.col_start.(j) to p.col_start.(j + 1) - 1 do
      let i = p.row_idx.(k) in
      let t = next.(i) in
      row_cols.(t) <- j;
      row_vals.(t) <- p.col_val.(k);
      next.(i) <- t + 1
    done
  done;
  { row_start; row_cols; row_vals }

type status = Optimal | Infeasible | Unbounded | Iteration_limit | Deadline_exceeded

type col_status = Bs_basic | Bs_lower | Bs_upper | Bs_free

type basis = { statuses : col_status array; keys : int array }

let basis_of_statuses statuses = { statuses; keys = [||] }

(* The old basis's keys in a flat open-addressing table: a power-of-two
   array of slots, each 0 (empty) or 1 + the index of the old column
   holding its key, probed linearly from the key's low bits. The keys are
   already mixed hashes ({!Model}), so their own bits spread the slots. *)
let remap_basis (b : basis) ~nstruct ~keys =
  let n = Array.length keys in
  if Array.length b.keys = n && Array.for_all2 Int.equal b.keys keys then
    (* Same column layout: the common case (a formulation whose rows and
       columns do not depend on the data), kept free of hashing. *)
    ({ b with keys }, false)
  else begin
    let nold = Array.length b.keys in
    let size = ref 16 in
    while !size < 2 * nold do
      size := 2 * !size
    done;
    let mask = !size - 1 in
    let slots = Array.make !size 0 in
    (* The slot holding [k], or the empty slot where it would go. *)
    let rec find k s =
      let o = slots.(s) in
      if o = 0 || b.keys.(o - 1) = k then s else find k ((s + 1) land mask)
    in
    (* A repeated key keeps its last occurrence. *)
    for j = 0 to nold - 1 do
      let k = b.keys.(j) in
      slots.(find k (k land mask)) <- j + 1
    done;
    let statuses =
      Array.init n (fun j ->
          let k = keys.(j) in
          let o = slots.(find k (k land mask)) in
          if o > 0 then b.statuses.(o - 1) else if j < nstruct then Bs_lower else Bs_basic)
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
  basis : basis;
}
