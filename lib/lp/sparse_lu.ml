(* Sparse LU basis factorisation with restricted Markowitz pivoting.

   Right-looking elimination over a column-wise dynamic sparse matrix. Each
   step picks, among a few lowest-count active columns, the entry minimising
   the Markowitz cost (row_count - 1) * (col_count - 1) subject to threshold
   partial pivoting (|entry| >= tau * column max). The pivot column's active
   entries become one L eta (Gaussian multipliers); the pivot row's entries
   in the other active columns move into their U columns; affected columns
   are updated through a sparse accumulator so cost follows the fill that is
   actually created, not m^2.

   FTRAN solves L then U (back substitution over the pivot-step order);
   BTRAN runs the transposed solves in reverse. Both visit only the steps
   that can change a vector: the L solves the steps with multipliers, the
   U solves the steps with above-diagonal U entries or a pivot other than
   1. Every other step is an identity step -- a slack, a completed row, or
   any unit pivot without fill -- whose whole work is [x /. 1.], exactly [x]
   in IEEE arithmetic, so skipping it changes no bit. Simplex column
   replacements are held as sparse product-form update etas applied after
   (FTRAN) / before (BTRAN) the triangular solves; the caller refactorises
   when the file grows past its policy limit.

   Repair mode (warm starts) accepts any number of columns and never fails:
   a column that cannot be pivoted -- empty, or reduced to (near) zero by
   the eliminations before it -- is skipped and reported instead of making
   the whole basis singular, and rank completion covers the rows left
   over. *)

module Obs = Ffc_obs.Obs

let m_factorisations = Obs.counter "lu.factorisations"
let m_singular = Obs.counter "lu.singular"
let m_etas = Obs.counter "lu.update_etas"
let m_fill = Obs.histogram "lu.fill_in"
let m_nnz = Obs.histogram "lu.nnz"

let drop_tol = 1e-13
let abs_pivot_tol = 1e-11
let tau = 0.01 (* threshold partial pivoting factor *)
let search_limit = 8 (* candidate columns examined per pivot *)

type t = {
  m : int;
  prow : int array; (* step -> pivot row *)
  upiv : float array; (* step -> pivot value *)
  l_off : int array; (* step -> range in l_rows/l_vals; length m+1 *)
  l_rows : int array;
  l_vals : float array; (* Gaussian multipliers *)
  u_off : int array; (* step -> range of above-diagonal U entries *)
  u_rows : int array;
  u_vals : float array;
  l_steps : int array; (* steps with L multipliers, ascending *)
  u_steps : int array; (* steps with U entries or a pivot other than 1, ascending *)
  lu_nnz : int;
  fill : int;
  (* product-form update etas (column replacements since factorisation) *)
  mutable e_r : int array;
  mutable e_piv : float array;
  mutable e_idx : int array array;
  mutable e_val : float array array;
  mutable nupd : int;
  mutable e_nnz : int; (* the etas' entries, pivots included *)
}

type factor_result = {
  lu : t;
  row_of_col : int array;
  completed_rows : int list;
  rejected : int list;
}

(* ------------------------------------------------------------------ *)
(* Dynamic int/float array pairs                                       *)
(* ------------------------------------------------------------------ *)

type dyn = { mutable ir : int array; mutable fr : float array; mutable len : int }

let dyn_make cap = { ir = Array.make (max 4 cap) 0; fr = Array.make (max 4 cap) 0.; len = 0 }

let dyn_push d i v =
  if d.len = Array.length d.ir then begin
    let cap = 2 * d.len in
    let ir = Array.make cap 0 and fr = Array.make cap 0. in
    Array.blit d.ir 0 ir 0 d.len;
    Array.blit d.fr 0 fr 0 d.len;
    d.ir <- ir;
    d.fr <- fr
  end;
  d.ir.(d.len) <- i;
  d.fr.(d.len) <- v;
  d.len <- d.len + 1

type idyn = { mutable a : int array; mutable n : int }

let idyn_make cap = { a = Array.make (max 4 cap) 0; n = 0 }

let idyn_push d i =
  if d.n = Array.length d.a then begin
    let a = Array.make (2 * d.n) 0 in
    Array.blit d.a 0 a 0 d.n;
    d.a <- a
  end;
  d.a.(d.n) <- i;
  d.n <- d.n + 1

(* ------------------------------------------------------------------ *)
(* Factorisation                                                       *)
(* ------------------------------------------------------------------ *)

exception Singular

(* Factorisation scratch. A factorisation allocates thousands of small
   per-column/per-row growable arrays, and a simplex solve refactorises the
   same basis dimension dozens of times, so the scratch structures outlive
   a call: each domain keeps one workspace ([scratch] below), and a call
   resets it (length fields and pivot flags only -- O(m) writes, no
   re-allocation) instead of rebuilding it. Dedup markers survive resets by
   using stamps that only move forward. Everything escaping into the
   returned [t] is freshly allocated, so the workspace never aliases live
   factors. *)
type workspace = {
  size : int;
  w_col : dyn array;
  w_ufix : dyn array;
  w_rowcnt : int array;
  w_rowcols : idyn array;
  w_row_pivoted : bool array;
  w_col_pivoted : bool array;
  (* Exact count lists: every active column lives in exactly one
     doubly-linked list keyed by its current entry count, so pivot search
     never meets stale or duplicate entries. *)
  w_head : int array; (* count -> first column, -1 = empty; length m+1 *)
  w_nxt : int array;
  w_prv : int array;
  w_lcnt : int array; (* count the column is currently linked under *)
  w_ldyn : dyn;
  w_udyn : dyn;
  w_lsteps : idyn;
  w_usteps : idyn;
  w_spa_val : float array;
  w_spa_stamp : int array;
  w_spa_rows : idyn;
  w_colvisit : int array;
  mutable w_stamp : int; (* sparse-accumulator generation *)
  mutable w_visit : int; (* pivot-row walk generation *)
}

(* [m] fresh growable arrays, in an array made around [placeholder] and
   then filled: [Array.init] would seed it with a young block, and the
   runtime empties the minor heap before it allocates an array longer than
   256 words around one. *)
let fresh m placeholder make =
  let a = Array.make m placeholder in
  for i = 0 to m - 1 do
    a.(i) <- make 4
  done;
  a

let no_dyn = dyn_make 0
let no_idyn = idyn_make 0

let workspace m =
  {
    size = m;
    w_col = fresh m no_dyn dyn_make;
    w_ufix = fresh m no_dyn dyn_make;
    w_rowcnt = Array.make m 0;
    w_rowcols = fresh m no_idyn idyn_make;
    w_row_pivoted = Array.make m false;
    w_col_pivoted = Array.make m false;
    w_head = Array.make (m + 1) (-1);
    w_nxt = Array.make m (-1);
    w_prv = Array.make m (-1);
    w_lcnt = Array.make m 0;
    w_ldyn = dyn_make (4 * m);
    w_udyn = dyn_make (4 * m);
    w_lsteps = idyn_make m;
    w_usteps = idyn_make m;
    w_spa_val = Array.make m 0.;
    w_spa_stamp = Array.make m (-1);
    w_spa_rows = idyn_make 16;
    w_colvisit = Array.make m (-1);
    w_stamp = 0;
    w_visit = 0;
  }

(* The workspace of this domain, grown to the largest [max m ncols] a
   call has needed. A factorisation runs to completion before the next
   one starts on its domain and resets what it reads, and solves on
   different domains never share it. *)
let scratch : workspace ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (workspace 0))

let factorise ~repair ~m ~complete ~ncols ~col_start ~row_idx ~col_val =
  let complete = complete || repair in
  if (not complete) && ncols <> m then invalid_arg "Sparse_lu.factorise: need m columns";
  if ncols > m && not repair then invalid_arg "Sparse_lu.factorise: more columns than rows";
  (* Per-column scratch is indexed by supplied column, per-row scratch by
     row: repair mode may supply more columns than rows. *)
  let need = max m ncols in
  let cell = Domain.DLS.get scratch in
  if !cell.size < need then cell := workspace need;
  let ws = !cell in
  (* Active matrix, column-wise. *)
  let col = ws.w_col and ufix = ws.w_ufix in
  let rowcnt = ws.w_rowcnt and rowcols = ws.w_rowcols in
  let row_pivoted = ws.w_row_pivoted and col_pivoted = ws.w_col_pivoted in
  for k = 0 to ncols - 1 do
    col.(k).len <- 0;
    ufix.(k).len <- 0;
    col_pivoted.(k) <- false
  done;
  for r = 0 to m - 1 do
    rowcnt.(r) <- 0;
    rowcols.(r).n <- 0;
    row_pivoted.(r) <- false
  done;
  let orig_nnz = ref 0 in
  for k = 0 to ncols - 1 do
    for t = col_start.(k) to col_start.(k + 1) - 1 do
      let r = row_idx.(t) and v = col_val.(t) in
      if v <> 0. then begin
        dyn_push col.(k) r v;
        rowcnt.(r) <- rowcnt.(r) + 1;
        idyn_push rowcols.(r) k;
        incr orig_nnz
      end
    done
  done;
  (* Exact count lists. [low]/[high] bound the nonempty range so the pivot
     search starts at the sparsest populated count. *)
  let head = ws.w_head and nxt = ws.w_nxt and prv = ws.w_prv and lcnt = ws.w_lcnt in
  for i = 0 to m do
    head.(i) <- -1
  done;
  let low = ref 1 and high = ref 1 in
  let link k =
    let c = col.(k).len in
    lcnt.(k) <- c;
    prv.(k) <- -1;
    nxt.(k) <- head.(c);
    if head.(c) >= 0 then prv.(head.(c)) <- k;
    head.(c) <- k;
    if c < !low then low := max 1 c;
    if c > !high then high := c
  in
  let unlink k =
    let c = lcnt.(k) in
    if prv.(k) >= 0 then nxt.(prv.(k)) <- nxt.(k) else head.(c) <- nxt.(k);
    if nxt.(k) >= 0 then prv.(nxt.(k)) <- prv.(k)
  in
  let relink k =
    unlink k;
    link k
  in
  (* Repair mode: a column that cannot be pivoted leaves the elimination
     (marked pivoted so row walks skip it, its entries uncounted) and is
     reported; [remaining] counts the columns still to pivot or reject. *)
  let rejected = ref [] in
  let remaining = ref ncols in
  let reject k =
    let c = col.(k) in
    for t = 0 to c.len - 1 do
      rowcnt.(c.ir.(t)) <- rowcnt.(c.ir.(t)) - 1
    done;
    c.len <- 0;
    col_pivoted.(k) <- true;
    for t = col_start.(k) to col_start.(k + 1) - 1 do
      if col_val.(t) <> 0. then decr orig_nnz
    done;
    rejected := k :: !rejected;
    decr remaining
  in
  (* A column with no surviving entries (zero-nnz or explicit zeros only)
     is structurally singular: rejected in repair mode, otherwise flagged
     here and raised inside the handler below -- raising [Singular] from
     this loop would escape the [try] that turns it into [None], crashing
     the caller instead. *)
  let empty_col = ref false in
  for k = 0 to ncols - 1 do
    if col.(k).len > 0 then link k else if repair then reject k else empty_col := true
  done;
  (* Output accumulators (steps are sequential, so append-only). *)
  let prow = Array.make m (-1) and upiv = Array.make m 1. in
  let l_off = Array.make (m + 1) 0 and u_off = Array.make (m + 1) 0 in
  let ldyn = ws.w_ldyn and udyn = ws.w_udyn in
  ldyn.len <- 0;
  udyn.len <- 0;
  (* The triangular solves visit only the steps listed here. A step left
     out of [lsteps] has no multipliers, so its L and L^T steps do nothing.
     A step left out of [usteps] has no U entries and pivot 1, so its U
     step sets [x] to [x /. 1.] and its U^T step [y] to [y /. 1.]: IEEE
     division by 1 returns its operand exactly, signed zeros and
     subnormals included. Completed rows are such steps. *)
  let lsteps = ws.w_lsteps and usteps = ws.w_usteps in
  lsteps.n <- 0;
  usteps.n <- 0;
  let row_of_col = Array.make ncols (-1) in
  let nsteps = ref 0 in
  (* Sparse accumulator for column updates. *)
  let spa_val = ws.w_spa_val in
  let spa_stamp = ws.w_spa_stamp in
  let spa_rows = ws.w_spa_rows in
  spa_rows.n <- 0;
  (* Dedup marker for columns met while walking a pivot row's list. *)
  let colvisit = ws.w_colvisit in
  let choose_pivot () =
    let best_col = ref (-1) and best_row = ref (-1) in
    let best_cost = ref max_int and best_v = ref 0. in
    let examined = ref 0 in
    while !low <= !high && head.(!low) < 0 do
      incr low
    done;
    (try
       let cur = ref !low in
       while !cur <= !high do
         let cnt = !cur in
         let k = ref head.(cnt) in
         while !k >= 0 do
           incr examined;
           let c = col.(!k) in
           let amax = ref 0. in
           for t = 0 to c.len - 1 do
             let a = abs_float c.fr.(t) in
             if a > !amax then amax := a
           done;
           if !amax <= abs_pivot_tol then begin
             if not repair then raise_notrace Singular;
             (* [k]'s successor link survives the unlink. *)
             unlink !k;
             reject !k
           end
           else begin
             let thresh = tau *. !amax in
             for t = 0 to c.len - 1 do
               let v = abs_float c.fr.(t) in
               if v >= thresh then begin
                 let r = c.ir.(t) in
                 let cost = (rowcnt.(r) - 1) * (cnt - 1) in
                 if cost < !best_cost || (cost = !best_cost && v > !best_v) then begin
                   best_cost := cost;
                   best_col := !k;
                   best_row := r;
                   best_v := v
                 end
               end
             done
           end;
           if !best_col >= 0 && (!best_cost = 0 || !examined >= search_limit) then
             raise Exit;
           k := nxt.(!k)
         done;
         incr cur
       done
     with Exit -> ());
    if !best_col < 0 then None else Some (!best_col, !best_row)
  in
  let eliminate pc pr =
    let k = !nsteps in
    let c = col.(pc) in
    (* Pivot value and L multipliers from the pivot column. *)
    let piv = ref 0. in
    for t = 0 to c.len - 1 do
      if c.ir.(t) = pr then piv := c.fr.(t)
    done;
    let piv = !piv in
    prow.(k) <- pr;
    upiv.(k) <- piv;
    row_of_col.(pc) <- pr;
    col_pivoted.(pc) <- true;
    row_pivoted.(pr) <- true;
    unlink pc;
    let l_start = ldyn.len in
    for t = 0 to c.len - 1 do
      let rr = c.ir.(t) in
      if rr <> pr then begin
        dyn_push ldyn rr (c.fr.(t) /. piv);
        rowcnt.(rr) <- rowcnt.(rr) - 1
      end
    done;
    let l_end = ldyn.len in
    (* Flush the accumulated above-diagonal U entries of this column. *)
    let u = ufix.(pc) in
    for t = 0 to u.len - 1 do
      dyn_push udyn u.ir.(t) u.fr.(t)
    done;
    if l_end > l_start then idyn_push lsteps k;
    if u.len > 0 || piv <> 1. then idyn_push usteps k;
    l_off.(k + 1) <- l_end;
    u_off.(k + 1) <- udyn.len;
    c.len <- 0;
    (* Eliminate row [pr] from every other active column containing it,
       applying the rank-1 update through the sparse accumulator. *)
    let rc = rowcols.(pr) in
    ws.w_visit <- ws.w_visit + 1;
    let vs = ws.w_visit in
    for i = 0 to rc.n - 1 do
      let cc = rc.a.(i) in
      if (not col_pivoted.(cc)) && colvisit.(cc) <> vs then begin
        colvisit.(cc) <- vs;
        let d = col.(cc) in
        (* Find and remove the (pr) entry; absent means a stale listing. *)
        let at = ref (-1) in
        for t = 0 to d.len - 1 do
          if d.ir.(t) = pr then at := t
        done;
        if !at >= 0 then begin
          let uval = d.fr.(!at) in
          d.ir.(!at) <- d.ir.(d.len - 1);
          d.fr.(!at) <- d.fr.(d.len - 1);
          d.len <- d.len - 1;
          dyn_push ufix.(cc) pr uval;
          if l_end > l_start then begin
            (* Scatter, subtract uval * multipliers, gather. *)
            ws.w_stamp <- ws.w_stamp + 1;
            let s = ws.w_stamp in
            spa_rows.n <- 0;
            for t = 0 to d.len - 1 do
              let rr = d.ir.(t) in
              spa_val.(rr) <- d.fr.(t);
              spa_stamp.(rr) <- s;
              idyn_push spa_rows rr
            done;
            for t = l_start to l_end - 1 do
              let rr = ldyn.ir.(t) in
              let delta = ldyn.fr.(t) *. uval in
              if spa_stamp.(rr) = s then spa_val.(rr) <- spa_val.(rr) -. delta
              else begin
                spa_stamp.(rr) <- s;
                spa_val.(rr) <- -.delta;
                idyn_push spa_rows rr;
                (* fill entry *)
                rowcnt.(rr) <- rowcnt.(rr) + 1;
                idyn_push rowcols.(rr) cc
              end
            done;
            d.len <- 0;
            for t = 0 to spa_rows.n - 1 do
              let rr = spa_rows.a.(t) in
              let v = spa_val.(rr) in
              if abs_float v > drop_tol then dyn_push d rr v
              else rowcnt.(rr) <- rowcnt.(rr) - 1 (* cancellation *)
            done
          end;
          if d.len > 0 then relink cc
          else if repair then begin
            unlink cc;
            reject cc
          end
          else raise_notrace Singular
        end
      end
    done;
    rc.n <- 0;
    rowcnt.(pr) <- 0;
    nsteps := k + 1
  in
  try
    if !empty_col then raise_notrace Singular;
    while !remaining > 0 do
      match choose_pivot () with
      | Some (pc, pr) ->
        eliminate pc pr;
        decr remaining
      | None ->
        (* In repair mode the search may have rejected every column left. *)
        if !remaining > 0 then raise_notrace Singular
    done;
    (* Rank completion: cover unpivoted rows with implicit unit columns.
       Prior eliminations never touch them (their pivot rows carry zero in a
       unit vector), so each is a trivial (empty-L, empty-U) step. *)
    let completed = ref [] in
    if complete then
      for r = m - 1 downto 0 do
        if not row_pivoted.(r) then begin
          let k = !nsteps in
          prow.(k) <- r;
          upiv.(k) <- 1.;
          l_off.(k + 1) <- ldyn.len;
          u_off.(k + 1) <- udyn.len;
          row_pivoted.(r) <- true;
          completed := r :: !completed;
          incr orig_nnz;
          nsteps := k + 1
        end
      done;
    if !nsteps <> m then begin
      Obs.incr m_singular;
      None
    end
    else begin
      let lu =
        {
          m;
          prow;
          upiv;
          l_off;
          l_rows = Array.sub ldyn.ir 0 ldyn.len;
          l_vals = Array.sub ldyn.fr 0 ldyn.len;
          u_off;
          u_rows = Array.sub udyn.ir 0 udyn.len;
          u_vals = Array.sub udyn.fr 0 udyn.len;
          l_steps = Array.sub lsteps.a 0 lsteps.n;
          u_steps = Array.sub usteps.a 0 usteps.n;
          lu_nnz = ldyn.len + udyn.len + m;
          fill = ldyn.len + udyn.len + m - !orig_nnz;
          e_r = [||];
          e_piv = [||];
          e_idx = [||];
          e_val = [||];
          nupd = 0;
          e_nnz = 0;
        }
      in
      Obs.incr m_factorisations;
      if Obs.enabled () then begin
        Obs.observe m_fill (float_of_int lu.fill);
        Obs.observe m_nnz (float_of_int lu.lu_nnz)
      end;
      Some { lu; row_of_col; completed_rows = !completed; rejected = List.sort compare !rejected }
    end
  with Singular ->
    Obs.incr m_singular;
    None

(* ------------------------------------------------------------------ *)
(* Triangular solves                                                   *)
(* ------------------------------------------------------------------ *)

let ftran t w =
  (* L: apply elimination etas in step order. *)
  let ls = t.l_steps in
  for p = 0 to Array.length ls - 1 do
    let k = Array.unsafe_get ls p in
    let wpr = Array.unsafe_get w (Array.unsafe_get t.prow k) in
    if wpr <> 0. then
      for i = t.l_off.(k) to t.l_off.(k + 1) - 1 do
        let rr = Array.unsafe_get t.l_rows i in
        Array.unsafe_set w rr (Array.unsafe_get w rr -. (Array.unsafe_get t.l_vals i *. wpr))
      done
  done;
  (* U: back substitution over the pivot-step order. *)
  let us = t.u_steps in
  for p = Array.length us - 1 downto 0 do
    let k = Array.unsafe_get us p in
    let r = Array.unsafe_get t.prow k in
    let wr = Array.unsafe_get w r in
    if wr <> 0. then begin
      let xk = wr /. Array.unsafe_get t.upiv k in
      Array.unsafe_set w r xk;
      for i = t.u_off.(k) to t.u_off.(k + 1) - 1 do
        let rr = Array.unsafe_get t.u_rows i in
        Array.unsafe_set w rr (Array.unsafe_get w rr -. (Array.unsafe_get t.u_vals i *. xk))
      done
    end
  done;
  (* Product-form update etas, oldest to newest. *)
  for e = 0 to t.nupd - 1 do
    let er = Array.unsafe_get t.e_r e in
    let wr = Array.unsafe_get w er in
    if wr <> 0. then begin
      let wr' = wr /. Array.unsafe_get t.e_piv e in
      Array.unsafe_set w er wr';
      let idx = Array.unsafe_get t.e_idx e and vals = Array.unsafe_get t.e_val e in
      for i = 0 to Array.length idx - 1 do
        let rr = Array.unsafe_get idx i in
        Array.unsafe_set w rr (Array.unsafe_get w rr -. (Array.unsafe_get vals i *. wr'))
      done
    end
  done

let btran t y =
  (* Update etas transposed, newest to oldest. *)
  for e = t.nupd - 1 downto 0 do
    let er = Array.unsafe_get t.e_r e in
    let idx = Array.unsafe_get t.e_idx e and vals = Array.unsafe_get t.e_val e in
    let s = ref (Array.unsafe_get y er) in
    for i = 0 to Array.length idx - 1 do
      s := !s -. (Array.unsafe_get vals i *. Array.unsafe_get y (Array.unsafe_get idx i))
    done;
    Array.unsafe_set y er (!s /. Array.unsafe_get t.e_piv e)
  done;
  (* U^T: forward substitution in step order. *)
  let us = t.u_steps in
  for p = 0 to Array.length us - 1 do
    let k = Array.unsafe_get us p in
    let r = Array.unsafe_get t.prow k in
    let s = ref (Array.unsafe_get y r) in
    for i = t.u_off.(k) to t.u_off.(k + 1) - 1 do
      s := !s -. (Array.unsafe_get t.u_vals i *. Array.unsafe_get y (Array.unsafe_get t.u_rows i))
    done;
    Array.unsafe_set y r (!s /. Array.unsafe_get t.upiv k)
  done;
  (* L^T: reverse step order. *)
  let ls = t.l_steps in
  for p = Array.length ls - 1 downto 0 do
    let k = Array.unsafe_get ls p in
    let r = Array.unsafe_get t.prow k in
    let s = ref (Array.unsafe_get y r) in
    for i = t.l_off.(k) to t.l_off.(k + 1) - 1 do
      s := !s -. (Array.unsafe_get t.l_vals i *. Array.unsafe_get y (Array.unsafe_get t.l_rows i))
    done;
    Array.unsafe_set y r !s
  done

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)
(* ------------------------------------------------------------------ *)

(* [update]'s scratch, one pair per domain, grown to the largest [m] seen.
   An update fills it and copies the eta out before it returns, so nothing
   live is kept in it between calls, and solves on different domains never
   share it. *)
let eta_scratch : (int array * float array) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref ([||], [||]))

let update t ~r ~w =
  (* One pass over [w] collects the eta's entries, rows ascending, into the
     scratch; exact-size copies go into the eta file. *)
  let cell = Domain.DLS.get eta_scratch in
  if Array.length (fst !cell) < t.m then cell := (Array.make t.m 0, Array.make t.m 0.);
  let sidx, sval = !cell in
  let nz = ref 0 in
  for i = 0 to t.m - 1 do
    let v = Array.unsafe_get w i in
    if i <> r && abs_float v > drop_tol then begin
      Array.unsafe_set sidx !nz i;
      Array.unsafe_set sval !nz v;
      incr nz
    end
  done;
  let idx = Array.sub sidx 0 !nz and vals = Array.sub sval 0 !nz in
  if t.nupd = Array.length t.e_r then begin
    let cap = max 16 (2 * t.nupd) in
    let grow_i a = Array.init cap (fun i -> if i < t.nupd then a.(i) else 0) in
    t.e_r <- grow_i t.e_r;
    t.e_piv <- Array.init cap (fun i -> if i < t.nupd then t.e_piv.(i) else 1.);
    t.e_idx <- Array.init cap (fun i -> if i < t.nupd then t.e_idx.(i) else [||]);
    t.e_val <- Array.init cap (fun i -> if i < t.nupd then t.e_val.(i) else [||])
  end;
  t.e_r.(t.nupd) <- r;
  t.e_piv.(t.nupd) <- w.(r);
  t.e_idx.(t.nupd) <- idx;
  t.e_val.(t.nupd) <- vals;
  t.nupd <- t.nupd + 1;
  t.e_nnz <- t.e_nnz + !nz + 1;
  Obs.incr m_etas

let updates t = t.nupd
let eta_nnz t = t.e_nnz
let nnz t = t.lu_nnz
let fill_in t = t.fill
