type outcome = Reduced of { problem : Problem.t; kept : int array } | Infeasible of string

let tol = 1e-9

exception Found_infeasible of string

let reduce (p : Problem.t) =
  let n = p.Problem.nstruct and m = p.Problem.nrows in
  let lb = Array.sub p.Problem.lb 0 n and ub = Array.sub p.Problem.ub 0 n in
  let rhs = Array.copy p.Problem.rhs in
  (* Each slack's bounds name its row's sense. *)
  let sense =
    Array.init m (fun i ->
        let s = n + i in
        if p.Problem.ub.(s) = infinity then Problem.Le
        else if p.Problem.lb.(s) = neg_infinity then Problem.Ge
        else Problem.Eq)
  in
  (* Row [i]'s terms are the first [len.(i)] of its segment of the
     transpose, sorted by column; dropping a term shifts the rest down. *)
  let { Problem.row_start; row_cols; row_vals } = Problem.rows p in
  let len = Array.init m (fun i -> row_start.(i + 1) - row_start.(i)) in
  let alive = Array.make m true in
  let newly_fixed = ref true in
  let fixed j = lb.(j) = ub.(j) in
  let check_bounds j =
    if lb.(j) > ub.(j) +. tol then
      raise
        (Found_infeasible
           (Printf.sprintf "variable %d has crossing bounds [%g, %g]" j lb.(j) ub.(j)))
  in
  (* Within-tolerance crossings are snapped to a fixed variable so the
     strict [lb <= ub] check of {!Problem.of_rows} always holds. *)
  let tighten_ub j v =
    if v < ub.(j) then begin
      let was_fixed = fixed j in
      ub.(j) <- v;
      check_bounds j;
      if lb.(j) > ub.(j) then ub.(j) <- lb.(j);
      if (not was_fixed) && fixed j then newly_fixed := true
    end
  in
  let tighten_lb j v =
    if v > lb.(j) then begin
      let was_fixed = fixed j in
      lb.(j) <- v;
      check_bounds j;
      if lb.(j) > ub.(j) then lb.(j) <- ub.(j);
      if (not was_fixed) && fixed j then newly_fixed := true
    end
  in
  (* One pass over row [i]. A row of two or more terms on no fixed variable
     stays as it is. Otherwise the fixed-variable terms move to the
     right-hand side, summed in column order, and a row left with no term
     is checked and dropped, one left with a single term becomes a bound. *)
  let simplify i =
    let s = row_start.(i) and l = len.(i) in
    let k = ref s in
    while !k < s + l && not (fixed row_cols.(!k)) do
      incr k
    done;
    if l < 2 || !k < s + l then begin
      let keep = ref s and moved = ref 0. in
      for k = s to s + l - 1 do
        let j = row_cols.(k) and c = row_vals.(k) in
        if fixed j then moved := !moved +. (c *. lb.(j))
        else begin
          row_cols.(!keep) <- j;
          row_vals.(!keep) <- c;
          incr keep
        end
      done;
      let b = rhs.(i) -. !moved in
      rhs.(i) <- b;
      len.(i) <- !keep - s;
      match len.(i) with
      | 0 ->
        let ok =
          match sense.(i) with
          | Problem.Le -> b >= -.tol
          | Problem.Ge -> b <= tol
          | Problem.Eq -> abs_float b <= tol
        in
        if not ok then
          raise
            (Found_infeasible
               (Printf.sprintf "constant row violated: 0 %s %g"
                  (match sense.(i) with Problem.Le -> "<=" | Problem.Ge -> ">=" | Problem.Eq -> "=")
                  b));
        alive.(i) <- false
      | 1 ->
        let j = row_cols.(s) and c = row_vals.(s) in
        let v = b /. c in
        (match (sense.(i), c > 0.) with
        | Problem.Le, true | Problem.Ge, false -> tighten_ub j v
        | Problem.Le, false | Problem.Ge, true -> tighten_lb j v
        | Problem.Eq, _ ->
          tighten_lb j v;
          tighten_ub j v);
        alive.(i) <- false
      | _ -> ()
    end
  in
  try
    (* Rows in index order, bounds tightened as they go; another round
       while a round fixes a new variable, at most 50. *)
    let rounds = ref 0 in
    while !newly_fixed && !rounds < 50 do
      incr rounds;
      newly_fixed := false;
      for i = 0 to m - 1 do
        if alive.(i) then simplify i
      done
    done;
    (* The surviving rows, packed to the front of the transpose in order. *)
    let kept = List.filter (fun i -> alive.(i)) (List.init m Fun.id) |> Array.of_list in
    let nk = Array.length kept in
    let start = Array.make (nk + 1) 0 in
    Array.iteri
      (fun a i ->
        let s = row_start.(i) and t = start.(a) in
        Array.blit row_cols s row_cols t len.(i);
        Array.blit row_vals s row_vals t len.(i);
        start.(a + 1) <- t + len.(i))
      kept;
    let problem =
      Problem.of_rows ~nstruct:n ~lb ~ub ~obj:(Array.sub p.Problem.obj 0 n) ~nrows:nk
        ~sense:(Array.map (fun i -> sense.(i)) kept)
        ~rhs:(Array.map (fun i -> rhs.(i)) kept)
        ~row_start:start ~term_var:row_cols ~term_coef:row_vals
    in
    Reduced { problem; kept }
  with Found_infeasible msg -> Infeasible msg
