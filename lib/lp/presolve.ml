type row = (int * float) list * Problem.sense * float

type outcome =
  | Reduced of { lb : float array; ub : float array; rows : row list; kept : int array }
  | Infeasible of string

let tol = 1e-9

exception Found_infeasible of string

let reduce ~lb ~ub ~rows =
  let n = Array.length lb in
  if Array.length ub <> n then invalid_arg "Presolve.reduce: bound length mismatch";
  let lb = Array.copy lb and ub = Array.copy ub in
  let check_bounds j =
    if lb.(j) > ub.(j) +. tol then
      raise
        (Found_infeasible
           (Printf.sprintf "variable %d has crossing bounds [%g, %g]" j lb.(j) ub.(j)))
  in
  let fixed j = lb.(j) = ub.(j) in
  (* Within-tolerance crossings are snapped to a fixed variable so the
     downstream strict [lb <= ub] check always holds. *)
  let tighten_ub j v =
    if v < ub.(j) then begin
      ub.(j) <- v;
      check_bounds j;
      if lb.(j) > ub.(j) then ub.(j) <- lb.(j)
    end
  in
  let tighten_lb j v =
    if v > lb.(j) then begin
      lb.(j) <- v;
      check_bounds j;
      if lb.(j) > ub.(j) then lb.(j) <- ub.(j)
    end
  in
  (* One simplification pass over a row; [None] means the row is gone
     (absorbed into bounds or trivially satisfied). *)
  let rebuild (terms, sense, rhs) =
    let kept = ref [] and moved = ref 0. in
    List.iter
      (fun (j, c) ->
        if j < 0 || j >= n then invalid_arg "Presolve.reduce: variable index out of range";
        if c <> 0. then
          if fixed j then moved := !moved +. (c *. lb.(j)) else kept := (j, c) :: !kept)
      terms;
    let rhs = rhs -. !moved in
    match !kept with
    | [] ->
      let ok =
        match sense with
        | Problem.Le -> rhs >= -.tol
        | Problem.Ge -> rhs <= tol
        | Problem.Eq -> abs_float rhs <= tol
      in
      if ok then None
      else
        raise
          (Found_infeasible
             (Printf.sprintf "constant row violated: 0 %s %g"
                (match sense with Problem.Le -> "<=" | Problem.Ge -> ">=" | Problem.Eq -> "=")
                rhs))
    | [ (j, c) ] ->
      let v = rhs /. c in
      (match (sense, c > 0.) with
      | Problem.Le, true | Problem.Ge, false -> tighten_ub j v
      | Problem.Le, false | Problem.Ge, true -> tighten_lb j v
      | Problem.Eq, _ ->
        tighten_lb j v;
        tighten_ub j v);
      None
    | kept -> Some (List.rev kept, sense, rhs)
  in
  (* A row of two or more terms, none of them zero or on a fixed variable,
     comes back as it is: [rebuild] would copy it unchanged. *)
  let untouched (j, c) = j >= 0 && j < n && c <> 0. && not (fixed j) in
  let simplify ((terms, _, _) as row) =
    match terms with
    | _ :: _ :: _ when List.for_all untouched terms -> Some row
    | _ -> rebuild row
  in
  try
    (* Fixpoint: re-simplify as long as new variables get fixed. Rows carry
       their original index so callers can tell *which* rows survived, not
       just how many (a warm-start basis keys each slack by its row). *)
    let rows = ref (List.mapi (fun i r -> (i, r)) rows) in
    let progress = ref true in
    let rounds = ref 0 in
    while !progress && !rounds < 50 do
      incr rounds;
      let fixed_before = Array.init n fixed in
      rows :=
        List.filter_map
          (fun (i, r) -> Option.map (fun r' -> (i, r')) (simplify r))
          !rows;
      progress := false;
      for j = 0 to n - 1 do
        if fixed j && not fixed_before.(j) then progress := true
      done
    done;
    Reduced
      {
        lb;
        ub;
        rows = List.map snd !rows;
        kept = Array.of_list (List.map fst !rows);
      }
  with Found_infeasible msg -> Infeasible msg
