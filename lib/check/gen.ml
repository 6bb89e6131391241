(* Deterministic random-instance generators, shrinkers and literal
   printers for the fuzzing harness.

   Every instance is plain data (arrays of numbers), so a failing case can
   be (a) greedily shrunk by structural edits and (b) printed back out as
   an OCaml literal that a repro hands to its oracle's test. Generators
   draw only from the [Ffc_util.Rng] stream they are handed, so an instance
   is fully determined by its seed. *)

module Rng = Ffc_util.Rng
open Ffc_lp
open Ffc_net

(* ------------------------------------------------------------------ *)
(* Shared pretty-printing of data literals                             *)
(* ------------------------------------------------------------------ *)

(* A float literal that parses back as a float (never a bare integer). *)
let fl v =
  if v = infinity then "infinity"
  else if v = neg_infinity then "neg_infinity"
  else
    let s = Printf.sprintf "%.17g" v in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
    else s ^ "."

(* [s] with every line after the first indented by [n] spaces. *)
let indent n s = String.concat ("\n" ^ String.make n ' ') (String.split_on_char '\n' s)

(* A list or array literal: on one line, or one element per line. *)
let seq ?(lines = false) opn cls = function
  | [] -> opn ^ cls
  | items ->
    let n = String.length opn + 1 in
    let sep = if lines then ";\n" ^ String.make n ' ' else "; " in
    opn ^ " " ^ String.concat sep (List.map (indent n) items) ^ " " ^ cls

let float_array a = seq "[|" "|]" (Array.to_list (Array.map fl a))
let int_array a = seq "[|" "|]" (Array.to_list (Array.map string_of_int a))

(* A record literal whose first label carries the module path, so the rest
   resolve without an [open]; one field per line once any value spans
   lines. *)
let record fields =
  let fields =
    List.mapi
      (fun i (label, v) ->
        let label = if i = 0 then "Ffc_check.Gen." ^ label else label in
        label ^ " = " ^ indent (String.length label + 5) v)
      fields
  in
  let sep = if List.exists (fun f -> String.contains f '\n') fields then ";\n  " else "; " in
  "{ " ^ String.concat sep fields ^ " }"

(* ------------------------------------------------------------------ *)
(* LP instances                                                        *)
(* ------------------------------------------------------------------ *)

type sense = Le | Ge | Eq

type lp_row = { coeffs : float array; sense : sense; rhs : float }

type lp = {
  lb : float array;
  ub : float array;
  obj : float array;
  rows : lp_row list;
}

let lp_nvars t = Array.length t.obj

let lp_model ?row_ids (t : lp) =
  let m = Model.create () in
  let n = lp_nvars t in
  let xs = Array.init n (fun j -> Model.add_var ~lb:t.lb.(j) ~ub:t.ub.(j) m) in
  let expr_of coeffs =
    let e = ref Expr.zero in
    Array.iteri (fun j c -> if c <> 0. then e := Expr.add_term !e c xs.(j)) coeffs;
    !e
  in
  List.iteri
    (fun i r ->
      let add = match r.sense with Le -> Model.le | Ge -> Model.ge | Eq -> Model.eq in
      let id = match row_ids with Some ids -> ids.(i) | None -> i in
      Model.scope m id (fun () -> add m (expr_of r.coeffs) (Expr.const r.rhs)))
    t.rows;
  Model.maximize m (expr_of t.obj);
  (m, xs)

let lp_reshape (t : lp) ~cap =
  let n = List.length t.rows in
  let drop = n / 2 in
  let cut = { coeffs = Array.copy t.obj; sense = Le; rhs = cap } in
  ( { t with rows = List.filteri (fun i _ -> i <> drop) t.rows @ [ cut ] },
    Array.of_list (List.filter (fun i -> i <> drop) (List.init n Fun.id) @ [ n ]) )

let lp_instance rng =
  let n = 1 + Rng.int rng 6 in
  let coeff () = float_of_int (Rng.int rng 9 - 4) in
  let lb = Array.init n (fun _ -> if Rng.bernoulli rng 0.12 then neg_infinity else 0.) in
  let ub =
    Array.init n (fun j ->
        if Float.is_finite lb.(j) && Rng.bernoulli rng 0.08 then lb.(j) (* fixed *)
        else if Rng.bernoulli rng 0.3 then infinity
        else float_of_int (1 + Rng.int rng 10))
  in
  let obj = Array.init n (fun _ -> coeff ()) in
  let mk_row () =
    let coeffs = Array.init n (fun _ -> if Rng.bernoulli rng 0.6 then coeff () else 0.) in
    let sense = match Rng.int rng 6 with 0 -> Ge | 1 -> Eq | _ -> Le in
    { coeffs; sense; rhs = float_of_int (Rng.int rng 16 - 4) }
  in
  let rows = ref (List.init (1 + Rng.int rng 6) (fun _ -> mk_row ())) in
  (* Usually add a box row so unboundedness stays a minority outcome. *)
  if Rng.bernoulli rng 0.8 then
    rows := { coeffs = Array.make n 1.; sense = Le; rhs = 20. +. Rng.float rng 20. } :: !rows;
  let arr = Array.of_list !rows in
  (* Adversarial shapes: degenerate (duplicate rows, zero rhs), rank
     deficiency (scaled row copies), near-singular bases (epsilon-perturbed
     copies), zero columns (a variable stripped from every row). *)
  if Rng.bernoulli rng 0.3 then rows := Rng.pick rng arr :: !rows;
  if Rng.bernoulli rng 0.25 then begin
    let r = Rng.pick rng arr in
    rows := { r with coeffs = Array.map (fun c -> 2. *. c) r.coeffs; rhs = 2. *. r.rhs } :: !rows
  end;
  if Rng.bernoulli rng 0.25 then begin
    let r = Rng.pick rng arr in
    let coeffs = Array.copy r.coeffs in
    let j = Rng.int rng n in
    coeffs.(j) <- coeffs.(j) +. 1e-7;
    rows := { r with coeffs } :: !rows
  end;
  if Rng.bernoulli rng 0.3 then begin
    let i = Rng.int rng (List.length !rows) in
    rows := List.mapi (fun k r -> if k = i then { r with rhs = 0. } else r) !rows
  end;
  if Rng.bernoulli rng 0.2 then begin
    let j = Rng.int rng n in
    rows :=
      List.map
        (fun r ->
          let c = Array.copy r.coeffs in
          c.(j) <- 0.;
          { r with coeffs = c })
        !rows;
    if not (Float.is_finite ub.(j)) then ub.(j) <- float_of_int (1 + Rng.int rng 10)
  end;
  { lb; ub; obj; rows = !rows }

let remove_idx a j = Array.init (Array.length a - 1) (fun i -> if i < j then a.(i) else a.(i + 1))

let shrink_lp t =
  let cands = ref [] in
  let push c = cands := c :: !cands in
  let rows = Array.of_list t.rows in
  let nr = Array.length rows in
  (* Coarse first: drop whole rows, then whole variables, then clean up
     numbers. [minimise] walks the list in order and recurses on the first
     candidate that still fails. *)
  for i = 0 to nr - 1 do
    push { t with rows = List.filteri (fun k _ -> k <> i) t.rows }
  done;
  let n = lp_nvars t in
  if n > 1 then
    for j = 0 to n - 1 do
      push
        {
          lb = remove_idx t.lb j;
          ub = remove_idx t.ub j;
          obj = remove_idx t.obj j;
          rows = List.map (fun r -> { r with coeffs = remove_idx r.coeffs j }) t.rows;
        }
    done;
  let rounded = List.map (fun r -> { r with coeffs = Array.map Float.round r.coeffs }) t.rows in
  if rounded <> t.rows then push { t with rows = rounded };
  let zero_obj = Array.make n 0. in
  if t.obj <> zero_obj then push { t with obj = zero_obj };
  List.rev !cands

let lp_literal (t : lp) =
  let sense = function Le -> "Le" | Ge -> "Ge" | Eq -> "Eq" in
  let row r =
    record
      [
        ("coeffs", float_array r.coeffs);
        ("sense", "Ffc_check.Gen." ^ sense r.sense);
        ("rhs", fl r.rhs);
      ]
  in
  record
    [
      ("lb", float_array t.lb);
      ("ub", float_array t.ub);
      ("obj", float_array t.obj);
      ("rows", seq ~lines:true "[" "]" (List.map row t.rows));
    ]

(* ------------------------------------------------------------------ *)
(* Sparse-LU instances                                                 *)
(* ------------------------------------------------------------------ *)

type lu = {
  lu_m : int;
  cols : (int array * float array) array;
  complete : bool;
  must_factor : bool;  (* built strictly diagonally dominant: [Some] required *)
  must_reject : bool;  (* built exactly singular: [None] required *)
  lu_updates : (int * float array) list;  (* (slot, dense replacement column) *)
}

(* Strictly diagonally dominant sparse columns (diagonal weight 4..6 vs off
   weights < 1): always factorisable, and the dense reference solve is
   well-conditioned so residual tolerances are meaningful. *)
let dd_cols rng m =
  Array.init m (fun k ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace tbl k (4. +. Rng.uniform rng 0. 2.);
      for _ = 1 to Rng.int rng 4 do
        let r = Rng.int rng m in
        if r <> k then
          Hashtbl.replace tbl r
            (Rng.uniform rng (-0.9) 0.9 +. Option.value ~default:0. (Hashtbl.find_opt tbl r))
      done;
      let entries = Hashtbl.fold (fun r v acc -> (r, v) :: acc) tbl [] in
      (Array.of_list (List.map fst entries), Array.of_list (List.map snd entries)))

let lu_instance rng =
  let m = 2 + Rng.int rng 30 in
  let cols = dd_cols rng m in
  let updates () =
    List.init (Rng.int rng 7) (fun _ ->
        let r = Rng.int rng m in
        let a = Array.make m 0. in
        a.(r) <- 3. +. Rng.uniform rng 0. 1.;
        for _ = 1 to Rng.int rng 4 do
          let i = Rng.int rng m in
          if i <> r then a.(i) <- Rng.uniform rng (-0.5) 0.5
        done;
        (r, a))
  in
  match Rng.int rng 7 with
  | 0 | 1 ->
    (* Healthy basis, random update sequence. *)
    { lu_m = m; cols; complete = false; must_factor = true; must_reject = false;
      lu_updates = updates () }
  | 2 ->
    (* Explicit zeros injected: the load filter must drop them without
       changing the result. *)
    let cols =
      Array.map
        (fun (rows, vals) ->
          if Rng.bernoulli rng 0.5 then
            let r = Rng.int rng m in
            (Array.append rows [| r |], Array.append vals [| 0. |])
          else (rows, vals))
        cols
    in
    { lu_m = m; cols; complete = false; must_factor = true; must_reject = false;
      lu_updates = [] }
  | 3 ->
    (* A zero column: either no entries at all, or explicit zeros only. *)
    let j = Rng.int rng m in
    cols.(j) <-
      (if Rng.bool rng then ([||], [||])
       else
         let k = 1 + Rng.int rng 3 in
         (Array.init k (fun i -> (j + i) mod m), Array.make k 0.));
    { lu_m = m; cols; complete = false; must_factor = false; must_reject = true;
      lu_updates = [] }
  | 4 ->
    (* Exactly dependent duplicate column. *)
    let i = Rng.int rng m in
    let j = (i + 1 + Rng.int rng (m - 1)) mod m in
    cols.(j) <- (fst cols.(i), snd cols.(i));
    { lu_m = m; cols; complete = false; must_factor = false; must_reject = true;
      lu_updates = [] }
  | 5 ->
    (* Near-singular: a column epsilon-close to another. Accepting or
       rejecting are both defensible under threshold pivoting; crashing or
       corrupting state is not (no residual contract is asserted). *)
    let i = Rng.int rng m in
    let j = (i + 1 + Rng.int rng (m - 1)) mod m in
    let rows, vals = cols.(i) in
    cols.(j) <- (Array.copy rows, Array.map (fun v -> v +. Rng.uniform rng (-1e-9) 1e-9) vals);
    { lu_m = m; cols; complete = false; must_factor = false; must_reject = false;
      lu_updates = [] }
  | _ ->
    (* Rank completion: fewer columns than rows. *)
    let keep = max 1 (m - 1 - Rng.int rng 3) in
    { lu_m = m; cols = Array.sub cols 0 keep; complete = true; must_factor = true;
      must_reject = false; lu_updates = [] }

let shrink_lu t =
  let cands = ref [] in
  let push c = cands := c :: !cands in
  if t.lu_updates <> [] then begin
    push { t with lu_updates = [] };
    List.iteri
      (fun i _ -> push { t with lu_updates = List.filteri (fun k _ -> k <> i) t.lu_updates })
      t.lu_updates
  end;
  let ncols = Array.length t.cols in
  (* Drop column k together with row k (entries on row k disappear, higher
     rows shift down); updates don't survive a dimension change. *)
  if ncols > 1 then
    for k = 0 to ncols - 1 do
      let cols =
        Array.init (ncols - 1) (fun i ->
            let rows, vals = t.cols.(if i < k then i else i + 1) in
            let keep = ref [] in
            Array.iteri
              (fun u r -> if r <> k then keep := ((if r > k then r - 1 else r), vals.(u)) :: !keep)
              rows;
            let keep = List.rev !keep in
            (Array.of_list (List.map fst keep), Array.of_list (List.map snd keep)))
      in
      push { t with lu_m = t.lu_m - 1; cols; lu_updates = [] }
    done;
  (* Thin a column down to its largest-magnitude entry. *)
  Array.iteri
    (fun k (rows, vals) ->
      if Array.length rows > 1 then begin
        let best = ref 0 in
        Array.iteri (fun i v -> if abs_float v > abs_float vals.(!best) then best := i) vals;
        let cols = Array.copy t.cols in
        cols.(k) <- ([| rows.(!best) |], [| vals.(!best) |]);
        push { t with cols }
      end)
    t.cols;
  (* Snap values to integers. *)
  let snapped =
    Array.map (fun (rows, vals) -> (rows, Array.map Float.round vals)) t.cols
  in
  if snapped <> t.cols then push { t with cols = snapped; lu_updates = [] };
  List.rev !cands

(* [a + c * b] as a sparse column, rows ascending. *)
let axpy_col (ra, va) c (rb, vb) =
  let tbl = Hashtbl.create 8 in
  let put r v = Hashtbl.replace tbl r (v +. Option.value ~default:0. (Hashtbl.find_opt tbl r)) in
  Array.iteri (fun u r -> put r va.(u)) ra;
  Array.iteri (fun u r -> put r (c *. vb.(u))) rb;
  let entries = List.sort compare (Hashtbl.fold (fun r v acc -> (r, v) :: acc) tbl []) in
  (Array.of_list (List.map fst entries), Array.of_list (List.map snd entries))

let lu_repair_cols (t : lu) =
  let n = Array.length t.cols in
  if t.must_factor && n >= 1 then
    Array.append t.cols
      [| axpy_col t.cols.(0) 1. t.cols.(n - 1); axpy_col t.cols.(n / 2) (-2.) t.cols.(0) |]
  else t.cols

let lu_literal (t : lu) =
  let col (rows, vals) = Printf.sprintf "(%s, %s)" (int_array rows) (float_array vals) in
  let update (r, a) = Printf.sprintf "(%d, %s)" r (float_array a) in
  record
    [
      ("lu_m", string_of_int t.lu_m);
      ("cols", seq ~lines:true "[|" "|]" (Array.to_list (Array.map col t.cols)));
      ("complete", string_of_bool t.complete);
      ("must_factor", string_of_bool t.must_factor);
      ("must_reject", string_of_bool t.must_reject);
      ("lu_updates", seq ~lines:true "[" "]" (List.map update t.lu_updates));
    ]

(* ------------------------------------------------------------------ *)
(* TE instances (topology + tunnels + demands + protection)            *)
(* ------------------------------------------------------------------ *)

type te = {
  nswitches : int;
  te_links : (int * int * float) array;  (* directed (src, dst, capacity) *)
  te_flows : (int * int * int * int array array) array;
      (* (src, dst, priority, tunnels as link-id paths) *)
  demands : float array;
  kc : int;
  ke : int;
  kv : int;
}

let te_input (t : te) =
  let topo = Topology.create t.nswitches in
  Array.iter (fun (u, v, c) -> ignore (Topology.add_link topo u v c)) t.te_links;
  let next = ref 0 in
  let flows =
    Array.to_list
      (Array.mapi
         (fun i (src, dst, prio, tuns) ->
           let tl =
             Array.to_list
               (Array.map
                  (fun path ->
                    let id = !next in
                    incr next;
                    Tunnel.create ~id
                      (Array.to_list (Array.map (Topology.link topo) path)))
                  tuns)
           in
           Flow.create ~id:i ~priority:prio ~src ~dst tl)
         t.te_flows)
  in
  { Ffc_core.Te_types.topo; flows; demands = t.demands }

let te_instance rng =
  let n = 3 + Rng.int rng 4 in
  let links = ref [] and nlinks = ref 0 in
  let have = Hashtbl.create 16 in
  let caps = [| 5.; 10.; 20. |] in
  let add u v =
    if u <> v && not (Hashtbl.mem have (u, v)) then begin
      Hashtbl.add have (u, v) ();
      Hashtbl.add have (v, u) ();
      let c = Rng.pick rng caps in
      links := (v, u, c) :: (u, v, c) :: !links;
      nlinks := !nlinks + 2
    end
  in
  (* Random spanning tree keeps the graph connected; extra chords add path
     diversity for multi-tunnel flows. *)
  for v = 1 to n - 1 do
    add (Rng.int rng v) v
  done;
  for _ = 1 to n + Rng.int rng n do
    add (Rng.int rng n) (Rng.int rng n)
  done;
  let te_links = Array.of_list (List.rev !links) in
  let topo = Topology.create n in
  Array.iter (fun (u, v, c) -> ignore (Topology.add_link topo u v c)) te_links;
  let next = ref 0 in
  let flows = ref [] and nflows = ref 0 in
  let want = 1 + Rng.int rng 3 in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 3 * want do
    if !nflows < want then begin
      let src = Rng.int rng n and dst = Rng.int rng n in
      if src <> dst && not (Hashtbl.mem seen (src, dst)) then begin
        Hashtbl.add seen (src, dst) ();
        let tunnels = Paths.tunnels_for topo ~next_id:next src dst ~k:(2 + Rng.int rng 2) in
        if tunnels <> [] then begin
          let paths =
            Array.of_list
              (List.map
                 (fun (tn : Tunnel.t) ->
                   Array.of_list (List.map (fun (l : Topology.link) -> l.Topology.id) tn.Tunnel.links))
                 tunnels)
          in
          let prio = if Rng.bernoulli rng 0.3 then 1 else 0 in
          flows := (src, dst, prio, paths) :: !flows;
          incr nflows
        end
      end
    end
  done;
  let te_flows = Array.of_list (List.rev !flows) in
  let demands = Array.init (Array.length te_flows) (fun _ -> Rng.uniform rng 1. 10.) in
  let rec protection () =
    let kc = Rng.int rng 3 and ke = Rng.int rng 2 and kv = Rng.int rng 2 in
    if kc + ke + kv = 0 then protection () else (kc, ke, kv)
  in
  let kc, ke, kv = protection () in
  { nswitches = n; te_links; te_flows; demands; kc; ke; kv }

let shrink_te t =
  let cands = ref [] in
  let push c = cands := c :: !cands in
  let nf = Array.length t.te_flows in
  if nf > 1 then
    for i = 0 to nf - 1 do
      push
        {
          t with
          te_flows = remove_idx t.te_flows i;
          demands = remove_idx t.demands i;
        }
    done;
  (* Drop one tunnel of a flow (keeping at least one). *)
  Array.iteri
    (fun i (src, dst, prio, tuns) ->
      if Array.length tuns > 1 then
        for j = 0 to Array.length tuns - 1 do
          let te_flows = Array.copy t.te_flows in
          te_flows.(i) <- (src, dst, prio, remove_idx tuns j);
          push { t with te_flows }
        done)
    t.te_flows;
  (* Lower protection levels. *)
  if t.kc > 0 then push { t with kc = t.kc - 1 };
  if t.ke > 0 then push { t with ke = t.ke - 1 };
  if t.kv > 0 then push { t with kv = t.kv - 1 };
  (* Round demands to integers (at least 1). *)
  let rounded = Array.map (fun d -> max 1. (Float.round d)) t.demands in
  if rounded <> t.demands then push { t with demands = rounded };
  List.rev !cands

let te_literal (t : te) =
  let link (u, v, c) = Printf.sprintf "(%d, %d, %s)" u v (fl c) in
  let flow (src, dst, prio, tuns) =
    Printf.sprintf "(%d, %d, %d, %s)" src dst prio
      (seq "[|" "|]" (Array.to_list (Array.map int_array tuns)))
  in
  record
    [
      ("nswitches", string_of_int t.nswitches);
      ("te_links", seq ~lines:true "[|" "|]" (Array.to_list (Array.map link t.te_links)));
      ("te_flows", seq ~lines:true "[|" "|]" (Array.to_list (Array.map flow t.te_flows)));
      ("demands", float_array t.demands);
      ("kc", string_of_int t.kc);
      ("ke", string_of_int t.ke);
      ("kv", string_of_int t.kv);
    ]

(* ------------------------------------------------------------------ *)
(* Simulator instances: a TE instance plus a concrete fault case       *)
(* ------------------------------------------------------------------ *)

type sim = {
  sim_te : te;
  failed_links : int array;
  failed_switches : int array;
  stuck : int array;  (* stuck ingress switches *)
  old_zero : bool;  (* old allocation: zero (fresh install) vs basic TE *)
}

let sim_instance rng =
  let te = te_instance rng in
  let nl = Array.length te.te_links in
  let subset bound k =
    let picked = Hashtbl.create 4 in
    for _ = 1 to k do
      if bound > 0 then Hashtbl.replace picked (Rng.int rng bound) ()
    done;
    Array.of_list (Hashtbl.fold (fun x () acc -> x :: acc) picked [])
  in
  let srcs = Array.map (fun (s, _, _, _) -> s) te.te_flows in
  let stuck =
    if Array.length srcs = 0 then [||]
    else
      Array.of_list
        (List.sort_uniq compare
           (List.init (Rng.int rng 3) (fun _ -> Rng.pick rng srcs)))
  in
  {
    sim_te = te;
    failed_links = subset nl (Rng.int rng 3);
    failed_switches = subset te.nswitches (Rng.int rng 2);
    stuck;
    old_zero = Rng.bool rng;
  }

let shrink_sim s =
  let cands = ref [] in
  let push c = cands := c :: !cands in
  let drop_elems a mk =
    Array.iteri (fun i _ -> push (mk (remove_idx a i))) a
  in
  drop_elems s.failed_links (fun a -> { s with failed_links = a });
  drop_elems s.failed_switches (fun a -> { s with failed_switches = a });
  drop_elems s.stuck (fun a -> { s with stuck = a });
  if not s.old_zero then push { s with old_zero = true };
  List.iter (fun te -> push { s with sim_te = te }) (shrink_te s.sim_te);
  List.rev !cands

let sim_literal (s : sim) =
  record
    [
      ("sim_te", te_literal s.sim_te);
      ("failed_links", int_array s.failed_links);
      ("failed_switches", int_array s.failed_switches);
      ("stuck", int_array s.stuck);
      ("old_zero", string_of_bool s.old_zero);
    ]
