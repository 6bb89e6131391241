open Ffc_net

let priorities (input : Te_types.input) =
  List.sort_uniq compare (List.map (fun (f : Flow.t) -> f.Flow.priority) input.Te_types.flows)

let check_monotone config_of classes =
  let rec go = function
    | p1 :: (p2 :: _ as rest) ->
      let a = (config_of p1).Ffc.protection and b = (config_of p2).Ffc.protection in
      if
        a.Te_types.kc < b.Te_types.kc || a.Te_types.ke < b.Te_types.ke
        || a.Te_types.kv < b.Te_types.kv
      then
        invalid_arg
          "Priority_te.solve: protection must be non-increasing with priority (kh >= kl)";
      go rest
    | _ -> ()
  in
  go classes

let solve_warm_checked ~config_of ?prev ?presolve ?max_iterations ?deadline_ms
    ?(warm_starts = []) (input : Te_types.input) =
  let classes = priorities input in
  check_monotone config_of classes;
  let nlinks = Topology.num_links input.Te_types.topo in
  let reserved = Array.make nlinks 0. in
  let merged = Te_types.zero_allocation input in
  (* The wall-clock budget covers the whole cascade: each class gets what is
     left of it, so a slow high-priority class cannot push the cascade past
     the caller's deadline unnoticed. *)
  let t0 = Ffc_util.Clock.now_ms () in
  let remaining_deadline () =
    Option.map (fun d -> d -. Ffc_util.Clock.since_ms t0) deadline_ms
  in
  let rec go stats = function
    | [] -> Ok (merged, List.rev stats)
    | prio :: rest -> (
      let class_flows =
        List.filter (fun (f : Flow.t) -> f.Flow.priority = prio) input.Te_types.flows
      in
      let class_input = { input with Te_types.flows = class_flows } in
      let warm_start = List.assoc_opt prio warm_starts in
      match
        Ffc.solve_checked ~config:(config_of prio) ?prev ~reserved:(Array.copy reserved)
          ?presolve ?max_iterations ?deadline_ms:(remaining_deadline ()) ?warm_start
          class_input
      with
      | Error f ->
        Error
          ( prio,
            {
              f with
              Te_types.message = Printf.sprintf "priority %d: %s" prio f.Te_types.message;
            } )
      | Ok r ->
        (* Reserve only this class's *actual* traffic-split loads, not its
           planned upper bounds: the spare capacity set aside to protect a
           high class is deliberately usable by lower classes (§5.1/§8.4) —
           priority queueing drops the low class first if a fault consumes
           the headroom. *)
        let loads = Te_types.split_loads class_input r.Ffc.alloc in
        Array.iteri (fun i v -> reserved.(i) <- reserved.(i) +. v) loads;
        List.iter
          (fun (f : Flow.t) ->
            let id = f.Flow.id in
            merged.Te_types.bf.(id) <- r.Ffc.alloc.Te_types.bf.(id);
            Array.blit r.Ffc.alloc.Te_types.af.(id) 0 merged.Te_types.af.(id) 0
              (Array.length merged.Te_types.af.(id)))
          class_flows;
        go ((prio, r.Ffc.stats, r.Ffc.basis) :: stats) rest)
  in
  go [] classes

let solve ~config_of ?prev (input : Te_types.input) =
  match solve_warm_checked ~config_of ?prev input with
  | Ok (alloc, per_class) -> Ok (alloc, List.map (fun (_, st, _) -> st) per_class)
  | Error (_prio, f) -> Error f.Te_types.message
