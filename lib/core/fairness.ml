open Ffc_net
open Ffc_lp

let solve ?(config = Ffc.config ()) ?prev ?reserved ?(alpha = 2.) (input : Te_types.input) =
  if alpha <= 1. then invalid_arg "Fairness.solve: alpha must be > 1";
  let max_demand = Array.fold_left max 0. input.Te_types.demands in
  if max_demand <= 0. then Ok (Te_types.zero_allocation input, 0)
  else begin
    let b0 = max_demand /. 64. in
    let n = Array.length input.Te_types.demands in
    let frozen = Array.make n None in
    let eps = 1e-7 *. max_demand in
    (* One SWAN iteration with per-flow bounds [floor_cap, cap]: unfrozen
       flows already proved they can reach the previous cap, so they must
       keep at least that much — this is what bounds the result within a
       factor alpha of true max-min fairness. *)
    let iteration ~floor_cap ~cap =
      let started_ms = Ffc_util.Clock.now_ms () in
      let vars = Ffc.build ~config ?prev ?reserved input in
      let model = vars.Formulation.model in
      let unfrozen_rate = ref Expr.zero in
      List.iter
        (fun (f : Flow.t) ->
          let id = f.Flow.id in
          let bf = Expr.var vars.Formulation.bf.(id) in
          match frozen.(id) with
          | Some v -> Model.eq model bf (Expr.const v)
          | None ->
            Model.ge model bf (Expr.const (min floor_cap input.Te_types.demands.(id)));
            Model.le model bf (Expr.const (min cap input.Te_types.demands.(id)));
            unfrozen_rate := Expr.add !unfrozen_rate bf)
        input.Te_types.flows;
      Model.maximize model !unfrozen_rate;
      match Formulation.solve ~label:"fairness iteration" ~started_ms model with
      | Ok (sol, _) -> Ok (Formulation.alloc_of_solution vars input (Model.value sol))
      | Error f -> Error f.Te_types.message
    in
    let rec loop floor_cap cap iters last =
      let all_frozen =
        List.for_all (fun (f : Flow.t) -> frozen.(f.Flow.id) <> None) input.Te_types.flows
      in
      if all_frozen || cap > max_demand *. alpha then
        match last with
        | Some alloc -> Ok (alloc, iters)
        | None -> Ok (Te_types.zero_allocation input, iters)
      else
        match iteration ~floor_cap ~cap with
        | Error e -> Error e
        | Ok alloc ->
          (* Freeze flows that could not reach the cap: max-min says they
             cannot grow in later iterations either. Flows that met their
             demand are equally done. *)
          List.iter
            (fun (f : Flow.t) ->
              let id = f.Flow.id in
              if frozen.(id) = None then begin
                let achieved = alloc.Te_types.bf.(id) in
                let target = min cap input.Te_types.demands.(id) in
                if achieved < target -. eps then frozen.(id) <- Some achieved
                else if target >= input.Te_types.demands.(id) -. eps then
                  frozen.(id) <- Some input.Te_types.demands.(id)
              end)
            input.Te_types.flows;
          loop cap (cap *. alpha) (iters + 1) (Some alloc)
    in
    loop 0. b0 0 None
  end
