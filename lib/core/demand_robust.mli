(** Demand uncertainty through the bounded M-sum machinery — the paper's §9
    closing suggestion ("a common framework for handling both faults and
    demand uncertainty"), implemented here as a budgeted-uncertainty
    (Bertsimas-Sim style) TE for networks without rate control.

    Each flow has a nominal demand ([input.demands]) and a [peak]; the
    network must stay within the target utilisation as long as {e at most
    [gamma] flows simultaneously} exceed nominal (each by up to its peak).
    For a link [e] with peak-provisioned tunnel loads [a_{f,e}], the worst
    load is
    [sum_f (d_f/dhat_f) a_{f,e} + (sum of the gamma largest deviations
    (1 - d_f/dhat_f) a_{f,e})] — a bounded M-sum, encoded exactly like the
    FFC fault constraints (sorting network or duality). *)

type result = {
  alloc : Te_types.allocation;
      (** peak-rate tunnel reservations: splitting weights are
          [a_{f,t} / sum_t a_{f,t}]; [bf] holds the peaks *)
  mlu : float;  (** guaranteed max utilisation under any [gamma]-deviation *)
  stats : Ffc.stats;
}

val solve :
  ?config:Ffc.config ->
  peaks:float array ->
  gamma:int ->
  Te_types.input ->
  (result, string) Stdlib.result
(** Minimise the guaranteed MLU. [peaks.(f) >= input.demands.(f)] is the
    flow's worst-case demand. [config] supplies the M-sum encoding; its
    protection level is ignored (combine with FFC by composing
    constraints in a custom model if needed). Raises [Invalid_argument] if
    a peak is below its nominal demand. *)

val worst_case_utilisation :
  Te_types.input -> peaks:float array -> gamma:int -> Te_types.allocation -> float
(** Exhaustive check (exponential in [gamma]): the true worst-case link
    utilisation over every set of at most [gamma] flows at peak, with the
    allocation's splitting weights. Tests compare this against
    {!result.mlu}. *)
