(** Control-plane faults at rate limiters with {e unordered} updates (§5.5,
    Eqn 17).

    When ingress switches and rate limiters update independently, a tunnel
    may transiently carry any mix of old/new rate and old/new weights. The
    cross term [b'_f * w_{f,t}] (old rate, new weights) is non-linear in the
    decision variables, so this module uses an equivalent linear safe form:
    it provisions each flow for the rate [r_f = max(b_f, b'_f)] with
    reservation variables [ahat_{f,t}] (the tunnel share if the flow ran at
    [r_f]); the installed weights are [ahat / r], so under any rate/weight
    mix tunnel [t] carries at most [max(ahat_{f,t}, a'_{f,t},
    w'_{f,t} * r_f)], which is linear. Capacity and FFC constraints are
    stated over these upper bounds, making the solution robust to arbitrary
    interleaving of switch and limiter updates (at the cost of reserving for
    [max(b, b')] rather than [b]). *)

val solve :
  ?config:Ffc.config ->
  prev:Te_types.allocation ->
  Te_types.input ->
  (Ffc.result, string) result
(** The returned allocation's [af] holds the reservations [ahat] (the upper
    bounds to install as weights); [bf] is the granted new rate. Protection
    levels from [config] apply: [kc] counts faults across switches and
    limiters combined, [ke]/[kv] as usual. A failure reads
    ["rate-limiter FFC: <what>"] (see {!Formulation.solve}). *)
