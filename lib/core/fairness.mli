(** Approximate max-min fair FFC TE (§5.3): SWAN's iterative method. Flow
    rate caps grow geometrically by [alpha]; flows that cannot reach the cap
    in an iteration are frozen at their achieved rate. The result is within
    a factor [alpha] of true max-min fairness, and every iteration carries
    the full set of FFC constraints, so the final allocation retains the
    congestion-free guarantee. *)

val solve :
  ?config:Ffc.config ->
  ?prev:Te_types.allocation ->
  ?reserved:float array ->
  ?alpha:float ->
  Te_types.input ->
  (Te_types.allocation * int, string) result
(** Returns the allocation and the number of iterations used. [alpha]
    defaults to 2; the first cap is [max demand / 64]. *)
