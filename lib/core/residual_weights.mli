(** The §9 related-work comparator (Suchara et al., SIGMETRICS'11): instead
    of one traffic split that must survive every fault case (FFC), each flow
    pre-computes a {e separate} optimal split per residual tunnel set, and
    the ingress switches to the stored split when it observes failures.

    This gives strictly more freedom than FFC — its optimal throughput upper
    bounds FFC's for the same [ke] — but the number of residual sets is
    exponential in the protection level, which is the scalability objection
    the paper raises (and why FFC exists). The implementation enumerates
    global fault cases of up to [ke] fibre failures, so it is only usable on
    small instances (it doubles as another oracle for FFC's overhead gap).

    Switch-failure protection and control-plane faults are out of scope
    here, matching the original system. *)

type result = {
  bf : float array;  (** rate per flow, guaranteed under every case *)
  splits : (int list * float array) list array;
      (** per flow id: [(failed fibre ids, tunnel allocation)] — entry [[]]
          is the no-fault split *)
  lp_rows : int;
}

val solve :
  ke:int ->
  Te_types.input ->
  (result, string) Stdlib.result
(** Maximise total rate such that, for every fault case of up to [ke] fibre
    failures, the case-specific splits fit all residual capacities and carry
    every flow's full rate (flows whose tunnels are all dead in some case
    are forced to 0, as in Eqn 9). *)

val verify : Te_types.input -> result -> ke:int -> (unit, string) Stdlib.result
(** Check every enumerated case's stored split: within capacity, carries
    [bf], uses only surviving tunnels. [Error] names the first failing
    case's first bad flow or, when every flow's split is sound, its
    lowest-id overloaded link ({!Enumerate.first_overloaded}). *)
