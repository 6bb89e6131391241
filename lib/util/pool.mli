(** Fixed-size domain pool with deterministic, order-preserving fan-out.

    A pool of size [jobs] evaluates at most [min jobs (recommended_jobs ())]
    tasks concurrently, one domain per core: that many minus one persistent
    worker domains plus the calling domain, which participates in every
    {!map} instead of blocking. The contract of {!map} is {e exactly}
    [Array.map]'s: results are returned at their input index, and if any
    task raises, the exception of the {e lowest} failing index is re-raised
    (with its backtrace) after the whole batch settles — so output,
    including failure behaviour, is independent of scheduling. This is what makes the split-stream-seeded campaigns
    ([Fuzz.run] and [Chaos.hunt]) bit-identical at any [-j].

    Nested use is supported by degradation: a [map] issued from inside a
    pool task runs sequentially inline (no deadlock, same results). A pool
    of size 1, or on a single core, never spawns a domain and runs
    everything inline. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [min jobs (recommended_jobs ()) - 1] worker
    domains ([jobs >= 1], else [Invalid_argument]). [jobs = 1] is the
    degenerate sequential pool. *)

val jobs : t -> int
(** The width the pool was created with, even where fewer domains run it.
    Campaigns chunk their work by it, so a time-budgeted report truncates
    at the same chunk boundaries on any host. *)

val recommended_jobs : unit -> int
(** {!Domain.recommended_domain_count}: the most domains a pool runs. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel [Array.map]. Tasks are claimed dynamically
    but results land at their input index; on task exceptions, the lowest
    failing index's exception is re-raised after all tasks settle.
    Raises [Invalid_argument] on a {!shutdown} pool. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent; outstanding batches are
    drained first, and subsequent {!map} calls raise [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, then {!shutdown} (also on exception). *)
