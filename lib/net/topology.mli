(** Directed network topology: switches and capacitated links.

    Switches are dense integer identifiers [0 .. num_switches-1]; links are
    dense identifiers as well, so per-switch and per-link state elsewhere in
    the repository can live in flat arrays. Capacities are in Gbps and
    propagation delays in milliseconds (used by the failure-reaction
    simulator).

    A topology holds its switch names, one link array indexed by id and
    each switch's outgoing links; every other view ({!links}, {!fibres})
    is derived from those on demand. *)

type switch = int

type link = private {
  id : int;
  src : switch;
  dst : switch;
  capacity : float; (* Gbps *)
  delay_ms : float; (* one-way propagation delay *)
}

type t

val create : ?names:string array -> int -> t
(** [create n] makes a topology with [n] switches and no links. [names]
    (optional, length [n]) gives human-readable switch names. *)

val add_link : ?delay_ms:float -> t -> switch -> switch -> float -> link
(** [add_link t u v cap] adds a directed link [u -> v]. Default delay 1 ms.
    Raises [Invalid_argument] on self-loops, bad switch ids, non-positive
    capacity, or duplicate [u -> v] links. *)

val add_duplex : ?delay_ms:float -> t -> switch -> switch -> float -> link * link
(** Both directions with the same capacity/delay. *)

val num_switches : t -> int
val num_links : t -> int

val links : t -> link array
(** All links, indexed by [link.id]: a fresh copy of the topology's own
    array. *)

val link : t -> int -> link
(** [link t id] in O(1). [Invalid_argument] unless
    [0 <= id < num_links t]. *)

val find_link : t -> switch -> switch -> link option
(** The [u -> v] link, found among [u]'s outgoing links; [None] when there
    is none or [u] is not a switch of [t]. *)

val out_links : t -> switch -> link list
(** Newest first. *)

val switch_name : t -> switch -> string
val switches : t -> switch list

val fibres : t -> int list list
(** Undirected fibre groups: each group lists the directed link ids that
    share a physical fibre (a link and its reverse, when present) and
    therefore fail together. Groups come in the order of their lower link
    id, each starting with that id. *)

val pp : Format.formatter -> t -> unit
(** Multi-line dump: one link per line. *)
