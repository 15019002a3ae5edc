(** Per-processor state, created on first use.

    A fixed table of {!slots} entries indexed by processor id folded into
    the slot count (ids [p] and [p + slots] share an entry).  The first
    {!get} from a slot runs the table's [init] on the slot index and
    installs the result; later calls return that same value.  A host mutex
    guards only the installation, never a runtime operation, so on the
    simulator the table is invisible to the schedule; under native
    domains, racing first calls to one slot still install a single
    value.  [init] must therefore perform no runtime effect that can
    block or yield (allocating shared cells is fine). *)

type 'a t

val slots : int
(** 4096, a power of two. *)

val create : (int -> 'a) -> 'a t
(** [create init]: [init] receives the slot index, in [\[0, slots)]. *)

val get : 'a t -> int -> 'a
(** [get t id] is the value of [id]'s slot, created by [init] on the
    first call. *)

val find : 'a t -> int -> 'a option
(** The slot's value if it was already created; never runs [init]. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Created values in slot order. *)
