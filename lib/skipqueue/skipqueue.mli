(** The SkipQueue — the paper's contribution (Lotan & Shavit, §3, §6).

    A concurrent priority queue built from Pugh's lock-based concurrent
    skiplist: nodes carry one lock per level plus a whole-node lock;
    insertions link bottom-up one level at a time (Fig. 10); [delete_min]
    races down the bottom-level list claiming the first unmarked node with
    an atomic SWAP on its [deleted] flag, then removes it top-down with the
    ordinary skiplist delete, redirecting the victim's pointers {e
    backwards} so concurrent traversals survive (Fig. 11).

    Two modes ([§5.4]):
    - [Strict] — the default.  A completely inserted node is stamped with
      the shared clock; a deleting processor notes the time its search
      started and ignores younger nodes.  This yields the serialization of
      Definition 1: every Delete-min returns the minimum of the completely
      earlier inserts minus earlier deletes.
    - [Relaxed] — no timestamps; a Delete-min may also return an element
      inserted concurrently with it (possibly smaller than the strict
      answer, never larger).

    The functor is runtime-agnostic: instantiate with
    [Repro_sim.Sim_runtime] for simulated executions or
    [Repro_runtime.Native_runtime] for real domains.  Everything but the
    constructor, the insert, the keyed operations and the invariant check
    is {!Locked_skiplist.QUEUE}, shared with {!Skipqueue_co}; in this
    layout a claim takes a whole node, so [hunt_steps] counts SWAPs and
    [swap_losses] the SWAPs lost. *)

module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) : sig
  include Locked_skiplist.QUEUE with type key = K.t

  module Reclaim : module type of Reclamation.Make (R)

  val create :
    ?mode:mode ->
    ?p:float ->
    ?max_level:int ->
    ?seed:int64 ->
    ?reclamation:Reclaim.t ->
    unit ->
    'v t
  (** [p] (default 0.5) and [max_level] (default 20) parameterize node
      heights; the paper picks [max_level = log2 N] for an expected bound
      [N] on the queue size.  [seed] drives the per-processor level
      streams.  When [reclamation] is supplied, operations register
      themselves with it and physically deleted nodes are retired to it
      instead of being dropped on the floor. *)

  val insert : 'v t -> K.t -> 'v -> [ `Inserted | `Updated ]
  (** Fig. 10.  If the key is already present its value is overwritten
      in place ([`Updated]).  As in the paper's code, an update racing
      with a Delete-min that has already claimed the node is lost (the
      claimant returns the previous value); with the benchmarks' random
      priorities such collisions are vanishingly rare. *)

  val delete : 'v t -> K.t -> 'v option
  (** Regular skiplist delete of a specific key (the SkipList operation the
      queue is built from).  Competes fairly with [delete_min]: both must
      win the SWAP on the node's [deleted] flag, so no element is removed
      twice. *)

  val find : 'v t -> K.t -> 'v option
  (** Lock-free read-only search; returns the value of an unmarked node
      with this key, if any. *)

  val check_invariants : 'v t -> (unit, string) result
  (** Quiescent structural check: strictly ascending keys; every level-i
      list a sublist of the level below; no marked node still linked; no
      poisoned (reclaimed) node reachable. *)
end
