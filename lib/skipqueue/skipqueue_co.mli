(** The coalescing SkipQueue (DESIGN.md §S21): the paper's locked skiplist
    with duplicate-key coalescing nodes and a bit-packed single-word lock.

    A node holds a bounded multiset of same-key elements — an append-only
    value slab plus ticket accounting — and all of its locking state lives
    in one packed word ({!Co_lockword}): low [max_level] bits are the
    per-level pointer locks of Fig. 9, the next bit the full-node
    insert/delete lock of Figs. 10-11, the high bits two monotone tickets
    ([born | claimed]) whose difference is the live count.  Acquisition
    and release are CAS retry loops on that single shared cell, so every
    lock operation for a node charges the same memory line in the
    simulator — while a delete-min's claim is a single lock-free CAS
    advancing the claimed ticket, which also names the claimed element's
    slab position.

    Semantics per the PR 1 [dedups] flag: with [~dedups:true] an insert of
    a present key updates the element in place (the base SkipQueue's
    contract); with the default multiset semantics it is admitted as a
    distinct instance, coalesced into a live equal-key node while the
    node's capacity allows and linked as a fresh node {e after} every
    equal-key node otherwise.  Delete-min decrements the count and
    physically unlinks only at zero, through the original SWAP-marking and
    the epoch-reclamation / node-pool path.  Both modes of the base queue
    are supported and keep their contracts: [Strict] stays Definition-1
    linearizable (joins never touch a node's completion stamp; an element
    joined into an older node shares its key, so no smaller settled
    element is ever skipped), [Relaxed] stays §5.4-relaxed.

    Everything but the constructor, the insert, the invariant check and
    the coalescing counters is {!Locked_skiplist.QUEUE}, shared with
    {!Skipqueue}.  [delete_min] claims one element of the first eligible
    node with a single lock-free ticket CAS (FIFO within a key) and
    unlinks the node only on the claim that exhausts it; a batch may be
    satisfied by several elements of one coalesced node in a single hunt
    pass.  [size] counts elements, not nodes.  In this layout
    [hunt_steps] counts ticket CASes, and [swap_losses] both the dead
    nodes stepped over and the CASes lost to a concurrent commit on the
    same word.  Recycled nodes (value slab included) are re-registered
    through [R.refresh], so pooling never changes simulated cycle
    counts. *)

module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) : sig
  include Locked_skiplist.QUEUE with type key = K.t

  module Reclaim : module type of Reclamation.Make (R)

  val create :
    ?mode:mode ->
    ?p:float ->
    ?max_level:int ->
    ?seed:int64 ->
    ?reclamation:Reclaim.t ->
    ?capacity:int ->
    ?dedups:bool ->
    ?broken_torn_dec:bool ->
    unit ->
    'v t
  (** [p], [max_level], [seed] and [reclamation] as in {!Skipqueue.Make}.
      [capacity] (default 4) bounds a node's multiset; it must not exceed
      {!Co_lockword.count_capacity} for the chosen [max_level].  [dedups]
      (default [false]) selects update-in-place over multiset admission.
      [broken_torn_dec] is {!Broken.co_lockword}'s planted fault: it tears
      delete-min's claim CAS into a read, a few scheduler points, and a
      plain write computed from the stale word, so a concurrent level-lock
      transition on the same word is lost or leaked and a racing claim of
      the same ticket delivers one element twice.  Never set it outside
      the mutant harness. *)

  val insert : 'v t -> K.t -> 'v -> [ `Inserted | `Updated ]
  (** Joins the first live equal-key node when possible ([`Updated] under
      [dedups], [`Inserted] for a multiset admission); links a fresh node
      after every equal-key node otherwise. *)

  val check_invariants : 'v t -> (unit, string) result
  (** Quiescent structural check: non-decreasing bottom keys; every
      reachable node live, unmarked, count within capacity and equal to
      its slab length; no lock bit held; upper-level nodes present in the
      bottom list.  Dedup mode additionally pins every count to 1. *)

  type co_stats = {
    coalesced_inserts : int;
        (** multiset inserts absorbed into an existing node's slab *)
    node_splits : int;
        (** fresh equal-key links forced by a live node at capacity *)
  }

  val co_stats : 'v t -> co_stats
end
