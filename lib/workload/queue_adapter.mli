(** Uniform first-class view of the competing priority queues (plus
    variants), as used by the benchmark harness.

    Keys and values are [int] — the benchmarks draw integer priorities and
    use values as element identifiers, exactly like the paper's synthetic
    benchmark.

    Implementations come in two layers: constructors and combinators (the
    {!Native}/{!Sim} modules, both instances of one functor over the
    runtime) for experiments that tune structure parameters, and a
    name-keyed registry ({!all}/{!find}) for callers — the CLI drivers,
    the bench suite — that select implementations by string.

    {2 Name grammar}

    {!find} parses [\[bounded:\]\[Relaxed \]<base>\[-elim\]], or
    [\[bounded:\]klsm:<k>], ignoring case and spaces, and builds the
    result through the combinators:
    - [<base>] is a locked-skiplist base — [SkipQueue], [SkipQueue-co]
      (multiset) or [SkipQueue-co-dedup] — or one of the other
      backends ([SkipQueue-lf], [Heap], [FunnelList], [MultiQueue], and
      on the simulator [SkipQueue + delete funnel],
      [SkipQueue + reclamation], [BinQueue(65536)]);
    - [Relaxed ] ({!Native.relaxed}) drops the timestamps (§5.4): the
      name gains the prefix and the spec becomes [Relaxed];
    - [-elim] ({!Native.elim}) puts the elimination–combining front end
      in front: the name gains the suffix, and the spec and [dedups]
      carry over;
    - [bounded:] ({!Native.bounded}) wraps anything in the blocking
      façade: the name gains the prefix, and the spec and [dedups] carry
      over.
    A strict locked base is [Linearizable]; the other bases declare their
    own spec.  [Relaxed ] and [-elim] over a base outside the locked
    family raise [Invalid_argument] saying so. *)

type instance = {
  insert : int -> int -> unit;
      (** non-blocking insert — on unbounded backends it always succeeds;
          the {!Sim.bounded} façade maps it to [insert_wait] (a bounded
          queue has no silent-drop insert) *)
  insert_wait : int -> int -> unit;
      (** blocking insert: parks under backpressure on the bounded façade;
          identical to [insert] on unbounded backends *)
  try_delete_min : unit -> (int * int) option;
      (** non-blocking delete-min: [None] when (observed) empty *)
  delete_min_wait : unit -> int * int;
      (** blocking delete-min: parks until an element is available.  The
          bounded façade parks on a condition variable; unbounded backends
          fall back to a yield-poll loop (no condition to park on — an
          unbounded structure cannot distinguish "empty now" from "empty
          forever"). *)
  insert_batch : (int * int) array -> unit;
      (** bulk insert of [(key, value)] pairs.  Element-for-element
          equivalent to looping {!insert} — the contract every backend
          honors and the agreement tests pin — but structures with a
          native bulk path do better: the k-LSM sorts the batch and
          publishes it as a single block.  Counts one [ops] per
          element. *)
  delete_min_batch : int -> (int * int) list;
      (** [delete_min_batch n] claims up to [n] elements, returned in
          claim order; shorter when the structure runs (observably) empty
          — equivalent to looping {!try_delete_min} until [None].  The
          SkipQueue family serves the whole batch from one bottom-level
          hunt ([hunt_batch]); the k-LSM claims through one per-processor
          state acquisition.  Counts one [ops] per element returned. *)
  stats : unit -> (string * float) list;
      (** counters for the ablation reports, as structured name/value
          pairs (render with [Printf.sprintf "%s=%.0f"]; no prose parsing
          downstream).  Every instance built through this module reports a
          common core, measured by the adapter itself:
          - ["ops"] — operations invoked through this instance (all four
            entry points);
          - ["lock_acquisitions"] — runtime lock grants since the instance
            was created (differenced {!Repro_runtime.Runtime_intf.S.lock_stats};
            process-wide, so attribute it only when one instance runs at a
            time — true in the bench/check harnesses);
          - ["lock_try_failures"] — failed [try_acquire] attempts, same
            caveats.
          The bounded façade prepends its front-end counters ["parks"],
          ["wakes"] and ["backpressure_stalls"].  Implementation-specific
          counters follow the core. *)
}

(** The correctness contract an implementation claims — which checker
    family {!Repro_check.Harness} (and any other history validator) holds
    its executions to. *)
type spec =
  | Linearizable
      (** Every Delete-min returns the minimum of the definitely-present
          elements: the timestamped SkipQueue (Definition 1), the
          FunnelList and the bin queue. *)
  | Quiescent
      (** Quiescently consistent only: operations separated by a quiescent
          point take effect in order, concurrent ones may reorder freely.
          The Hunt heap — its delete-min holds the detached replacement
          element outside any slot, invisible to concurrent operations, so
          strict (Definition 1) histories are not guaranteed; the schedule
          fuzzer finds counterexamples. *)
  | Relaxed
      (** The paper's §5.4 contract: Delete-min returns [min (I - D)] or a
          smaller element whose insert overlaps it (the Relaxed
          SkipQueue). *)
  | Rank_bounded
      (** No per-operation ordering promise, only a statistical rank-error
          envelope (the MultiQueue; the k-LSM, whose envelope the checkers
          additionally key to the [k] embedded in its registry name). *)

type impl = {
  name : string;
  dedups : bool;
      (** [true] when [insert] of an already-present key updates in place
          (the SkipQueue family) rather than keeping both copies (heap,
          funnel list, bin queue, MultiQueue).  The benchmark's rank-error
          oracle mirrors this so duplicate random priorities don't read as
          phantom reordering. *)
  spec : spec;
  create : unit -> instance;
      (** must be called from inside the target runtime's execution context
          (e.g. within [Machine.run] for the simulator) *)
}

(** The constructors, written once for both runtimes and shown here over
    real OCaml domains.  {!Sim} has the same ones over the simulator. *)
module Native : sig
  val instance :
    insert:(int -> int -> unit) ->
    try_delete_min:(unit -> (int * int) option) ->
    stats:(unit -> (string * float) list) ->
    instance
  (** Wraps a structure's two entry points in the {!instance} record:
      the core counters, the polling [delete_min_wait], and the
      element-at-a-time bulk entry points.  [stats] supplies the
      structure's own counters, reported after the core ones. *)

  (** {3 Locked-skiplist compositions} *)

  type locked
  (** A locked-skiplist queue before it is built: a base and its mode. *)

  val skipqueue_base : locked
  (** The paper's SkipQueue ({!Repro_skipqueue.Skipqueue}): strict,
      updates a present key in place ([dedups]).  Stats: ["hunt_steps"],
      ["swap_losses"], ["stale_skips"], ["hunt_passes"]. *)

  val co_base : locked
  (** The coalescing SkipQueue ({!Repro_skipqueue.Skipqueue_co},
      DESIGN.md §S21): nodes hold a bounded multiset of same-key elements
      and all per-node locking lives in one bit-packed word; multiset
      semantics (no [dedups]).  Stats: the SkipQueue's plus
      ["coalesced_inserts"], ["node_splits"]. *)

  val co_dedup_base : locked
  (** The coalescing layout under the update-in-place contract: every
      node count stays 1, and only the packed-lock-word mechanics differ
      from {!skipqueue_base}. *)

  val relaxed : locked -> locked
  (** The §5.4 flavor: no timestamps, so a delete-min may claim an
      element still being inserted.  Name ["Relaxed " ^ n], spec
      [Relaxed]. *)

  val plain : locked -> impl
  (** The queue itself.  Its [delete_min_batch] is the structure's own
      bottom-level batch hunt. *)

  val elim : locked -> impl
  (** The queue behind the {!Repro_skipqueue.Elimination} front end:
      insert/delete-min pairs rendezvous in an adaptive array when the
      inserted key is strictly below the observed minimum, and timed-out
      deleters combine their bottom-level hunts into one shared batch.
      The front end preserves the backing queue's contract (DESIGN.md
      §S15), so the spec and [dedups] carry over; name [n ^ "-elim"].
      Stats: ["eliminated"], ["fresh_refusals"], ["served"],
      ["handoff_empties"], ["batches"], ["timeouts"], ["collisions"],
      ["width"], ["window"], then the base's. *)

  val skipqueue : ?p:float -> ?max_level:int -> unit -> impl
  (** [plain skipqueue_base] with the skiplist parameters set: [p]
      (default 0.5) and [max_level] (default 20) shape node heights. *)

  val elim_skipqueue_co : unit -> impl
  (** [elim co_base]. *)

  (** {3 Other backends} *)

  val skipqueue_lf : unit -> impl
  (** Lock-free SkipQueue ({!Repro_skipqueue.Skipqueue_lf}, DESIGN.md S19):
      CAS-linked insert, CAS-marked logical deletion (the claim CAS is the
      linearization point), batched physical unlinking through epoch
      reclamation + the node pool.  [Linearizable] without the paper's
      timestamps; multiset semantics ([dedups = false]).  Extra stats:
      ["cas_failures"], ["marked_hops"], ["restructures"],
      ["restructure_skips"], ["unlinked"], ["pool_returned"],
      ["pool_recycled"], ["reclaim_pending"]. *)

  val funneled_skipqueue : unit -> impl
  (** Ablation A1: a SkipQueue whose Delete-mins are regulated by a
      combining funnel instead of racing SWAPs down the bottom level — the
      design §5 reports trying and rejecting above 64 processors. *)

  val hunt_heap : ?capacity:int -> unit -> impl
  (** Hunt et al.'s heap; [capacity] defaults to 65536. *)

  val funnel_list : unit -> impl

  val bin_queue : range:int -> unit -> impl
  (** The bounded-priority bin queue of [39] — only valid on workloads
      whose [key_range] does not exceed [range]. *)

  val multiqueue : ?shards:int -> ?choice:int -> procs:int -> unit -> impl
  (** The relaxed MultiQueue ({!Repro_multiqueue.Multiqueue}): c-way choice
      ([choice], default 2) over [shards] (default [2 * procs])
      try-locked sequential heaps.  The real heap walk costs real time
      here, so no simulated walk charge is added. *)

  val klsm : k:int -> procs:int -> unit -> impl
  (** The k-LSM ({!Repro_klsm.Klsm}): per-processor insertion buffers
      merged log-structurally into a CAS-published block list, rank error
      bounded by [k] (split between the foreign-buffer blind spot and the
      relaxed choice among block heads — see the klsm library docs).
      Registered as ["klsm:<k>"], [Rank_bounded], multiset semantics.
      Native [insert_batch] (one sorted block) and [delete_min_batch].
      The binary searches and merge walks cost real time here, so no
      simulated search charge is added.  Extra stats: ["flushes"],
      ["merges"], ["spy_sweeps"], ["cas_failures"], ["batch_inserts"],
      ["batch_deletes"], ["blocks"]. *)

  val bounded : ?capacity:int -> impl -> impl
  (** [bounded ~capacity impl] wraps [impl] in the two-lock
      bounded/blocking façade ({!Repro_bounded.Bounded_queue}): at most
      [capacity] (default 1024) elements admitted, [insert_wait] parks
      under backpressure, [delete_min_wait] parks on empty.  The wrapped
      implementation keeps its [spec] and [dedups] contract; the name
      becomes ["bounded:" ^ impl.name].  The bulk entry points thread the
      façade element-wise (each element crosses the capacity gate
      individually). *)
end

(** The same constructors over the simulator, where host-side work in
    the MultiQueue and the k-LSM is charged in simulated cycles, plus one
    simulator-only ablation. *)
module Sim : sig
  include module type of Native

  val multiqueue :
    ?shards:int -> ?choice:int -> ?heap_cycles_per_level:int -> procs:int -> unit -> impl
  (** As {!Native.multiqueue}, plus [heap_cycles_per_level]: the simulated
      charge per heap level walked. *)

  val klsm : ?search_cycles:int -> k:int -> procs:int -> unit -> impl
  (** As {!Native.klsm}, plus [search_cycles]: the simulated charge for
      its host-side searches. *)

  val skipqueue_with_reclamation : unit -> impl
  (** Ablation A4: the §3 reclamation protocol live — operations register
      entry/exit times, deleted nodes are retired to per-processor garbage
      lists, and a dedicated collector processor sweeps every 20000
      cycles for 500 passes, plus one final sweep after quiescence. *)
end

(** {2 Name-keyed registry}

    Default-configured instances of every implementation, keyed by name —
    how [bin/experiments.ml], [bin/profile.ml] and [bench/main.ml] select
    implementations by string instead of hard-coded match arms. *)

type backend = Sim | Native

val all : backend -> impl list
(** The registry: the default-configured implementations listed on that
    backend, each built through {!find} — every base, a default
    ["klsm:256"], the relaxed and [-elim] flavors of [SkipQueue], the
    relaxed and [-elim] flavors of [SkipQueue-co], and ["bounded:<name>"]
    façades (capacity 1024) over the skipqueue, relaxed skipqueue,
    lock-free skipqueue, coalescing skipqueue, heap and multiqueue.
    {!find} builds the grammar's other compositions on demand. *)

val names : backend -> string list

val find : backend -> string -> impl
(** Builds a name of the grammar above, case- and space-insensitively
    ("skipqueue", "Relaxed SkipQueue" and "relaxedskipqueue" all
    resolve).  ["klsm:<k>"] builds a k-LSM for {e any} rank bound
    [k >= 1], not only the registry default; a malformed bound
    ("klsm:abc", "klsm:0") raises [Invalid_argument] naming the bad [k].
    A composition the grammar cannot build ("Relaxed Heap",
    "SkipQueue-lf-elim") raises [Invalid_argument] saying why.  Any other
    unknown base raises [Invalid_argument] with the registry names, in
    sorted order. *)

val parse_klsm : string -> (int, string) result
(** Parse a (case/space-insensitive) name of the exact form ["klsm:<k>"].
    [Ok k] for a positive integer bound; [Error] with a parse-specific
    message for a malformed or non-positive bound, or for a name without
    the prefix. *)

val klsm_k_of_name : string -> int option
(** The rank bound embedded anywhere in a backend name ("klsm:64",
    "bounded:klsm:256", a mutant's "Broken klsm:1 ..."): how the
    rank-envelope checker keys its ceilings to [k].  [None] when the name
    carries no ["klsm:<digits>"] substring. *)
