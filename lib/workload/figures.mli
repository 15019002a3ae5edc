(** One entry per table/figure of the paper's evaluation (§5), plus the
    ablations listed in DESIGN.md.  Each runner regenerates its figure's
    data on the simulator and renders it in the paper's row/column layout,
    followed by automatically computed shape indicators (who wins, by what
    factor, where the crossover falls) for comparison with the paper's
    claims in EXPERIMENTS.md. *)

type result = {
  id : string;  (** "fig3", "ablation-skiplist-params", ... *)
  title : string;
  body : string;  (** rendered tables *)
  indicators : (string * float) list;
      (** named shape metrics, e.g. ("heap/skipqueue deletion @256", 2.9) *)
  data : (string * (float * float * float) list) list;
      (** machine-readable series: (name, [(x, delete latency, insert
          latency)]) — x is the processor count (or, for fig2, the work
          amount).  Empty for purely textual experiments. *)
}

val render : result -> string

val to_csv : result -> string
(** "series,x,delete_latency,insert_latency" rows of {!result.data}. *)

type options = {
  scale : float;  (** multiplies operation counts; 1.0 = paper scale *)
  max_procs_log2 : int;  (** sweep 2^0 .. 2^max; the paper uses 8 *)
  progress : string -> unit;
      (** called before each simulator run; with [jobs > 1] calls may
          interleave across concurrent points *)
  jobs : int;
      (** domains running independent sweep points concurrently (see
          {!Jobs.map}); results are identical for any value *)
}

val default_options : options
(** scale 1.0, 2^0..2^8, silent, 1 job. *)

val fig2 : options -> result
(** Insert/Delete-min latency vs. local work (100..6000 cycles), 256
    processors, 1000 initial elements. *)

val fig3 : options -> result
(** Small structure: 50 initial, 70000 ops, 50% inserts; Heap vs SkipQueue
    vs FunnelList across the whole concurrency range. *)

val fig4 : options -> result
(** Large structure: 1000 initial, otherwise as fig3. *)

val fig5 : options -> result
(** 70% deletions: 27000 initial, 60000 ops, 30% inserts; Heap vs
    SkipQueue. *)

val fig6 : options -> result
(** SkipQueue vs Relaxed SkipQueue, small structure (50 initial, 7000
    ops). *)

val fig7 : options -> result
(** SkipQueue vs Relaxed, large structure (1000 initial, 7000 ops). *)

val fig8 : options -> result
(** SkipQueue vs Relaxed, 70% deletions (27000 initial, 60000 ops). *)

val multiqueue : options -> result
(** Beyond the paper: the MultiQueue (c-way choice over try-locked shards,
    PAPERS.md "Engineering MultiQueues") against the Relaxed SkipQueue on
    the fig6/fig7/fig8 workloads, reporting both latency and Delete-min
    rank error across the whole concurrency sweep. *)

val ablation_funnel_front : options -> result
(** A1: plain SkipQueue vs SkipQueue with a funnel-regulated Delete-min —
    the design §5 reports rejecting. *)

val ablation_skiplist_params : options -> result
(** A2: sensitivity of the SkipQueue to the level-promotion probability
    [p] and [max_level]. *)

val ablation_timestamp : options -> result
(** A3: cost decomposition of the timestamp mechanism — hunt lengths,
    SWAP losses and stale skips for strict vs relaxed. *)

val ablation_reclamation : options -> result
(** A4: overhead of running the paper's §3 timestamp-based reclamation
    protocol (entry/exit registration, retirement, a dedicated collector
    processor) against the same queue without it. *)

val ablation_bounded_range : options -> result
(** A5: the bounded-range bin queue of Shavit & Zemach [39] against the
    SkipQueue on dense (range 256) and sparse (range 65536) priorities —
    the generality trade-off §1.1 and §2 describe. *)

val ablation_memory_model : options -> result
(** A6: reruns the fig3 workload under reduced memory models (no line
    queueing, no node bandwidth, flat memory) to attribute each observed
    phenomenon to a model ingredient — the validation a simulator-based
    reproduction owes its reader. *)

val ablation_elimination : options -> result
(** A9: the elimination–combining front end
    ({!Repro_skipqueue.Elimination}, after Calciu, Mendes & Herlihy)
    against the plain SkipQueue on the fig7/fig8 workloads — latency
    sweeps for the strict and relaxed flavors, a fully traced run at up
    to 64 processors comparing queued cycles on the hottest (head-of-
    list) cache line, and the front end's rendezvous counters. *)

val ablation_lockfree : options -> result
(** A13: the lock-free SkipQueue ({!Repro_skipqueue.Skipqueue_lf}:
    CAS-marked deletion, batched physical unlink) against the locked
    SkipQueue and its elimination front end on the fig7 and fig5/fig8
    workloads — latency sweeps, the same traced head-of-list probe as
    {!ablation_elimination} for all three, and the lock-free queue's
    marked-hop and CAS-failure counters per operation. *)

val scheduler : options -> result
(** A12: the flagship blocking scenario — an earliest-deadline-first task
    scheduler for a 2,000,000-user id space, built on the bounded/blocking
    façade ({!Repro_bounded.Bounded_queue}).  Bursty front-end producers
    push deadline-keyed jobs through [insert_wait], half as many workers
    drain through [delete_min_wait]; sweeps the worker count over >= 2
    backends and reports mean sojourn, deadline-miss rate, worker parks
    and backpressure stalls.  In {!result.data} the y-columns are mean
    sojourn (cycles) and miss rate (%), keyed by worker count. *)

val klsm_shootout : options -> result
(** A14: the three-way relaxed shoot-out — the paper's Relaxed SkipQueue,
    the MultiQueue and the k-LSM ({!Repro_klsm.Klsm}, k = 256) on the
    fig6/fig7/fig8 workloads plus a duplicate-heavy one (256-value key
    range), reporting latency, the Delete-min rank-error oracle for each
    relaxation, and the k-LSM's flush/merge/spy counters. *)

val duplicate_heavy : options -> result
(** A15: the coalescing SkipQueue ({!Repro_skipqueue.Skipqueue_co},
    multiset nodes under one packed lock word) on duplicate-heavy
    workloads — fig7 sizes with keys from ranges of 64, 256 and 4096
    values, each swept over the processor axis for the locked SkipQueue,
    the coalescing queue alone and behind the elimination front end, and
    the lock-free queue; plus the traced head-of-list probe on the
    256-value range and the coalescing counters (coalesced inserts, node
    splits).  CSV series are suffixed ["/range<r>"]. *)

val all : (string * (options -> result)) list
(** Every runner, keyed by id, in presentation order. *)
