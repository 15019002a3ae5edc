type instance = {
  insert : int -> int -> unit;
  insert_wait : int -> int -> unit;
  try_delete_min : unit -> (int * int) option;
  delete_min_wait : unit -> int * int;
  insert_batch : (int * int) array -> unit;
  delete_min_batch : int -> (int * int) list;
  stats : unit -> (string * float) list;
}

type spec = Linearizable | Quiescent | Relaxed | Rank_bounded

type impl = {
  name : string;
  dedups : bool;
  spec : spec;
  create : unit -> instance;
}

module Key = Repro_pqueue.Key.Int

let registry_procs = 16 (* default_workload concurrency; constructors with
                           structural parameters take it from here *)

module Over (R : Repro_runtime.Runtime_intf.S) = struct
  module SQ = Repro_skipqueue.Skipqueue.Make (R) (Key)
  module LF = Repro_skipqueue.Skipqueue_lf.Make (R) (Key)
  module CO = Repro_skipqueue.Skipqueue_co.Make (R) (Key)
  module Elim = Repro_skipqueue.Elimination.Make (R) (Key)

  (* The elimination front end over the coalescing queue: [Over] needs
     BACKING's create arity, so the wrapper pins the coalescing knobs to
     their defaults (multiset semantics, default capacity).  An eliminated
     pair never reaches the structure, so it can never also coalesce —
     strict-below-bound admission keeps the exchanged key distinct from
     every settled element (see Elimination.BACKING). *)
  module ElimCo =
    Repro_skipqueue.Elimination.Over (R) (Key)
      (struct
        include CO

        let create ?mode ?p ?max_level ?seed ?reclamation () =
          CO.create ?mode ?p ?max_level ?seed ?reclamation ()
      end)
  module Heap = Repro_heap.Hunt_heap.Make (R) (Key)
  module FL = Repro_funnel.Funnel_list.Make (R) (Key)
  module Funnel = Repro_funnel.Combining_funnel.Make (R)
  module Bins = Repro_funnel.Bin_queue.Make (R)
  module MQ = Repro_multiqueue.Multiqueue.Make (R) (Key)
  module KL = Repro_klsm.Klsm.Make (R)
  module Bounded = Repro_bounded.Bounded_queue.Make (R)

  (* Uniform instance constructor: wires the core counters every instance
     reports ([ops] counted host-side; [lock_acquisitions] and
     [lock_try_failures] differenced from the runtime's own counters, so
     they need no per-backend instrumentation) and derives the blocking
     entry points of an unbounded backend.  An unbounded queue is never
     full, so [insert_wait] is [insert]; [delete_min_wait] polls — real
     parking comes from the {!bounded} façade, which replaces both.

     The bulk entry points default to element-at-a-time loops so every
     backend gains them for free; structures with a genuine batch path
     (the SkipQueue's [hunt_batch], the k-LSM's block publish) override
     them via [?insert_batch]/[?delete_min_batch].  Both count [ops] per
     element, like the loops they replace. *)
  let instance ~insert ?insert_batch ~try_delete_min ?delete_min_batch ~stats
      () =
    let ops = ref 0 in
    let base_acq, base_fail = R.lock_stats () in
    let rec poll_pop () =
      match try_delete_min () with
      | Some kv -> kv
      | None ->
        R.yield ();
        poll_pop ()
    in
    let do_insert_batch =
      match insert_batch with
      | Some f -> f
      | None -> fun kvs -> Array.iter (fun (k, v) -> insert k v) kvs
    in
    let do_delete_batch =
      match delete_min_batch with
      | Some f -> f
      | None ->
        fun want ->
          let rec go acc n =
            if n <= 0 then List.rev acc
            else
              match try_delete_min () with
              | Some kv -> go (kv :: acc) (n - 1)
              | None -> List.rev acc
          in
          go [] want
    in
    {
      insert =
        (fun k v ->
          incr ops;
          insert k v);
      insert_wait =
        (fun k v ->
          incr ops;
          insert k v);
      try_delete_min =
        (fun () ->
          incr ops;
          try_delete_min ());
      delete_min_wait =
        (fun () ->
          incr ops;
          poll_pop ());
      insert_batch =
        (fun kvs ->
          ops := !ops + Array.length kvs;
          do_insert_batch kvs);
      delete_min_batch =
        (fun want ->
          let r = do_delete_batch want in
          ops := !ops + List.length r;
          r);
      stats =
        (fun () ->
          let acq, fail = R.lock_stats () in
          ("ops", float_of_int !ops)
          :: ("lock_acquisitions", float_of_int (acq - base_acq))
          :: ("lock_try_failures", float_of_int (fail - base_fail))
          :: stats ());
    }

  let skipqueue_instance ~mode ?p ?max_level ?seed () =
    let q = SQ.create ~mode ?p ?max_level ?seed () in
    instance
      ~insert:(fun k v -> ignore (SQ.insert q k v))
      ~try_delete_min:(fun () -> SQ.delete_min q)
        (* Native bulk delete (PR 3's batch API): one bottom-level hunt
           claims up to [want] nodes, then one physical-removal pass —
           the marked-prefix walk is shared instead of repeated. *)
      ~delete_min_batch:(fun want ->
        if want <= 0 then []
        else begin
          let batch = SQ.hunt_batch q ~want in
          let kvs = SQ.batch_claims batch in
          SQ.finish_batch q batch;
          kvs
        end)
      ~stats:(fun () ->
        let s = SQ.stats q in
        [
          ("hunt_steps", float_of_int s.SQ.hunt_steps);
          ("swap_losses", float_of_int s.SQ.swap_losses);
          ("stale_skips", float_of_int s.SQ.stale_skips);
          ("hunt_passes", float_of_int s.SQ.hunt_passes);
        ])
      ()

  let skipqueue ?p ?max_level ?seed () =
    {
      name = "SkipQueue";
      dedups = true;
      spec = Linearizable;
      create = (fun () -> skipqueue_instance ~mode:SQ.Strict ?p ?max_level ?seed ());
    }

  (* SkipQueue with the paper's §3 reclamation protocol active and a
     dedicated collector processor (the paper assigns one processor to
     garbage collection in its benchmarks).  [spawn_collector] is supplied
     by the runtime-specific wrapper since spawning differs. *)
  let skipqueue_with_reclamation ~spawn_collector ~collector_passes
      ~collector_period () =
    {
      name = "SkipQueue + reclamation";
      dedups = true;
      spec = Linearizable;
      create =
        (fun () ->
          let recl = SQ.Reclaim.create () in
          let q = SQ.create ~mode:SQ.Strict ~reclamation:recl () in
          spawn_collector (fun wait ->
              for _ = 1 to collector_passes do
                wait collector_period;
                ignore (SQ.Reclaim.collect recl)
              done;
              (* final sweep once everything quiesced *)
              wait (1 lsl 45);
              ignore (SQ.Reclaim.collect recl));
          instance
            ~insert:(fun k v -> ignore (SQ.insert q k v))
            ~try_delete_min:(fun () -> SQ.delete_min q)
            ~stats:(fun () ->
              let s = SQ.Reclaim.stats recl in
              [
                ("retired", float_of_int s.SQ.Reclaim.retired);
                ("reclaimed", float_of_int s.SQ.Reclaim.reclaimed);
                ("pending", float_of_int s.SQ.Reclaim.pending);
              ])
            ());
    }

  (* Lock-free SkipQueue (DESIGN.md S19): CAS-linked insert, CAS-marked
     logical deletion, batched physical unlinking through epoch
     reclamation.  Multiset semantics — duplicate keys are distinct
     instances ([dedups = false]); linearizable without the paper's
     timestamps (the claim CAS is Delete-min's linearization point). *)
  let skipqueue_lf ?p ?max_level ?seed ?restructure_threshold ?collect_every ()
      =
    {
      name = "SkipQueue-lf";
      dedups = false;
      spec = Linearizable;
      create =
        (fun () ->
          let q =
            LF.create ?p ?max_level ?seed ?restructure_threshold ?collect_every
              ()
          in
          instance
            ~insert:(fun k v -> LF.insert q k v)
            ~try_delete_min:(fun () -> LF.delete_min q)
            ~stats:(fun () ->
              let s = LF.stats q in
              let ps = LF.pool_stats q in
              let rs = LF.reclaim_stats q in
              [
                ("cas_failures", float_of_int s.LF.cas_failures);
                ("marked_hops", float_of_int s.LF.marked_hops);
                ("restructures", float_of_int s.LF.restructures);
                ("restructure_skips", float_of_int s.LF.restructure_skips);
                ("unlinked", float_of_int s.LF.unlinked);
                ("pool_returned", float_of_int ps.LF.returned);
                ("pool_recycled", float_of_int ps.LF.recycled);
                ("reclaim_pending", float_of_int rs.LF.SL.Reclaim.pending);
              ])
            ());
    }

  let relaxed_skipqueue ?p ?max_level ?seed () =
    {
      name = "Relaxed SkipQueue";
      dedups = true;
      spec = Relaxed;
      create = (fun () -> skipqueue_instance ~mode:SQ.Relaxed ?p ?max_level ?seed ());
    }

  (* Coalescing SkipQueue (DESIGN.md §S21): duplicate-key multiset nodes
     behind one packed lock word.  Same claim/batch split as the base
     queue, so the native bulk delete carries over — and one coalesced
     node can satisfy a whole batch in a single hunt pass. *)
  let co_instance ~mode ~dedups ?p ?max_level ?seed ?capacity () =
    let q = CO.create ~mode ~dedups ?p ?max_level ?seed ?capacity () in
    instance
      ~insert:(fun k v -> ignore (CO.insert q k v))
      ~try_delete_min:(fun () -> CO.delete_min q)
      ~delete_min_batch:(fun want ->
        if want <= 0 then []
        else begin
          let batch = CO.hunt_batch q ~want in
          let kvs = CO.batch_claims batch in
          CO.finish_batch q batch;
          kvs
        end)
      ~stats:(fun () ->
        let s = CO.stats q in
        let c = CO.co_stats q in
        [
          ("hunt_steps", float_of_int s.CO.hunt_steps);
          ("swap_losses", float_of_int s.CO.swap_losses);
          ("stale_skips", float_of_int s.CO.stale_skips);
          ("hunt_passes", float_of_int s.CO.hunt_passes);
          ("coalesced_inserts", float_of_int c.CO.coalesced_inserts);
          ("node_splits", float_of_int c.CO.node_splits);
        ])
      ()

  let skipqueue_co ?p ?max_level ?seed ?capacity () =
    {
      name = "SkipQueue-co";
      dedups = false;
      spec = Linearizable;
      create =
        (fun () ->
          co_instance ~mode:CO.Strict ~dedups:false ?p ?max_level ?seed
            ?capacity ());
    }

  (* Same layout under the PR 1 update-in-place contract: the check
     harness then tags keys unique, exercising the join/link machinery's
     dedup paths rather than the multiset admission. *)
  let skipqueue_co_dedup ?p ?max_level ?seed ?capacity () =
    {
      name = "SkipQueue-co-dedup";
      dedups = true;
      spec = Linearizable;
      create =
        (fun () ->
          co_instance ~mode:CO.Strict ~dedups:true ?p ?max_level ?seed
            ?capacity ());
    }

  let relaxed_skipqueue_co ?p ?max_level ?seed ?capacity () =
    {
      name = "Relaxed SkipQueue-co";
      dedups = false;
      spec = Relaxed;
      create =
        (fun () ->
          co_instance ~mode:CO.Relaxed ~dedups:false ?p ?max_level ?seed
            ?capacity ());
    }

  (* Elimination front end over the coalescing queue (multiset
     semantics).  Preserves the backing contract exactly as over the base
     queue, so the strict flavor keeps [Linearizable]. *)
  let elim_skipqueue_co ?slots ?width ?window ?poll_cycles ?serve_cap
      ?bound_every ?adaptive () =
    {
      name = "SkipQueue-co-elim";
      dedups = false;
      spec = Linearizable;
      create =
        (fun () ->
          let q =
            ElimCo.create ~mode:ElimCo.SQ.Strict ?slots ?width ?window
              ?poll_cycles ?serve_cap ?bound_every ?adaptive ()
          in
          instance
            ~insert:(fun k v -> ignore (ElimCo.insert q k v))
            ~try_delete_min:(fun () -> ElimCo.delete_min q)
            ~stats:(fun () ->
              let f = ElimCo.front_stats q in
              let s = ElimCo.queue_stats q in
              [
                ("eliminated", float_of_int f.ElimCo.eliminated);
                ("served", float_of_int f.ElimCo.served);
                ("batches", float_of_int f.ElimCo.batches);
                ("timeouts", float_of_int f.ElimCo.timeouts);
                ("hunt_steps", float_of_int s.ElimCo.SQ.hunt_steps);
                ("swap_losses", float_of_int s.ElimCo.SQ.swap_losses);
                ("hunt_passes", float_of_int s.ElimCo.SQ.hunt_passes);
              ])
            ());
    }

  (* Elimination–combining front end over the same SkipQueue (Calciu,
     Mendes & Herlihy): rendezvous in an adaptive array when the inserted
     key is strictly below both the deleter's published bound and the
     inserter's own fresh observation of the minimum; timed-out deleters
     combine one shared bottom-level hunt.  The front end preserves the
     backing queue's contract (DESIGN.md §S15), so the strict flavor
     keeps [Linearizable] and the relaxed one keeps [Relaxed]. *)
  let elim_skipqueue_instance ~mode ?p ?max_level ?seed ?slots ?width ?window
      ?poll_cycles ?serve_cap ?bound_every ?adaptive () =
    let q =
      Elim.create ~mode ?p ?max_level ?seed ?slots ?width ?window ?poll_cycles
        ?serve_cap ?bound_every ?adaptive ()
    in
    instance
      ~insert:(fun k v -> ignore (Elim.insert q k v))
      ~try_delete_min:(fun () -> Elim.delete_min q)
      ~stats:(fun () ->
        let f = Elim.front_stats q in
        let s = Elim.queue_stats q in
        [
          ("eliminated", float_of_int f.Elim.eliminated);
          ("fresh_refusals", float_of_int f.Elim.fresh_refusals);
          ("served", float_of_int f.Elim.served);
          ("handoff_empties", float_of_int f.Elim.handoff_empties);
          ("batches", float_of_int f.Elim.batches);
          ("timeouts", float_of_int f.Elim.timeouts);
          ("collisions", float_of_int f.Elim.collisions);
          ("width", float_of_int f.Elim.width);
          ("window", float_of_int f.Elim.window);
          ("hunt_steps", float_of_int s.Elim.SQ.hunt_steps);
          ("swap_losses", float_of_int s.Elim.SQ.swap_losses);
          ("stale_skips", float_of_int s.Elim.SQ.stale_skips);
          ("hunt_passes", float_of_int s.Elim.SQ.hunt_passes);
        ])
      ()

  let elim_skipqueue ?p ?max_level ?seed ?slots ?width ?window ?poll_cycles
      ?serve_cap ?bound_every ?adaptive () =
    {
      name = "SkipQueue-elim";
      dedups = true;
      spec = Linearizable;
      create =
        (fun () ->
          elim_skipqueue_instance ~mode:Elim.SQ.Strict ?p ?max_level ?seed
            ?slots ?width ?window ?poll_cycles ?serve_cap ?bound_every
            ?adaptive ());
    }

  let relaxed_elim_skipqueue ?p ?max_level ?seed ?slots ?width ?window
      ?poll_cycles ?serve_cap ?bound_every ?adaptive () =
    {
      name = "Relaxed SkipQueue-elim";
      dedups = true;
      spec = Relaxed;
      create =
        (fun () ->
          elim_skipqueue_instance ~mode:Elim.SQ.Relaxed ?p ?max_level ?seed
            ?slots ?width ?window ?poll_cycles ?serve_cap ?bound_every
            ?adaptive ());
    }

  let hunt_heap ?capacity () =
    {
      name = "Heap";
      dedups = false;
      (* Not linearizable: Hunt's delete-min carries the detached "last"
         element in the deleting processor's hands — in no slot — before
         re-inserting it at the root, so concurrent operations cannot see
         it.  The schedule fuzzer exhibits histories with no Definition-1
         serialization at all (bin/check --backend heap); at quiescence
         every transit has landed, hence Quiescent. *)
      spec = Quiescent;
      create =
        (fun () ->
          let h = Heap.create ?capacity () in
          instance
            ~insert:(fun k v -> Heap.insert h k v)
            ~try_delete_min:(fun () -> Heap.delete_min h)
            ~stats:(fun () -> [])
            ());
    }

  let funnel_list ?layer_widths ?collision_window () =
    {
      name = "FunnelList";
      dedups = false;
      spec = Linearizable;
      create =
        (fun () ->
          let q = FL.create ?layer_widths ?collision_window () in
          instance
            ~insert:(fun k v -> FL.insert q k v)
            ~try_delete_min:(fun () -> FL.delete_min q)
            ~stats:(fun () ->
              let s = FL.funnel_stats q in
              let module F = Repro_funnel.Combining_funnel.Make (R) in
              [
                ("batches", float_of_int s.F.batches);
                ("combines", float_of_int s.F.combines);
                ("largest_batch", float_of_int s.F.largest_batch);
              ])
            ());
    }

  let bin_queue ~range () =
    {
      name = Printf.sprintf "BinQueue(%d)" range;
      dedups = false;
      spec = Linearizable;
      create =
        (fun () ->
          let q = Bins.create ~range () in
          instance
            ~insert:(fun k v -> Bins.insert q k v)
            ~try_delete_min:(fun () -> Bins.delete_min q)
            ~stats:(fun () -> [])
            ());
    }

  let multiqueue ?shard_factor ?shards ?choice ?stickiness ?heap_cycles_per_level
      ?seed ~procs () =
    {
      name = "MultiQueue";
      dedups = false;
      spec = Rank_bounded;
      create =
        (fun () ->
          let q =
            MQ.create ?shard_factor ?shards ?choice ?stickiness
              ?heap_cycles_per_level ?seed ~procs ()
          in
          instance
            ~insert:(fun k v -> MQ.insert q k v)
            ~try_delete_min:(fun () -> MQ.delete_min q)
            ~stats:(fun () ->
              let s = MQ.stats q in
              [
                ("shards", float_of_int (MQ.shards q));
                ("lock_failures", float_of_int s.MQ.lock_failures);
                ("empty_pops", float_of_int s.MQ.empty_pops);
                ("full_sweeps", float_of_int s.MQ.full_sweeps);
                ("resticks", float_of_int s.MQ.resticks);
              ])
            ());
    }

  (* The k-LSM relaxed backend ({!Repro_klsm.Klsm}): per-processor
     insertion buffers merged log-structurally into a CAS-published block
     list, rank error bounded by [k].  Both bulk entry points are native —
     [insert_batch] publishes the (sorted) batch as one block, and
     [delete_min_batch] claims through one per-processor state
     acquisition. *)
  let klsm ?seed ?search_cycles ?buffer_capacity ~k ~procs () =
    {
      name = Printf.sprintf "klsm:%d" k;
      dedups = false;
      spec = Rank_bounded;
      create =
        (fun () ->
          let q = KL.create ?seed ?search_cycles ?buffer_capacity ~k ~procs () in
          instance
            ~insert:(fun key v -> KL.insert q key v)
            ~insert_batch:(fun kvs -> KL.insert_batch q kvs)
            ~try_delete_min:(fun () -> KL.delete_min q)
            ~delete_min_batch:(fun want -> KL.delete_min_batch q ~want)
            ~stats:(fun () ->
              let s = KL.stats q in
              [
                ("flushes", float_of_int s.KL.flushes);
                ("merges", float_of_int s.KL.merges);
                ("spy_sweeps", float_of_int s.KL.spy_sweeps);
                ("cas_failures", float_of_int s.KL.cas_failures);
                ("batch_inserts", float_of_int s.KL.batch_inserts);
                ("batch_deletes", float_of_int s.KL.batch_deletes);
                ("blocks", float_of_int (KL.block_count q));
              ])
            ());
    }

  (* Ablation A1: Delete-mins regulated by a combining funnel in front of
     the SkipQueue (§5 "We tried using a funnel to regulate access of
     deleting processors at the bottom level of the SkipList"). *)
  type funnel_req = { mutable result : (int * int) option; mutable done_ : bool }

  let funneled_skipqueue ?collision_window () =
    {
      name = "SkipQueue + delete funnel";
      dedups = true;
      spec = Linearizable;
      create =
        (fun () ->
          let q = SQ.create ~mode:SQ.Strict () in
          let funnel =
            Funnel.create ?collision_window
              ~apply:(fun batch ->
                List.iter
                  (fun req ->
                    req.result <- SQ.delete_min q;
                    req.done_ <- true)
                  batch)
              ~is_done:(fun req -> req.done_)
              ~kind_of:(fun _ -> 0)
              ()
          in
          instance
            ~insert:(fun k v -> ignore (SQ.insert q k v))
            ~try_delete_min:(fun () ->
              let req = { result = None; done_ = false } in
              Funnel.perform funnel req;
              req.result)
            ~stats:(fun () -> [])
            ());
    }

  (* Bounded/blocking façade over any implementation: capacity bound,
     backpressure on insert, parking delete-min (lib/bounded).  The façade
     serializes each side on one lock but forwards elements unchanged, so
     the wrapped structure keeps its [spec] and [dedups] contract.  The
     non-blocking [insert] maps to [insert_wait]: a bounded queue has no
     silent-drop insert, and the [instance] record has no failure
     channel. *)
  let bounded ?(capacity = 1024) (impl : impl) =
    {
      name = "bounded:" ^ impl.name;
      dedups = impl.dedups;
      spec = impl.spec;
      create =
        (fun () ->
          let inner = impl.create () in
          let b =
            Bounded.create ~capacity ~dedups:impl.dedups ~name:"bounded"
              ~insert:inner.insert ~try_delete_min:inner.try_delete_min ()
          in
          {
            insert = (fun k v -> Bounded.insert_wait b k v);
            insert_wait = (fun k v -> Bounded.insert_wait b k v);
            try_delete_min = (fun () -> Bounded.try_delete_min b);
            delete_min_wait = (fun () -> Bounded.delete_min_wait b);
            (* Batches thread the façade element-wise: each element must
               cross the capacity gate individually, so the inner batch
               path cannot be used without admitting a burst past the
               bound. *)
            insert_batch =
              (fun kvs -> Array.iter (fun (k, v) -> Bounded.insert_wait b k v) kvs);
            delete_min_batch =
              (fun want ->
                let rec go acc n =
                  if n <= 0 then List.rev acc
                  else
                    match Bounded.try_delete_min b with
                    | Some kv -> go (kv :: acc) (n - 1)
                    | None -> List.rev acc
                in
                go [] want);
            stats = (fun () -> Bounded.stats b @ inner.stats ());
          });
    }

  (* The registry's default-configured entries, listed once for both
     runtimes.  [mq] and [klsm256] come from the runtime's own
     constructors (the native ones drop the simulated charges for
     host-side work), and [sim_only] entries sit between the plain
     backends and the bounded façades.  The bounded entries' registry
     capacity (1024) is far above what the standard mixed-ops check
     profile admits, so they behave as their inner backend under that
     sweep; capacity pressure is exercised by the dedicated blocking
     harness. *)
  let registry ~mq ~klsm256 ?(sim_only = []) () =
    [
      skipqueue ();
      relaxed_skipqueue ();
      skipqueue_lf ();
      skipqueue_co ();
      skipqueue_co_dedup ();
      relaxed_skipqueue_co ();
      elim_skipqueue ();
      relaxed_elim_skipqueue ();
      elim_skipqueue_co ();
      hunt_heap ();
      funnel_list ();
      mq;
      klsm256;
    ]
    @ sim_only
    @ List.map
        (fun impl -> bounded impl)
        [
          skipqueue ();
          relaxed_skipqueue ();
          skipqueue_lf ();
          skipqueue_co ();
          hunt_heap ();
          mq;
        ]
end

module Sim = struct
  include Over (Repro_sim.Sim_runtime)

  let skipqueue_with_reclamation ?(collector_passes = 500)
      ?(collector_period = 20_000) () =
    skipqueue_with_reclamation
      ~spawn_collector:(fun body ->
        Repro_sim.Machine.spawn (fun () -> body Repro_sim.Machine.work))
      ~collector_passes ~collector_period ()

  let registry () =
    registry
      ~mq:(multiqueue ~procs:registry_procs ())
      ~klsm256:(klsm ~k:256 ~procs:registry_procs ())
      ~sim_only:
        [ funneled_skipqueue (); skipqueue_with_reclamation (); bin_queue ~range:65_536 () ]
      ()
end

module Native = struct
  include Over (Repro_runtime.Native_runtime)

  (* Real heap operations cost real time on this backend; no simulated
     walk charge on top. *)
  let multiqueue ?shard_factor ?shards ?choice ?stickiness ?seed ~procs () =
    multiqueue ?shard_factor ?shards ?choice ?stickiness
      ~heap_cycles_per_level:0 ?seed ~procs ()

  (* Same reasoning: the binary searches and merge walks are real work. *)
  let klsm ?seed ?buffer_capacity ~k ~procs () =
    klsm ?seed ~search_cycles:0 ?buffer_capacity ~k ~procs ()

  let registry () =
    registry
      ~mq:(multiqueue ~procs:registry_procs ())
      ~klsm256:(klsm ~k:256 ~procs:registry_procs ())
      ()
end

(* ---- name-keyed registry ------------------------------------------------ *)

type backend = Sim | Native

let all = function Sim -> Sim.registry () | Native -> Native.registry ()

let names backend = List.map (fun i -> i.name) (all backend)

(* Lookups tolerate case and spacing so CLI spellings like "skipqueue" or
   "relaxedskipqueue" resolve. *)
let normalize name =
  String.lowercase_ascii
    (String.concat "" (String.split_on_char ' ' name))

(* ---- klsm:<k> names ----------------------------------------------------- *)

let klsm_prefix = "klsm:"

let has_klsm_prefix normalized =
  String.length normalized >= String.length klsm_prefix
  && String.sub normalized 0 (String.length klsm_prefix) = klsm_prefix

(* Parse a name of the exact form "klsm:<k>".  [Error] distinguishes a
   malformed rank bound from a name that is not a klsm spelling at all,
   so {!find} can report "klsm:abc" / "klsm:0" precisely instead of
   falling through to the generic registry miss. *)
let parse_klsm name =
  let n = normalize name in
  if not (has_klsm_prefix n) then
    Error (Printf.sprintf "%S is not a klsm:<k> name" name)
  else begin
    let suffix = String.sub n 5 (String.length n - 5) in
    match int_of_string_opt suffix with
    | Some k when k >= 1 -> Ok k
    | Some k ->
      Error
        (Printf.sprintf
           "k-LSM rank bound must be a positive integer, got %d in %S" k name)
    | None ->
      Error
        (Printf.sprintf
           "malformed k-LSM rank bound %S in %S (expected klsm:<k> with k a \
            positive integer)"
           suffix name)
  end

(* Rank bound embedded anywhere in a backend name ("klsm:64",
   "bounded:klsm:256", a mutant's "Broken klsm:1 ..."), for checkers that
   key their rank envelope to k. *)
let klsm_k_of_name name =
  let n = normalize name in
  let len = String.length n in
  let rec find_at i =
    if i + 5 > len then None
    else if String.sub n i 5 = klsm_prefix then begin
      let j = ref (i + 5) in
      while !j < len && n.[!j] >= '0' && n.[!j] <= '9' do
        incr j
      done;
      if !j = i + 5 then find_at (i + 1)
      else
        match int_of_string_opt (String.sub n (i + 5) (!j - i - 5)) with
        | Some k when k >= 1 -> Some k
        | _ -> find_at (i + 1)
    end
    else find_at (i + 1)
  in
  find_at 0

let find backend name =
  let target = normalize name in
  match List.find_opt (fun i -> normalize i.name = target) (all backend) with
  | Some impl -> impl
  | None ->
    if has_klsm_prefix target then begin
      (* Any valid rank bound constructs a backend on the fly; a malformed
         one gets a parse-specific error, not a registry miss. *)
      match parse_klsm name with
      | Ok k -> (
        match backend with
        | Sim -> Sim.klsm ~k ~procs:registry_procs ()
        | Native -> Native.klsm ~k ~procs:registry_procs ())
      | Error msg -> invalid_arg ("Queue_adapter.find: " ^ msg)
    end
    else
      invalid_arg
        (Printf.sprintf "Queue_adapter.find: unknown implementation %S (known: %s)"
           name
           (String.concat ", " (List.sort String.compare (names backend))))
