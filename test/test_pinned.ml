(* Backends pinned to literal values.  The determinism tests elsewhere
   compare two runs of one build, so a refactor that shifts every run the
   same way slips past them; these runs compare against numbers recorded
   before the shared skiplist core, per-processor table and node pool
   were factored out, and must never be regenerated to make a change
   pass. *)

module Machine = Repro_sim.Machine
module Benchmark = Repro_workload.Benchmark
module QA = Repro_workload.Queue_adapter
module Rng = Repro_util.Rng
module CO =
  Repro_skipqueue.Skipqueue_co.Make (Repro_sim.Sim_runtime) (Repro_pqueue.Key.Int)

type pin = {
  machine : Machine.report;
  end_time : int;
  final_size : int;
  queue_stats : (string * float) list;
}

let workload ~key_range =
  {
    Benchmark.procs = 16;
    initial_size = 40;
    total_ops = 480;
    insert_ratio = 0.5;
    work_cycles = 100;
    key_range;
    seed = 13L;
  }

(* (registry name, key range, recorded values): the co
   entries run on 256 keys so that joins and splits happen. *)
let pins =
  [
    ( "SkipQueue",
      1 lsl 20,
      {
        machine =
          {
            Machine.end_time = 36028797019017694; processors = 18; events = 48304;
            accesses = 47207; cache_hits = 31113; queued_cycles = 29809;
            swaps = 3575; lock_acquisitions = 2417; lock_contentions = 223;
            lock_wait_cycles = 36325; lock_try_failures = 0; cond_parkings = 0;
            cond_wait_cycles = 0
          };
        end_time = 50962;
        final_size = 60;
        queue_stats =
          [
            ("ops", 581.); ("lock_acquisitions", 2417.);
            ("lock_try_failures", 0.); ("hunt_steps", 1158.);
            ("swap_losses", 868.); ("stale_skips", 317.);
            ("hunt_passes", 291.)
          ];
      } );
    ( "Relaxed SkipQueue",
      1 lsl 20,
      {
        machine =
          {
            Machine.end_time = 36028797019012256; processors = 18; events = 46044;
            accesses = 45528; cache_hits = 30508; queued_cycles = 27163;
            swaps = 3750; lock_acquisitions = 2506; lock_contentions = 360;
            lock_wait_cycles = 72191; lock_try_failures = 0; cond_parkings = 0;
            cond_wait_cycles = 0
          };
        end_time = 50312;
        final_size = 60;
        queue_stats =
          [
            ("ops", 581.); ("lock_acquisitions", 2506.);
            ("lock_try_failures", 0.); ("hunt_steps", 1244.);
            ("swap_losses", 954.); ("stale_skips", 0.);
            ("hunt_passes", 291.)
          ];
      } );
    ( "SkipQueue + reclamation",
      1 lsl 20,
      {
        machine =
          {
            Machine.end_time = 36028797019018680; processors = 19; events = 563413;
            accesses = 560942; cache_hits = 544010; queued_cycles = 33177;
            swaps = 3527; lock_acquisitions = 2393; lock_contentions = 229;
            lock_wait_cycles = 37185; lock_try_failures = 0; cond_parkings = 0;
            cond_wait_cycles = 0
          };
        end_time = 52441;
        final_size = 60;
        queue_stats =
          [
            ("ops", 581.); ("lock_acquisitions", 2393.);
            ("lock_try_failures", 0.); ("retired", 290.);
            ("reclaimed", 230.); ("pending", 60.)
          ];
      } );
    ( "SkipQueue-co",
      256,
      {
        machine =
          {
            Machine.end_time = 36028797019006234; processors = 18; events = 57301;
            accesses = 56102; cache_hits = 37255; queued_cycles = 51119;
            swaps = 4761; lock_acquisitions = 377; lock_contentions = 36;
            lock_wait_cycles = 6817; lock_try_failures = 0; cond_parkings = 0;
            cond_wait_cycles = 0
          };
        end_time = 57821;
        final_size = 60;
        queue_stats =
          [
            ("ops", 581.); ("lock_acquisitions", 377.);
            ("lock_try_failures", 0.); ("hunt_steps", 424.);
            ("swap_losses", 920.); ("stale_skips", 295.);
            ("hunt_passes", 291.); ("coalesced_inserts", 32.);
            ("node_splits", 1.)
          ];
      } );
    ( "SkipQueue-co-dedup",
      256,
      {
        machine =
          {
            Machine.end_time = 36028797019001064; processors = 18; events = 61007;
            accesses = 59870; cache_hits = 40142; queued_cycles = 67266;
            swaps = 4921; lock_acquisitions = 383; lock_contentions = 37;
            lock_wait_cycles = 7701; lock_try_failures = 0; cond_parkings = 0;
            cond_wait_cycles = 0
          };
        end_time = 61363;
        final_size = 33;
        queue_stats =
          [
            ("ops", 554.); ("lock_acquisitions", 383.);
            ("lock_try_failures", 0.); ("hunt_steps", 357.);
            ("swap_losses", 919.); ("stale_skips", 316.);
            ("hunt_passes", 264.); ("coalesced_inserts", 0.);
            ("node_splits", 0.)
          ];
      } );
    ( "SkipQueue-co-elim",
      256,
      {
        machine =
          {
            Machine.end_time = 36028797019150143; processors = 18; events = 114072;
            accesses = 81938; cache_hits = 63236; queued_cycles = 26392;
            swaps = 5123; lock_acquisitions = 341; lock_contentions = 8;
            lock_wait_cycles = 884; lock_try_failures = 0; cond_parkings = 0;
            cond_wait_cycles = 0
          };
        end_time = 92629;
        final_size = 60;
        queue_stats =
          [
            ("ops", 581.); ("lock_acquisitions", 341.);
            ("lock_try_failures", 0.); ("eliminated", 0.);
            ("fresh_refusals", 0.); ("served", 120.);
            ("handoff_empties", 0.); ("batches", 58.); ("timeouts", 125.);
            ("collisions", 46.); ("width", 64.); ("window", 128.);
            ("hunt_steps", 346.); ("swap_losses", 508.);
            ("stale_skips", 89.); ("hunt_passes", 171.);
            ("coalesced_inserts", 36.); ("node_splits", 0.)
          ];
      } );
    ( "SkipQueue-elim",
      1 lsl 20,
      {
        machine =
          {
            Machine.end_time = 36028797019162389; processors = 18; events = 110249;
            accesses = 79186; cache_hits = 62703; queued_cycles = 17552;
            swaps = 3885; lock_acquisitions = 2350; lock_contentions = 93;
            lock_wait_cycles = 12357; lock_try_failures = 0; cond_parkings = 0;
            cond_wait_cycles = 0
          };
        end_time = 82564;
        final_size = 60;
        queue_stats =
          [
            ("ops", 581.); ("lock_acquisitions", 2350.);
            ("lock_try_failures", 0.); ("eliminated", 0.);
            ("fresh_refusals", 0.); ("served", 127.);
            ("handoff_empties", 0.); ("batches", 69.); ("timeouts", 121.);
            ("collisions", 43.); ("width", 64.); ("window", 128.);
            ("hunt_steps", 767.); ("swap_losses", 477.);
            ("stale_skips", 93.); ("hunt_passes", 164.)
          ];
      } );
    ( "SkipQueue-lf",
      1 lsl 20,
      {
        machine =
          {
            Machine.end_time = 36028797019001908; processors = 18; events = 69204;
            accesses = 67827; cache_hits = 55489; queued_cycles = 44462;
            swaps = 1295; lock_acquisitions = 35; lock_contentions = 0;
            lock_wait_cycles = 0; lock_try_failures = 16; cond_parkings = 0;
            cond_wait_cycles = 0
          };
        end_time = 44798;
        final_size = 60;
        queue_stats =
          [
            ("ops", 581.); ("lock_acquisitions", 35.);
            ("lock_try_failures", 16.); ("cas_failures", 472.);
            ("marked_hops", 2756.); ("restructures", 8.);
            ("restructure_skips", 16.); ("unlinked", 280.);
            ("pool_returned", 264.); ("pool_recycled", 34.);
            ("reclaim_pending", 16.)
          ];
      } );
    ( "FunnelList",
      1 lsl 20,
      {
        machine =
          {
            Machine.end_time = 36028797018990697; processors = 18; events = 14614;
            accesses = 13517; cache_hits = 4762; queued_cycles = 4160;
            swaps = 4114; lock_acquisitions = 3533; lock_contentions = 496;
            lock_wait_cycles = 1957949; lock_try_failures = 0; cond_parkings = 0;
            cond_wait_cycles = 0
          };
        end_time = 145066;
        final_size = 60;
        queue_stats =
          [
            ("ops", 581.); ("lock_acquisitions", 3533.);
            ("lock_try_failures", 0.); ("batches", 581.); ("combines", 0.);
            ("largest_batch", 1.)
          ];
      } );
    ( "MultiQueue",
      1 lsl 20,
      {
        machine =
          {
            Machine.end_time = 36028797019000106; processors = 18; events = 12072;
            accesses = 8077; cache_hits = 3705; queued_cycles = 2470;
            swaps = 3550; lock_acquisitions = 3479; lock_contentions = 281;
            lock_wait_cycles = 43611; lock_try_failures = 71; cond_parkings = 0;
            cond_wait_cycles = 0
          };
        end_time = 24087;
        final_size = 60;
        queue_stats =
          [
            ("ops", 581.); ("lock_acquisitions", 3479.);
            ("lock_try_failures", 71.); ("shards", 32.);
            ("lock_failures", 71.); ("empty_pops", 0.);
            ("full_sweeps", 175.); ("resticks", 142.)
          ];
      } );
    ( "klsm:256",
      1 lsl 20,
      {
        machine =
          {
            Machine.end_time = 36028797018996722; processors = 18; events = 39128;
            accesses = 26712; cache_hits = 22554; queued_cycles = 36923;
            swaps = 764; lock_acquisitions = 0; lock_contentions = 0;
            lock_wait_cycles = 0; lock_try_failures = 0; cond_parkings = 0;
            cond_wait_cycles = 0
          };
        end_time = 33647;
        final_size = 60;
        queue_stats =
          [
            ("ops", 581.); ("lock_acquisitions", 0.);
            ("lock_try_failures", 0.); ("flushes", 26.); ("merges", 13.);
            ("spy_sweeps", 42.); ("cas_failures", 320.);
            ("batch_inserts", 0.); ("batch_deletes", 0.); ("blocks", 13.)
          ];
      } );
  ]

let run_backend name key_range =
  let m = Benchmark.run (QA.find QA.Sim name) (workload ~key_range) in
  {
    machine = m.Benchmark.machine;
    end_time = m.Benchmark.end_time;
    final_size = m.Benchmark.final_size;
    queue_stats = m.Benchmark.queue_stats;
  }

(* No registry entry uses the coalescing queue's node pool, so this one
   drives it directly: churn on eight keys with capacity-2 nodes while a
   collector feeds the pool. *)
let run_co_reclaim () =
  let out = ref None in
  let report =
    Machine.run (fun () ->
        let recl = CO.Reclaim.create () in
        let q = CO.create ~seed:99L ~reclamation:recl ~capacity:2 () in
        for i = 0 to 31 do
          ignore (CO.insert q (i mod 8) i)
        done;
        for p = 0 to 3 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int (100 + p)) in
              for round = 0 to 119 do
                Machine.work (Rng.int rng 2_000);
                if round land 1 = 0 then ignore (CO.delete_min q)
                else ignore (CO.insert q (round mod 8) (((p + 1) * 10_000) + round))
              done)
        done;
        Machine.spawn (fun () ->
            for _ = 0 to 59 do
              Machine.work 2_000;
              ignore (CO.Reclaim.collect recl)
            done;
            Machine.work (1 lsl 45);
            ignore (CO.Reclaim.collect recl);
            out := Some (CO.size q, CO.stats q, CO.co_stats q, CO.pool_stats q)))
  in
  let size, s, c, p = Option.get !out in
  ( report,
    size,
    [ s.CO.hunt_steps; s.CO.swap_losses; s.CO.stale_skips; s.CO.hunt_passes;
      c.CO.coalesced_inserts; c.CO.node_splits;
      p.CO.returned; p.CO.recycled; p.CO.pooled ] )

let test_registry_pinned () =
  List.iter
    (fun (name, key_range, expected) ->
      let got = run_backend name key_range in
      Alcotest.(check int) (name ^ ": end_time") expected.end_time got.end_time;
      Alcotest.(check int) (name ^ ": final_size") expected.final_size got.final_size;
      Alcotest.(check (list (pair string (float 0.))))
        (name ^ ": queue_stats") expected.queue_stats got.queue_stats;
      Alcotest.(check bool) (name ^ ": machine report") true
        (got.machine = expected.machine))
    pins

let test_co_reclaim_pinned () =
  let report, size, counters = run_co_reclaim () in
  Alcotest.(check bool) "machine report" true
    (report
    = { Machine.end_time = 35184372389004; processors = 6; events = 101822;
        accesses = 100133; cache_hits = 89501; queued_cycles = 2869; swaps = 3045;
        lock_acquisitions = 556; lock_contentions = 18; lock_wait_cycles = 1864;
        lock_try_failures = 0; cond_parkings = 0; cond_wait_cycles = 0 });
  Alcotest.(check int) "final size" 32 size;
  Alcotest.(check (list int))
    "hunt/co/pool counters" [ 261; 117; 25; 240; 82; 62; 174; 137; 37 ] counters

let () =
  Alcotest.run "pinned"
    [
      ( "backends",
        [
          Alcotest.test_case "registry runs pinned" `Quick test_registry_pinned;
          Alcotest.test_case "SkipQueue-co with reclamation pinned" `Quick
            test_co_reclaim_pinned;
        ] );
    ]
