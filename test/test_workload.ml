(* Tests for the benchmark harness, the queue adapters, the figure
   machinery and the simulator's tracing. *)

module Machine = Repro_sim.Machine
module Trace = Repro_sim.Trace
module Stats = Repro_util.Stats
module Benchmark = Repro_workload.Benchmark
module Native_bench = Repro_workload.Native_bench
module Figures = Repro_workload.Figures
module Jobs = Repro_workload.Jobs
module QA = Repro_workload.Queue_adapter

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tiny_workload =
  {
    Benchmark.procs = 8;
    initial_size = 20;
    total_ops = 400;
    insert_ratio = 0.5;
    work_cycles = 100;
    key_range = 1 lsl 16;
    seed = 7L;
  }

let all_sim_impls =
  [
    QA.Sim.skipqueue ();
    QA.Sim.(plain (relaxed skipqueue_base));
    QA.Sim.hunt_heap ();
    QA.Sim.funnel_list ();
    QA.Sim.multiqueue ~procs:8 ();
    QA.Sim.funneled_skipqueue ();
    QA.Sim.skipqueue_with_reclamation ();
  ]

(* --- Benchmark.run ------------------------------------------------------- *)

let test_benchmark_determinism () =
  let fingerprint () =
    let m = Benchmark.run (QA.Sim.skipqueue ()) tiny_workload in
    ( Stats.mean m.Benchmark.insert_latency,
      Stats.mean m.Benchmark.delete_latency,
      Stats.count m.Benchmark.insert_latency,
      m.Benchmark.end_time,
      m.Benchmark.final_size )
  in
  check "two runs byte-identical" true (fingerprint () = fingerprint ())

let test_benchmark_seed_changes_run () =
  let run seed = Benchmark.run (QA.Sim.skipqueue ()) { tiny_workload with seed } in
  let a = run 1L and b = run 2L in
  check "different seeds differ" true
    (Stats.mean a.Benchmark.insert_latency <> Stats.mean b.Benchmark.insert_latency
    || a.Benchmark.end_time <> b.Benchmark.end_time)

let test_benchmark_op_accounting () =
  List.iter
    (fun impl ->
      let m = Benchmark.run impl tiny_workload in
      check_int
        (impl.QA.name ^ ": inserts + deletes = total_ops")
        tiny_workload.Benchmark.total_ops
        (Stats.count m.Benchmark.insert_latency + Stats.count m.Benchmark.delete_latency);
      check (impl.QA.name ^ ": final size sane") true (m.Benchmark.final_size >= 0);
      check
        (impl.QA.name ^ ": latencies positive")
        true
        (Stats.mean m.Benchmark.insert_latency > 0.0
        && Stats.mean m.Benchmark.delete_latency > 0.0))
    all_sim_impls

let test_benchmark_insert_ratio_extremes () =
  (* All inserts: final size = initial + ops, minus the rare random key
     collisions that the paper's update-in-place semantics absorb.
     All deletes: drains to 0. *)
  let all_ins =
    Benchmark.run (QA.Sim.skipqueue ())
      { tiny_workload with Benchmark.insert_ratio = 1.0 }
  in
  let expected = tiny_workload.Benchmark.initial_size + tiny_workload.Benchmark.total_ops in
  check "all inserts final size (within collision slack)" true
    (all_ins.Benchmark.final_size <= expected
    && all_ins.Benchmark.final_size >= expected - 8);
  let all_del =
    Benchmark.run (QA.Sim.skipqueue ())
      { tiny_workload with Benchmark.insert_ratio = 0.0 }
  in
  check_int "all deletes final size" 0 all_del.Benchmark.final_size

let test_benchmark_histograms () =
  let m = Benchmark.run (QA.Sim.skipqueue ()) tiny_workload in
  let module H = Repro_util.Histogram in
  check_int "insert histogram complete"
    (Stats.count m.Benchmark.insert_latency)
    (H.count m.Benchmark.insert_histogram);
  check_int "delete histogram complete"
    (Stats.count m.Benchmark.delete_latency)
    (H.count m.Benchmark.delete_histogram);
  let p50 = H.quantile m.Benchmark.delete_histogram 0.5 in
  let p99 = H.quantile m.Benchmark.delete_histogram 0.99 in
  check "p50 <= p99" true (p50 <= p99);
  check "p50 in plausible range" true
    (p50 > 10.0 && p50 < 2.0 *. Stats.mean m.Benchmark.delete_latency);
  (* pp renders with quantiles *)
  let s = Format.asprintf "%a" Benchmark.pp_measurement m in
  check "pp mentions p99" true
    (let rec has i =
       i + 3 <= String.length s && (String.sub s i 3 = "p99" || has (i + 1))
     in
     has 0)

let test_benchmark_more_procs_more_latency () =
  (* Contention must rise with processors for a shared structure. *)
  let del procs =
    let m = Benchmark.run (QA.Sim.skipqueue ()) { tiny_workload with Benchmark.procs } in
    Stats.mean m.Benchmark.delete_latency
  in
  check "2 -> 32 procs increases delete latency" true (del 32 > del 2)

let test_benchmark_rejects_bad_workload () =
  Alcotest.check_raises "procs < 1" (Invalid_argument "Benchmark.run: procs < 1")
    (fun () ->
      ignore
        (Benchmark.run (QA.Sim.skipqueue ()) { tiny_workload with Benchmark.procs = 0 }));
  Alcotest.check_raises "bad ratio"
    (Invalid_argument "Benchmark.run: insert_ratio outside [0, 1]") (fun () ->
      ignore
        (Benchmark.run (QA.Sim.skipqueue ())
           { tiny_workload with Benchmark.insert_ratio = 1.5 }))

(* --- rank-error metric ----------------------------------------------------- *)

let test_rank_error_sequential_exact () =
  (* With one processor every structure — even the relaxed ones — returns
     the true minimum, so the oracle must read exactly zero. *)
  List.iter
    (fun impl ->
      let m = Benchmark.run impl { tiny_workload with Benchmark.procs = 1 } in
      check (impl.QA.name ^ ": deletes were measured") true
        (Stats.count m.Benchmark.rank_error > 0);
      check
        (impl.QA.name ^ ": sequential rank error is 0")
        true
        (Stats.mean m.Benchmark.rank_error = 0.0
        && Stats.max_value m.Benchmark.rank_error = 0.0))
    [
      QA.Sim.skipqueue ();
      QA.Sim.(plain (relaxed skipqueue_base));
      QA.Sim.hunt_heap ();
      QA.Sim.multiqueue ~procs:1 ~shards:4 ~choice:4 ();
    ]

let test_rank_error_orders_relaxations () =
  (* Under concurrency the strict SkipQueue stays near-exact while the
     2-choice MultiQueue pays a real but bounded rank error. *)
  let mean impl =
    let m = Benchmark.run impl tiny_workload in
    Stats.mean m.Benchmark.rank_error
  in
  let strict = mean (QA.Sim.skipqueue ()) in
  let mq = mean (QA.Sim.multiqueue ~procs:8 ()) in
  check "strict skipqueue near-exact" true (strict < 2.0);
  check "multiqueue pays a rank error" true (mq > strict);
  check "multiqueue rank error bounded" true (mq < 200.0)

(* --- adapter registry ------------------------------------------------------ *)

let test_registry_lookup () =
  let sim_names = QA.names QA.Sim in
  check "sim registry has MultiQueue" true (List.mem "MultiQueue" sim_names);
  check "native registry has MultiQueue" true
    (List.mem "MultiQueue" (QA.names QA.Native));
  (* find is total over names, and tolerant of case and spacing *)
  check "find resolves every listed name" true
    (List.for_all (fun n -> (QA.find QA.Sim n).QA.name = n) sim_names);
  Alcotest.(check string)
    "case/space-insensitive" "Relaxed SkipQueue"
    (QA.find QA.Sim "relaxedskipqueue").QA.name;
  Alcotest.(check string)
    "lowercase with spaces" "SkipQueue + reclamation"
    (QA.find QA.Sim "skipqueue +reclamation").QA.name;
  (match QA.find QA.Sim "nosuchqueue" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    check "miss lists the known names" true
      (let rec has i =
         i + 9 <= String.length msg
         && (String.sub msg i 9 = "SkipQueue" || has (i + 1))
       in
       has 0));
  (* duplicate-key semantics recorded per implementation *)
  check "skipqueue dedups" true (QA.find QA.Sim "skipqueue").QA.dedups;
  check "multiqueue keeps duplicates" false (QA.find QA.Sim "multiqueue").QA.dedups

(* The lookup-miss message must list every known name, sorted, so a user
   can find the spelling they wanted without grepping the source. *)
let test_registry_miss_message () =
  match QA.find QA.Sim "nosuchqueue" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    let listed =
      match String.index_opt msg '(' with
      | None -> Alcotest.fail "miss message has no (known: ...) section"
      | Some i ->
        let section = String.sub msg (i + 1) (String.length msg - i - 2) in
        let prefix = "known: " in
        check "section is labelled" true
          (String.length section > String.length prefix
          && String.sub section 0 (String.length prefix) = prefix);
        String.split_on_char ','
          (String.sub section (String.length prefix)
             (String.length section - String.length prefix))
        |> List.map String.trim
    in
    Alcotest.(check (list string))
      "every name, sorted" (List.sort String.compare (QA.names QA.Sim)) listed;
    check "claimed sorted order" true (listed = List.sort String.compare listed)

(* Every implementation declares the correctness contract the history
   checkers hold it to. *)
let test_registry_specs () =
  let spec name = (QA.find QA.Sim name).QA.spec in
  check "SkipQueue is Definition-1 strict" true (spec "skipqueue" = QA.Linearizable);
  check "relaxed variant declares §5.4" true (spec "relaxedskipqueue" = QA.Relaxed);
  check "heap is quiescent only" true (spec "heap" = QA.Quiescent);
  check "multiqueue is rank-bounded" true (spec "multiqueue" = QA.Rank_bounded);
  check "funnel list is strict" true (spec "funnellist" = QA.Linearizable);
  check "ablations inherit the skipqueue contract" true
    (spec "skipqueue + delete funnel" = QA.Linearizable
    && spec "skipqueue + reclamation" = QA.Linearizable)

let test_registry_instances_work () =
  (* Every sim registry entry must actually run a few operations. *)
  List.iter
    (fun impl ->
      let ok = ref false in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            let q = impl.QA.create () in
            q.QA.insert 3 30;
            q.QA.insert 1 10;
            q.QA.insert 2 20;
            (match q.QA.try_delete_min () with
            | Some (k, _) -> ok := k >= 1 && k <= 3
            | None -> ok := false);
            ignore (q.QA.stats ()))
      in
      check (impl.QA.name ^ " runs") true !ok)
    (QA.all QA.Sim)

let test_instance_stats_keys () =
  (* The documented common core of [instance.stats]: every adapter reports
     "ops", "lock_acquisitions" and "lock_try_failures"; the bounded
     façade prepends its own "parks" / "wakes" / "backpressure_stalls". *)
  let keys_of impl =
    let keys = ref [] in
    let (_ : Machine.report) =
      Machine.run (fun () ->
          let q = impl.QA.create () in
          q.QA.insert_wait 2 20;
          q.QA.insert 1 10;
          (match q.QA.delete_min_wait () with
          | k, _ -> check (impl.QA.name ^ " pops a min") true (k = 1 || k = 2));
          keys := List.map fst (q.QA.stats ()))
    in
    !keys
  in
  let core = [ "ops"; "lock_acquisitions"; "lock_try_failures" ] in
  List.iter
    (fun impl ->
      let keys = keys_of impl in
      List.iter
        (fun k -> check (impl.QA.name ^ " reports " ^ k) true (List.mem k keys))
        (core
        @
        if String.length impl.QA.name >= 8 && String.sub impl.QA.name 0 8 = "bounded:"
        then [ "parks"; "wakes"; "backpressure_stalls" ]
        else []))
    (QA.all QA.Sim);
  check "registry carries bounded entries" true
    (List.exists (fun i -> i.QA.name = "bounded:SkipQueue") (QA.all QA.Sim))

(* The registry listing, entry by entry, as it stood before the name
   grammar built it: names, order, duplicate-key contract and spec. *)
let test_registry_listing_pinned () =
  let shared =
    [
      ("SkipQueue", true, QA.Linearizable);
      ("Relaxed SkipQueue", true, QA.Relaxed);
      ("SkipQueue-lf", false, QA.Linearizable);
      ("SkipQueue-co", false, QA.Linearizable);
      ("SkipQueue-co-dedup", true, QA.Linearizable);
      ("Relaxed SkipQueue-co", false, QA.Relaxed);
      ("SkipQueue-elim", true, QA.Linearizable);
      ("Relaxed SkipQueue-elim", true, QA.Relaxed);
      ("SkipQueue-co-elim", false, QA.Linearizable);
      ("Heap", false, QA.Quiescent);
      ("FunnelList", false, QA.Linearizable);
      ("MultiQueue", false, QA.Rank_bounded);
      ("klsm:256", false, QA.Rank_bounded);
    ]
  and sim_only =
    [
      ("SkipQueue + delete funnel", true, QA.Linearizable);
      ("SkipQueue + reclamation", true, QA.Linearizable);
      ("BinQueue(65536)", false, QA.Linearizable);
    ]
  and bounded =
    [
      ("bounded:SkipQueue", true, QA.Linearizable);
      ("bounded:Relaxed SkipQueue", true, QA.Relaxed);
      ("bounded:SkipQueue-lf", false, QA.Linearizable);
      ("bounded:SkipQueue-co", false, QA.Linearizable);
      ("bounded:Heap", false, QA.Quiescent);
      ("bounded:MultiQueue", false, QA.Rank_bounded);
    ]
  in
  let listing backend =
    List.map (fun i -> (i.QA.name, i.QA.dedups, i.QA.spec)) (QA.all backend)
  in
  let first (n, _, _) = n in
  check "sim listing" true (listing QA.Sim = shared @ sim_only @ bounded);
  check "native listing" true (listing QA.Native = shared @ bounded);
  Alcotest.(check (list string))
    "sim names" (List.map first (shared @ sim_only @ bounded)) (QA.names QA.Sim);
  Alcotest.(check (list string))
    "native names" (List.map first (shared @ bounded)) (QA.names QA.Native)

(* Every composition of the grammar over the locked bases resolves on
   both runtimes, round-trips its name, and follows the spec rule:
   [Relaxed ] makes the spec [Relaxed]; [-elim] and [bounded:] keep the
   spec and the base's [dedups]. *)
let test_grammar_locked_compositions () =
  let bases = [ ("SkipQueue", true); ("SkipQueue-co", false); ("SkipQueue-co-dedup", true) ] in
  let flags = [ false; true ] in
  List.iter
    (fun backend ->
      List.iter
        (fun (base, dedups) ->
          List.iter
            (fun relaxed ->
              List.iter
                (fun elim ->
                  List.iter
                    (fun bounded ->
                      let name =
                        (if bounded then "bounded:" else "")
                        ^ (if relaxed then "Relaxed " else "")
                        ^ base
                        ^ if elim then "-elim" else ""
                      in
                      let impl = QA.find backend name in
                      Alcotest.(check string) (name ^ " round-trips") name impl.QA.name;
                      check (name ^ " dedups") dedups impl.QA.dedups;
                      check (name ^ " spec") true
                        (impl.QA.spec = if relaxed then QA.Relaxed else QA.Linearizable);
                      Alcotest.(check string)
                        (name ^ " case/space-insensitive") name
                        (QA.find backend (String.uppercase_ascii name)).QA.name)
                    flags)
                flags)
            flags)
        bases)
    [ QA.Sim; QA.Native ]

(* [bounded:] wraps every other base, keeping its spec and [dedups]. *)
let test_grammar_bounded_others () =
  List.iter
    (fun (backend, names) ->
      List.iter
        (fun name ->
          let inner = QA.find backend name in
          let outer = QA.find backend ("bounded:" ^ name) in
          Alcotest.(check string) (name ^ " bounded name") ("bounded:" ^ name) outer.QA.name;
          check (name ^ " bounded dedups") inner.QA.dedups outer.QA.dedups;
          check (name ^ " bounded spec") true (inner.QA.spec = outer.QA.spec))
        names)
    [
      ( QA.Sim,
        [ "SkipQueue-lf"; "Heap"; "FunnelList"; "MultiQueue"; "klsm:256"; "klsm:7";
          "SkipQueue + delete funnel"; "SkipQueue + reclamation"; "BinQueue(65536)" ] );
      (QA.Native, [ "SkipQueue-lf"; "Heap"; "FunnelList"; "MultiQueue"; "klsm:256"; "klsm:7" ]);
    ]

(* A composition the grammar cannot build says why, instead of listing
   the registry as an unknown name would. *)
let test_grammar_rejects () =
  let message name =
    match QA.find QA.Sim name with
    | impl -> Alcotest.failf "%S built %S" name impl.QA.name
    | exception Invalid_argument msg -> msg
  in
  let contains msg part =
    let n = String.length part in
    let rec at i = i + n <= String.length msg && (String.sub msg i n = part || at (i + 1)) in
    at 0
  in
  List.iter
    (fun (name, why) ->
      let msg = message name in
      check (name ^ ": says it cannot be built") true (contains msg "cannot build");
      check (name ^ ": names the part") true (contains msg why);
      check (name ^ ": not the generic miss") false (contains msg "known:"))
    [
      ("Relaxed Heap", "Relaxed");
      ("Relaxed SkipQueue-lf", "Relaxed");
      ("relaxed multiqueue", "Relaxed");
      ("Relaxed klsm:4", "Relaxed");
      ("SkipQueue-lf-elim", "-elim");
      ("FunnelList-elim", "-elim");
      ("klsm:4-elim", "-elim");
      ("bounded:bounded:SkipQueue", "bounded:");
    ];
  check "unknown base is the generic miss" true
    (contains (message "Relaxed NoSuchQueue") "known:")

(* Compositions only the grammar builds run on the simulator. *)
let test_grammar_compositions_run () =
  List.iter
    (fun name ->
      let impl = QA.find QA.Sim name in
      let got = ref None in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            let q = impl.QA.create () in
            q.QA.insert 3 30;
            q.QA.insert 1 10;
            q.QA.insert 2 20;
            got := q.QA.try_delete_min ())
      in
      check (name ^ " pops the minimum") true (!got = Some (1, 10)))
    [
      "Relaxed SkipQueue-co-elim"; "SkipQueue-co-dedup-elim"; "Relaxed SkipQueue-co-dedup";
      "bounded:SkipQueue-co-elim"; "bounded:Relaxed SkipQueue-co-dedup-elim";
      "bounded:klsm:7"; "bounded:SkipQueue + delete funnel";
    ]

(* --- figures machinery ----------------------------------------------------- *)

let tiny_options =
  { Figures.scale = 0.005; max_procs_log2 = 2; progress = ignore; jobs = 1 }

(* MD5 of [render r ^ to_csv r] per runner at [tiny_options]: a change to
   the figure plumbing must leave every rendered byte where it was
   (klsm-shootout included, which results/ leaves out).  A change that
   moves a simulated number on purpose updates its literal here. *)
let figure_digests =
  [
    ("fig2", "f1b16ac8e314a58078d98c0994aa81b2");
    ("fig3", "46a9ffe74130614ffd947495bb3601e2");
    ("fig4", "a8cb9ef341c62c86d0b4a3332e95b483");
    ("fig5", "a3598ce5bec2c13c36f6375c0806446f");
    ("fig6", "1a023083e1138bb1eb362f229a4e90b5");
    ("fig7", "ef2ce6bb2adf3de80e5d02b9880916f6");
    ("fig8", "39bb122c5528e82be5fef1b3fd2b8e5a");
    ("multiqueue", "63019a093bd57ff288715453ba030032");
    ("ablation-funnel-front", "d813db7c848f3889cfdc5a75f8484c7c");
    ("ablation-skiplist-params", "7db6a905a8d4f22ce2fce7688cda646b");
    ("ablation-timestamp", "282d01859cf026177706f5a2db7bc484");
    ("ablation-reclamation", "0cc4eda1fb42c32ff2a7a1ab5463b4fa");
    ("ablation-bounded-range", "90c7cfa9d05b6a8a74d41c227ea54a22");
    ("ablation-memory-model", "87a0c39d25b7cab0b76442372e3953f9");
    ("ablation-elimination", "8095ea021aec834fe9fc58ba68794ff7");
    ("ablation-lockfree", "83fcf254a659a6cb0ff054f86c9f4685");
    ("scheduler", "d8d17e778e0aa32e6d85c156da85e4ea");
    ("klsm-shootout", "3622e900a2ff4b86bf4985acab79b0fc");
    ("duplicate-heavy", "74bbfbb7994e30b8079c935fccf35ead");
  ]

let test_every_figure_runs () =
  List.iter
    (fun (id, runner) ->
      let result = runner tiny_options in
      check (id ^ " has a body") true (String.length result.Figures.body > 0);
      check (id ^ " has indicators") true (result.Figures.indicators <> []);
      let rendered = Figures.render result in
      check (id ^ " renders") true (String.length rendered > String.length result.Figures.body);
      Alcotest.(check string)
        (id ^ " output pinned")
        (List.assoc id figure_digests)
        (Digest.to_hex (Digest.string (rendered ^ Figures.to_csv result))))
    Figures.all

let test_figure_determinism () =
  let run () = (Figures.fig6 tiny_options).Figures.body in
  Alcotest.(check string) "fig6 deterministic" (run ()) (run ())

(* DESIGN.md §S16: sweep points are independent simulations, so fanning
   them out over domains must leave the rendered figure byte-identical. *)
let test_figure_jobs_identity () =
  let run jobs = Figures.render (Figures.fig7 { tiny_options with Figures.jobs }) in
  Alcotest.(check string) "fig7 jobs=4 equals jobs=1" (run 1) (run 4)

(* Jobs.map itself: order, identity with List.map, error propagation. *)
let test_jobs_map () =
  let xs = List.init 37 Fun.id in
  let f x = (x * x) - x in
  Alcotest.(check (list int)) "ordered results" (List.map f xs) (Jobs.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "inline path" (List.map f xs) (Jobs.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "empty" [] (Jobs.map ~jobs:4 f []);
  match Jobs.map ~jobs:3 (fun x -> if x >= 5 then failwith (string_of_int x) else x) xs with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    (* the lowest-index failure wins, as a sequential run would report *)
    Alcotest.(check string) "first error re-raised" "5" msg

(* --- native bench ----------------------------------------------------------- *)

let test_native_bench_runs () =
  let m =
    Native_bench.run (QA.Native.skipqueue ())
      { tiny_workload with Benchmark.procs = 2 }
  in
  check_int "op accounting"
    tiny_workload.Benchmark.total_ops
    (Stats.count m.Native_bench.insert_latency_ns
    + Stats.count m.Native_bench.delete_latency_ns);
  check "throughput positive" true (m.Native_bench.throughput_ops_per_sec > 0.0);
  check "wall time positive" true (m.Native_bench.wall_ns > 0.0)

(* --- tracing ------------------------------------------------------------------ *)

let test_trace_summary () =
  let summary = Trace.Summary.create () in
  let report =
    Machine.run ~tracer:(Trace.Summary.sink summary) (fun () ->
        let lock = Machine.lock_create ~name:"hot" () in
        let c = Repro_sim.Sim_runtime.shared 0 in
        for _ = 1 to 8 do
          Machine.spawn (fun () ->
              for _ = 1 to 5 do
                Machine.lock_acquire lock;
                ignore (Repro_sim.Sim_runtime.swap c 1);
                Machine.work 50;
                Machine.lock_release lock
              done)
        done)
  in
  check "events recorded" true (Trace.Summary.events summary > 0);
  (* Lock profile: 40 acquisitions of "hot", some parked. *)
  let profile = Trace.Summary.lock_profile summary in
  let hot = List.find (fun (name, _, _, _) -> name = "hot") profile in
  let _, acqs, parks, waited = hot in
  check_int "all acquisitions traced" 40 acqs;
  check "some parked" true (parks > 0);
  check "waited cycles recorded" true (waited > 0);
  check_int "waited matches machine report" report.Machine.lock_wait_cycles waited;
  (* The swapped cell must appear among the hottest locations. *)
  check "a hot location found" true (Trace.Summary.hottest_locations summary ~n:3 <> []);
  (* Every spawned processor has a span and all exited. *)
  let spans = Trace.Summary.processor_spans summary in
  check "spans complete" true
    (List.length spans >= 8
    && List.for_all (fun (_, _, exited) -> exited >= 0) spans)

let test_trace_event_stream_consistent () =
  (* Acquire/release alternate per lock; access finish >= start. *)
  let violations = ref 0 in
  let held = Hashtbl.create 8 in
  let sink = function
    | Trace.Acquired { lock; _ } | Trace.Woken { lock; _ } ->
      if Hashtbl.mem held lock then incr violations else Hashtbl.add held lock ()
    | Trace.Released { lock; _ } ->
      if Hashtbl.mem held lock then Hashtbl.remove held lock else incr violations
    | Trace.Accessed { start; finish; _ } -> if finish < start then incr violations
    | Trace.Spawned _ | Trace.Exited _ | Trace.Parked _
    | Trace.Cond_parked _ | Trace.Cond_woken _ -> ()
  in
  let (_ : Machine.report) =
    Machine.run ~tracer:sink (fun () ->
        let lock = Machine.lock_create ~name:"l" () in
        for _ = 1 to 6 do
          Machine.spawn (fun () ->
              for _ = 1 to 10 do
                Machine.lock_acquire lock;
                Machine.work 10;
                Machine.lock_release lock
              done)
        done)
  in
  check_int "no protocol violations" 0 !violations

let test_trace_pp_event_coverage () =
  (* every event constructor renders *)
  let events =
    [
      Trace.Spawned { parent = 0; child = 1; at = 5 };
      Trace.Exited { proc = 1; at = 9 };
      Trace.Accessed
        {
          proc = 0;
          location = 3;
          kind = Repro_sim.Memory_model.Swap;
          start = 1;
          finish = 4;
          hit = false;
          queued = 2;
        };
      Trace.Acquired { proc = 0; lock = "l"; at = 2 };
      Trace.Released { proc = 0; lock = "l"; at = 3 };
      Trace.Parked { proc = 2; lock = "l"; at = 4 };
      Trace.Woken { proc = 2; lock = "l"; at = 8; waited = 4 };
      Trace.Cond_parked { proc = 2; cond = "cv"; lock = "l"; at = 10 };
      Trace.Cond_woken { proc = 2; cond = "cv"; lock = "l"; at = 15; waited = 5 };
    ]
  in
  List.iter
    (fun e ->
      let s = Format.asprintf "%a" Trace.pp_event e in
      check "renders non-empty" true (String.length s > 0))
    events

let test_trace_pp_smoke () =
  let summary = Trace.Summary.create () in
  let (_ : Machine.report) =
    Machine.run ~tracer:(Trace.Summary.sink summary) (fun () ->
        let c = Repro_sim.Sim_runtime.shared 0 in
        Repro_sim.Sim_runtime.write c 1)
  in
  let s = Format.asprintf "%a" Trace.Summary.pp summary in
  check "pp renders" true (String.length s > 0)

let () =
  Alcotest.run "workload"
    [
      ( "benchmark",
        [
          Alcotest.test_case "determinism" `Quick test_benchmark_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_benchmark_seed_changes_run;
          Alcotest.test_case "op accounting (all impls)" `Quick test_benchmark_op_accounting;
          Alcotest.test_case "ratio extremes" `Quick test_benchmark_insert_ratio_extremes;
          Alcotest.test_case "histograms and quantiles" `Quick test_benchmark_histograms;
          Alcotest.test_case "latency rises with procs" `Quick
            test_benchmark_more_procs_more_latency;
          Alcotest.test_case "rejects bad workload" `Quick test_benchmark_rejects_bad_workload;
        ] );
      ( "rank-error",
        [
          Alcotest.test_case "sequential runs are exact" `Quick
            test_rank_error_sequential_exact;
          Alcotest.test_case "orders the relaxations" `Quick
            test_rank_error_orders_relaxations;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "miss message sorted" `Quick test_registry_miss_message;
          Alcotest.test_case "specs declared" `Quick test_registry_specs;
          Alcotest.test_case "every entry runs" `Quick test_registry_instances_work;
          Alcotest.test_case "core stats keys" `Quick test_instance_stats_keys;
          Alcotest.test_case "listing pinned" `Quick test_registry_listing_pinned;
          Alcotest.test_case "grammar: locked compositions" `Quick
            test_grammar_locked_compositions;
          Alcotest.test_case "grammar: bounded over other bases" `Quick
            test_grammar_bounded_others;
          Alcotest.test_case "grammar: invalid compositions" `Quick test_grammar_rejects;
          Alcotest.test_case "grammar: compositions run" `Quick
            test_grammar_compositions_run;
        ] );
      ( "figures",
        [
          Alcotest.test_case "every figure runs" `Slow test_every_figure_runs;
          Alcotest.test_case "figure determinism" `Quick test_figure_determinism;
          Alcotest.test_case "parallel figure identical" `Quick test_figure_jobs_identity;
          Alcotest.test_case "jobs map semantics" `Quick test_jobs_map;
        ] );
      ( "native-bench",
        [ Alcotest.test_case "runs and accounts" `Quick test_native_bench_runs ] );
      ( "trace",
        [
          Alcotest.test_case "summary aggregates" `Quick test_trace_summary;
          Alcotest.test_case "event stream consistent" `Quick
            test_trace_event_stream_consistent;
          Alcotest.test_case "pp_event coverage" `Quick test_trace_pp_event_coverage;
          Alcotest.test_case "pp smoke" `Quick test_trace_pp_smoke;
        ] );
    ]
