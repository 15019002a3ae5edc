module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Sim = Queue_adapter.Sim

type result = {
  id : string;
  title : string;
  body : string;
  indicators : (string * float) list;
  data : (string * (float * float * float) list) list;
}

type options = {
  scale : float;
  max_procs_log2 : int;
  progress : string -> unit;
  jobs : int;
}

let default_options =
  { scale = 1.0; max_procs_log2 = 8; progress = ignore; jobs = 1 }

let to_csv r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "series,x,delete_latency,insert_latency\n";
  List.iter
    (fun (name, rows) ->
      List.iter
        (fun (x, d, i) ->
          Buffer.add_string buf (Printf.sprintf "%s,%g,%g,%g\n" name x d i))
        rows)
    r.data;
  Buffer.contents buf

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ r.id ^ " — " ^ r.title ^ " ==\n\n");
  Buffer.add_string buf r.body;
  if r.indicators <> [] then begin
    Buffer.add_string buf "\nShape indicators:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-55s %8.2f\n" name v))
      r.indicators
  end;
  Buffer.contents buf

let scaled options n = Int.max 400 (int_of_float (float_of_int n *. options.scale))
let proc_counts options = List.init (options.max_procs_log2 + 1) (fun i -> 1 lsl i)
let top_procs options = 1 lsl options.max_procs_log2

(* The acceptance point of the traced probes: >= 64 processors (clamped
   so tiny smoke-test sweeps stay in range). *)
let probe_procs options = Int.min 64 (top_procs options)

let del m = Stats.mean m.Benchmark.delete_latency
let ins m = Stats.mean m.Benchmark.insert_latency

(* Structured queue counters: one by name (0 when a structure does not
   report it), or all of them rendered uniformly ("name=value ..."). *)
let stat stats k = Option.value (List.assoc_opt k stats) ~default:0.0

let stats_line stats =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.0f" k v) stats)

(* ------------------------------------------------------------------ *)

(* An operation mix of the evaluation: initial size, total operations
   (before [options.scale]) and insert share. *)
type mix = { initial : int; ops : int; insert_ratio : float }

let small = { initial = 50; ops = 7_000; insert_ratio = 0.5 } (* fig6 *)
let large = { small with initial = 1000 } (* fig7 *)
let deletions = { initial = 27_000; ops = 60_000; insert_ratio = 0.3 } (* fig5, fig8 *)

let workload options ?(work = 100) ?(key_range = 1 lsl 20) mix ~procs =
  {
    Benchmark.procs;
    initial_size = mix.initial;
    total_ops = scaled options mix.ops;
    insert_ratio = mix.insert_ratio;
    work_cycles = work;
    key_range;
    seed = 42L;
  }

(* One series per [(name, impl_of)] across the processor sweep on [mix].
   [impl_of procs] builds the implementation for each point — the
   MultiQueue and the k-LSM size themselves to the processors they serve;
   [fixed] shares one.  [ops_scale name] shrinks a slow structure's
   operation count (down to 400) to keep its runs practical;
   per-operation latency is unaffected.  Points are independent
   simulations, so they fan out over [options.jobs] domains (identical
   results either way — see Jobs). *)
let sweep options ?key_range ?(ops_scale = fun _ -> 1.0) mix impls =
  List.map
    (fun (name, impl_of) ->
      ( name,
        Jobs.map ~jobs:options.jobs
          (fun procs ->
            options.progress (Printf.sprintf "%s @ %d procs" name procs);
            let w = workload options ?key_range mix ~procs in
            let total_ops =
              Int.max 400
                (int_of_float (float_of_int w.Benchmark.total_ops *. ops_scale name))
            in
            (procs, Benchmark.run (impl_of procs) { w with Benchmark.total_ops }))
          (proc_counts options) ))
    impls

let fixed impl = (impl.Queue_adapter.name, Fun.const impl)

(* The paper's figures are log-log latency curves; render an ASCII
   approximation under the tables so crossovers are visible at a glance. *)
let latency_plot ~series of_measurement ~title =
  let markers = [| '#'; 'o'; '+'; 'x'; '*'; '@' |] in
  let plot_series =
    List.mapi
      (fun i (name, points) ->
        {
          Repro_util.Ascii_plot.label = name;
          marker = markers.(i mod Array.length markers);
          points =
            List.map
              (fun (procs, m) -> (float_of_int procs, of_measurement m))
              points;
        })
      series
  in
  title ^ "\n"
  ^ Repro_util.Ascii_plot.render ~width:64 ~height:16
      ~x_scale:Repro_util.Ascii_plot.Log2 ~y_scale:Repro_util.Ascii_plot.Log10
      ~x_label:"processors" ~y_label:"cycles (log10)" plot_series

(* One table per measure in the paper's layout, one column per series. *)
let series_table ~series cell =
  let procs = List.map fst (snd (List.hd series)) in
  let header = "procs" :: List.map fst series in
  let rows =
    List.map
      (fun n ->
        string_of_int n
        :: List.map (fun (_, points) -> cell (List.assoc n points)) series)
      procs
  in
  Table.render ~header rows

let latency_tables ~series =
  let cycles f m = Table.float_cell ~decimals:0 (f m) in
  "Average Delete-min latency (simulated cycles)\n" ^ series_table ~series (cycles del)
  ^ "\nAverage Insert latency (simulated cycles)\n" ^ series_table ~series (cycles ins)
  ^ "\n"
  ^ latency_plot ~series del ~title:"Delete-min latency"
  ^ "\n"
  ^ latency_plot ~series ins ~title:"Insert latency"

let rank_of m =
  if Stats.count m.Benchmark.rank_error = 0 then 0.0
  else Stats.mean m.Benchmark.rank_error

let rank_table ~series =
  "Mean Delete-min rank error (elements ahead of the returned key)\n"
  ^ series_table ~series (fun m -> Table.float_cell ~decimals:2 (rank_of m))

let at series name procs = List.assoc procs (List.assoc name series)

let ratio_indicator series ~slow ~fast ~procs f label =
  let s = f (at series slow procs) and q = f (at series fast procs) in
  (label, if q = 0.0 then nan else s /. q)

(* Find the smallest processor count from which [fast] stays at or below
   [slow] for the rest of the sweep — the crossover the paper narrates. *)
let crossover series ~slow ~fast f =
  let points_slow = List.assoc slow series and points_fast = List.assoc fast series in
  let rec scan = function
    | [] -> nan
    | (n, _) :: _
      when List.for_all
             (fun (m, mf) -> m < n || f mf <= f (List.assoc m points_slow))
             points_fast -> float_of_int n
    | _ :: rest -> scan rest
  in
  scan points_fast

(* One section of a figure: a heading (with its newline, or empty), the
   latency tables of [series], then [extra].  [tag] suffixes the
   section's CSV series names ("name/tag") when one figure sweeps the same
   structures over several workloads. *)
type section = {
  heading : string;
  tag : string option;
  series : (string * (int * Benchmark.measurement) list) list;
  extra : string;
}

let section ?tag ?(extra = "") heading series = { heading; tag; series; extra }
let titled title = Printf.sprintf "--- %s ---\n" title

(* Sections are separated by a blank line; [after] closes the body. *)
let figure ~id ~title ?(after = "") sections indicators =
  let body =
    String.concat "\n"
      (List.map (fun s -> s.heading ^ latency_tables ~series:s.series ^ s.extra) sections)
    ^ after
  in
  let data =
    List.concat_map
      (fun s ->
        List.map
          (fun (name, points) ->
            ( Option.fold ~none:name ~some:(Printf.sprintf "%s/%s" name) s.tag,
              List.map (fun (x, m) -> (float_of_int x, del m, ins m)) points ))
          s.series)
      sections
  in
  { id; title; body; indicators; data }

(* A figure that is one set of latency tables, plus an optional note. *)
let latency_figure ~id ~title ?(note = "") series indicators =
  figure ~id ~title [ section ~extra:note "" series ] indicators

(* Head-of-list contention probe.  Full tracing is too costly for a whole
   sweep, so rerun the fig7 mix (100 cycles of work, keys below
   [key_range]) once per structure at [probe_procs] under a Trace.Summary
   sink and see where the queued cycles land: (hottest line, top-8 lines)
   queued cycles. *)
let head_probe options ~key_range impl =
  let procs = probe_procs options in
  options.progress
    (Printf.sprintf "head probe: %s @ %d procs" impl.Queue_adapter.name procs);
  let summary = Repro_sim.Trace.Summary.create () in
  let ops = scaled options large.ops in
  let (_ : Repro_sim.Machine.report) =
    Repro_sim.Machine.run
      ~tracer:(Repro_sim.Trace.Summary.sink summary)
      (fun () ->
        let q = impl.Queue_adapter.create () in
        let rng = Repro_util.Rng.of_seed 99L in
        for i = 0 to large.initial - 1 do
          q.Queue_adapter.insert (Repro_util.Rng.int rng key_range) (1_000_000 + i)
        done;
        for p = 0 to procs - 1 do
          let rng = Repro_util.Rng.of_seed (Int64.of_int (7_000 + p)) in
          Repro_sim.Machine.spawn (fun () ->
              for i = 0 to (ops / procs) - 1 do
                Repro_sim.Machine.work 100;
                if Repro_util.Rng.bernoulli rng large.insert_ratio then
                  q.Queue_adapter.insert
                    (Repro_util.Rng.int rng key_range)
                    ((p * 1_000_000) + i)
                else ignore (q.Queue_adapter.try_delete_min ())
              done)
        done)
  in
  let queued =
    List.map
      (fun (_, _, q) -> q)
      (Repro_sim.Trace.Summary.hottest_locations summary ~n:8)
  in
  ((match queued with q :: _ -> q | [] -> 0), List.fold_left ( + ) 0 queued)

(* The probe of each structure, by name, and its rendered block. *)
let head_probes options ~workload ~key_range impls =
  let probes =
    List.map
      (fun impl -> (impl.Queue_adapter.name, head_probe options ~key_range impl))
      impls
  in
  let probe_line (name, (hottest, top8)) =
    Printf.sprintf "%-22s hottest line queued %9d cycles; top-8 lines %9d\n" name hottest
      top8
  in
  ( probes,
    Printf.sprintf
      "\nHead-of-list contention probe (%s workload, %d procs, full tracing)\n" workload
      (probe_procs options)
    ^ String.concat "" (List.map probe_line probes) )

let hottest_ratio probes ~slow ~fast =
  float_of_int (fst (List.assoc slow probes))
  /. float_of_int (Int.max 1 (fst (List.assoc fast probes)))

(* ------------------------------------------------------------------ *)

let fig2 options =
  let works = [ 100; 1000; 2000; 3000; 4000; 5000; 6000 ] in
  let impl = Sim.skipqueue () in
  let procs = top_procs options in
  let measurements =
    Jobs.map ~jobs:options.jobs
      (fun work ->
        options.progress (Printf.sprintf "fig2: work=%d" work);
        let w = workload options ~work { large with ops = 70_000 } ~procs in
        (work, Benchmark.run impl w))
      works
  in
  let rows =
    List.map
      (fun (work, m) ->
        [
          string_of_int work;
          Table.float_cell ~decimals:0 (del m);
          Table.float_cell ~decimals:0 (ins m);
        ])
      measurements
  in
  let body =
    Printf.sprintf
      "SkipQueue latency vs. amount of local work (%d processes, 1000 initial elements)\n"
      procs
    ^ Table.render ~header:[ "work"; "delete_min latency"; "insert latency" ] rows
  in
  let first = List.assoc 100 measurements and last = List.assoc 6000 measurements in
  {
    id = "fig2";
    title = "latency vs. local work amount";
    body;
    indicators =
      [
        ("delete latency drop, work 100 -> 6000 (paper ~2.7x)", del first /. del last);
        ("insert latency drop, work 100 -> 6000 (paper ~2.5x)", ins first /. ins last);
      ];
    data =
      [
        ( "SkipQueue",
          List.map (fun (work, m) -> (float_of_int work, del m, ins m)) measurements );
      ];
  }

(* Heap vs SkipQueue, plus the FunnelList measured over [funnel_list] of
   the operations when given. *)
let comparison_figure options ~id ~title ?funnel_list mix =
  let heap = Sim.hunt_heap ~capacity:(mix.initial + scaled options mix.ops + 100) () in
  let impls =
    [ heap; Sim.skipqueue () ] @ if funnel_list = None then [] else [ Sim.funnel_list () ]
  in
  let ops_scale name =
    match funnel_list with Some s when name = "FunnelList" -> s | _ -> 1.0
  in
  let series = sweep options ~ops_scale mix (List.map fixed impls) in
  let top = top_procs options in
  let note =
    match funnel_list with
    | Some s when s < 1.0 ->
      Printf.sprintf
        "(FunnelList measured over %.0f%% of the operations — linear-time \
         operations make full runs impractically slow to simulate; per-operation \
         latency is unaffected.)\n"
        (100.0 *. s)
    | _ -> ""
  in
  latency_figure ~id ~title ~note series
    ([
       ratio_indicator series ~slow:"Heap" ~fast:"SkipQueue" ~procs:top del
         (Printf.sprintf "Heap/SkipQueue deletion latency @%d" top);
       ratio_indicator series ~slow:"Heap" ~fast:"SkipQueue" ~procs:top ins
         (Printf.sprintf "Heap/SkipQueue insertion latency @%d" top);
     ]
    @
    if funnel_list = None then []
    else
      [
        ratio_indicator series ~slow:"FunnelList" ~fast:"SkipQueue" ~procs:top del
          (Printf.sprintf "FunnelList/SkipQueue deletion latency @%d" top);
        ( "crossover procs: SkipQueue beats FunnelList (deletions)",
          crossover series ~slow:"FunnelList" ~fast:"SkipQueue" del );
        ( "crossover procs: SkipQueue beats FunnelList (insertions)",
          crossover series ~slow:"FunnelList" ~fast:"SkipQueue" ins );
      ])

let fig3 options =
  comparison_figure options ~id:"fig3"
    ~title:"small structure (50 initial, 70000 ops, 50% inserts)" ~funnel_list:1.0
    { small with ops = 70_000 }

let fig4 options =
  comparison_figure options ~id:"fig4"
    ~title:"large structure (1000 initial, 70000 ops, 50% inserts)" ~funnel_list:0.1
    { large with ops = 70_000 }

let fig5 options =
  comparison_figure options ~id:"fig5"
    ~title:"70% deletions (27000 initial, 60000 ops, 30% inserts)" deletions

let relaxed_figure options ~id ~title mix =
  let series =
    sweep options mix
      [ fixed (Sim.skipqueue ()); fixed Sim.(plain (relaxed skipqueue_base)) ]
  in
  let top = top_procs options in
  latency_figure ~id ~title series
    [
      ratio_indicator series ~slow:"SkipQueue" ~fast:"Relaxed SkipQueue" ~procs:top del
        (Printf.sprintf "strict/relaxed deletion latency @%d (paper: up to 2x)" top);
      ratio_indicator series ~slow:"Relaxed SkipQueue" ~fast:"SkipQueue" ~procs:top ins
        (Printf.sprintf "relaxed/strict insertion latency @%d (paper: >= 1)" top);
    ]

let fig6 options =
  relaxed_figure options ~id:"fig6"
    ~title:"SkipQueue vs Relaxed, small structure (50 initial, 7000 ops)" small

let fig7 options =
  relaxed_figure options ~id:"fig7"
    ~title:"SkipQueue vs Relaxed, large structure (1000 initial, 7000 ops)" large

let fig8 options =
  relaxed_figure options ~id:"fig8"
    ~title:"SkipQueue vs Relaxed, 70% deletions (27000 initial, 60000 ops)" deletions

(* ------------------------------------------------------------------ *)

(* The MultiQueue sweep: the modern endpoint of §5.2's relaxation idea
   (c-way choice over try-locked shards) against the paper's Relaxed
   SkipQueue.  Reports both latency and Delete-min rank error, so the
   speed/quality trade is quantified instead of implied. *)
let multiqueue options =
  let top = top_procs options in
  let workloads =
    List.map
      (fun (tag, title, mix) ->
        ( tag,
          sweep options mix
            [
              fixed Sim.(plain (relaxed skipqueue_base));
              ("MultiQueue", fun procs -> Sim.multiqueue ~procs ());
            ],
          title ))
      [
        ("small", "small structure (50 initial, 7000 ops, 50% inserts)", small);
        ("large", "large structure (1000 initial, 7000 ops, 50% inserts)", large);
        ( "70% deletions",
          "70% deletions (27000 initial, 60000 ops, 30% inserts)",
          deletions );
      ]
  in
  figure ~id:"multiqueue" ~title:"MultiQueue vs Relaxed SkipQueue: latency and rank error"
    (List.map
       (fun (tag, series, title) ->
         section ~tag ~extra:("\n" ^ rank_table ~series) (titled title) series)
       workloads)
    (List.concat_map
       (fun (tag, series, _) ->
         [
           ratio_indicator series ~slow:"Relaxed SkipQueue" ~fast:"MultiQueue" ~procs:top
             del
             (Printf.sprintf "relaxed/multiqueue deletion latency @%d, %s" top tag);
           ratio_indicator series ~slow:"Relaxed SkipQueue" ~fast:"MultiQueue" ~procs:top
             ins
             (Printf.sprintf "relaxed/multiqueue insertion latency @%d, %s" top tag);
           ( Printf.sprintf "multiqueue mean rank error @%d, %s" top tag,
             rank_of (at series "MultiQueue" top) );
           ( Printf.sprintf "relaxed skipqueue mean rank error @%d, %s" top tag,
             rank_of (at series "Relaxed SkipQueue" top) );
         ])
       workloads)

let ablation_funnel_front options =
  let series =
    sweep options small [ fixed (Sim.skipqueue ()); fixed (Sim.funneled_skipqueue ()) ]
  in
  let top = top_procs options in
  latency_figure ~id:"ablation-funnel-front"
    ~title:"funnel-regulated Delete-min vs racing SWAPs (the design §5 rejects)" series
    [
      ratio_indicator series ~slow:"SkipQueue + delete funnel" ~fast:"SkipQueue"
        ~procs:top del
        (Printf.sprintf "funneled/plain deletion latency @%d (paper: > 1 at high \
                         concurrency)" top);
    ]

let ablation_skiplist_params options =
  let variant p max_level =
    ( Printf.sprintf "p=%.2f maxlvl=%d" p max_level,
      Fun.const (Sim.skipqueue ~p ~max_level ()) )
  in
  let series =
    sweep options large
      [ variant 0.5 20; variant 0.25 20; variant 0.75 20; variant 0.5 10; variant 0.5 5 ]
  in
  let top = top_procs options in
  latency_figure ~id:"ablation-skiplist-params"
    ~title:"SkipQueue sensitivity to p and max_level (1000 initial, 7000 ops)" series
    [
      ratio_indicator series ~slow:"p=0.50 maxlvl=5" ~fast:"p=0.50 maxlvl=20" ~procs:top
        ins "insertion penalty of starving levels (maxlvl 5 vs 20)";
    ]

let ablation_timestamp options =
  (* Same workload strict vs relaxed, but report the queues' internal hunt
     statistics rather than latency. *)
  let run impl =
    options.progress (Printf.sprintf "timestamp ablation: %s" impl.Queue_adapter.name);
    Benchmark.run impl (workload options small ~procs:(top_procs options))
  in
  let strict = run (Sim.skipqueue ()) in
  let relaxed = run Sim.(plain (relaxed skipqueue_base)) in
  let line name m =
    Printf.sprintf "%-18s delete mean %8.0f  insert mean %8.0f  %s\n" name
      (del m) (ins m)
      (stats_line m.Benchmark.queue_stats)
  in
  {
    id = "ablation-timestamp";
    title = "cost decomposition of the timestamp mechanism (256 procs, small queue)";
    body = line "strict" strict ^ line "relaxed" relaxed;
    data = [];
    indicators =
      [
        ("strict/relaxed deletion latency", del strict /. del relaxed);
        ("relaxed/strict insertion latency", ins relaxed /. ins strict);
      ];
  }

let ablation_reclamation options =
  let series =
    sweep options large
      [ fixed (Sim.skipqueue ()); fixed (Sim.skipqueue_with_reclamation ()) ]
  in
  let top = top_procs options in
  latency_figure ~id:"ablation-reclamation"
    ~title:"overhead of the live reclamation protocol (dedicated collector, §3)"
    ~note:
      (Printf.sprintf "\nreclamation at %d procs: %s\n" top
         (stats_line (at series "SkipQueue + reclamation" top).Benchmark.queue_stats))
    series
    [
      ratio_indicator series ~slow:"SkipQueue + reclamation" ~fast:"SkipQueue" ~procs:top
        del
        (Printf.sprintf "reclamation/plain deletion latency @%d" top);
      ratio_indicator series ~slow:"SkipQueue + reclamation" ~fast:"SkipQueue" ~procs:top
        ins
        (Printf.sprintf "reclamation/plain insertion latency @%d" top);
    ]

(* The paper's §1.1/§2 positioning: bounded-range bin queues win when the
   priority set is small and known, and stop being viable as the range
   grows — which is the case the SkipQueue exists for. *)
let ablation_bounded_range options =
  let range_series ~range ~ops_scale =
    (* The sparse bin queue's stale-hint scans make its operations linear
       in the range; cap its operation count as for the FunnelList in
       fig4. *)
    sweep options ~key_range:range
      ~ops_scale:(fun name -> if name = "SkipQueue" then 1.0 else ops_scale)
      large
      [ fixed (Sim.bin_queue ~range ()); fixed (Sim.skipqueue ()) ]
  in
  let dense = range_series ~range:256 ~ops_scale:1.0 in
  let sparse = range_series ~range:65_536 ~ops_scale:0.2 in
  let top = top_procs options in
  figure ~id:"ablation-bounded-range"
    ~title:"bounded-range bin queue [39] vs SkipQueue (1000 initial, 7000 ops)"
    [
      section "Dense priorities (range 256 — the bin queue's home turf)\n" dense;
      section "Sparse priorities (range 65536 — the general case)\n" sparse;
    ]
    [
      ratio_indicator dense ~slow:"SkipQueue" ~fast:"BinQueue(256)" ~procs:top del
        (Printf.sprintf "SkipQueue/BinQueue deletion @%d, dense range" top);
      ratio_indicator sparse ~slow:"BinQueue(65536)" ~fast:"SkipQueue" ~procs:top del
        (Printf.sprintf "BinQueue/SkipQueue deletion @%d, sparse range" top);
    ]

(* Which ingredient of the memory model produces which phenomenon: rerun a
   contended workload with individual cost mechanisms switched off. *)
let ablation_memory_model options =
  let module MM = Repro_sim.Memory_model in
  let configs =
    [
      ("full model", MM.default);
      ("no line queueing", { MM.default with MM.occupancy = 0; swap_extra = 0 });
      ("no node bandwidth", { MM.default with MM.node_occupancy = 0 });
      ("flat memory", MM.sequential);
    ]
  in
  let procs = Int.min 64 (top_procs options) in
  let impls = [ Sim.hunt_heap (); Sim.skipqueue () ] in
  let w = workload options small ~procs in
  let cell = Table.float_cell ~decimals:0 in
  let measurements =
    Jobs.map ~jobs:options.jobs
      (fun (cname, config) ->
        ( cname,
          List.map
            (fun impl ->
              options.progress
                (Printf.sprintf "memory-model ablation: %s under %s"
                   impl.Queue_adapter.name cname);
              (impl.Queue_adapter.name, Benchmark.run ~config impl w))
            impls ))
      configs
  in
  let rows =
    List.map
      (fun (cname, ms) ->
        let heap = List.assoc "Heap" ms and sq = List.assoc "SkipQueue" ms in
        [ cname; cell (del heap); cell (ins heap); cell (del sq); cell (ins sq) ])
      measurements
  in
  let body =
    Printf.sprintf
      "Heap and SkipQueue at %d processors (fig3 workload) under reduced memory models\n"
      procs
    ^ Table.render
        ~align:[ Table.Left; Right; Right; Right; Right ]
        ~header:[ "model"; "heap del"; "heap ins"; "sq del"; "sq ins" ]
        rows
  in
  let get cname impl_name =
    List.assoc impl_name (List.assoc cname measurements)
  in
  {
    id = "ablation-memory-model";
    title = "which cost-model ingredient produces which phenomenon";
    body;
    data = [];
    indicators =
      [
        ( "heap deletion: full / no-line-queueing (hot-spot share)",
          del (get "full model" "Heap") /. del (get "no line queueing" "Heap") );
        ( "skipqueue deletion: full / no-node-bandwidth (bandwidth share)",
          del (get "full model" "SkipQueue")
          /. del (get "no node bandwidth" "SkipQueue") );
        ( "heap/skipqueue deletion ratio surviving a flat memory",
          del (get "flat memory" "Heap") /. del (get "flat memory" "SkipQueue") );
      ];
  }

(* A9: the elimination–combining front end (Calciu, Mendes & Herlihy, 25
   years on from §5) grafted onto the SkipQueue.  Latency sweeps on the
   fig7/fig8 workloads, plus the traced head probe showing the
   head-of-list queueing drop: only combiners hunt the bottom level,
   waiters spin on their private rendezvous cells. *)
let ablation_elimination options =
  let fig7_series =
    sweep options large
      (List.map fixed
         [
           Sim.skipqueue ();
           Sim.(elim skipqueue_base);
           Sim.(plain (relaxed skipqueue_base));
           Sim.(elim (relaxed skipqueue_base));
         ])
  in
  let fig8_series =
    sweep options deletions
      (List.map fixed [ Sim.skipqueue (); Sim.(elim skipqueue_base) ])
  in
  let top = top_procs options and probe_procs = probe_procs options in
  let probes, probe_text =
    head_probes options ~workload:"fig7" ~key_range:(1 lsl 20)
      [ Sim.skipqueue (); Sim.(elim skipqueue_base) ]
  in
  let front = (at fig7_series "SkipQueue-elim" top).Benchmark.queue_stats in
  let rendezvous_share =
    let answered =
      stat front "eliminated" +. stat front "served" +. stat front "handoff_empties"
    in
    let deletes = answered +. stat front "timeouts" +. stat front "collisions" in
    if deletes = 0.0 then 0.0 else answered /. deletes
  in
  figure ~id:"ablation-elimination"
    ~title:"elimination-combining front end vs plain SkipQueue (fig7/fig8 workloads)"
    ~after:
      (probe_text
      ^ Printf.sprintf "\nfront-end counters @%d procs (fig7): %s\n" top
          (stats_line front))
    [
      section (titled "fig7 workload (1000 initial, 7000 ops, 50% inserts)") fig7_series;
      section (titled "fig8 workload (27000 initial, 60000 ops, 30% inserts)")
        fig8_series;
    ]
    [
      ratio_indicator fig7_series ~slow:"SkipQueue" ~fast:"SkipQueue-elim"
        ~procs:probe_procs del
        (Printf.sprintf "plain/elim deletion latency @%d, fig7 (want > 1)" probe_procs);
      ratio_indicator fig7_series ~slow:"SkipQueue" ~fast:"SkipQueue-elim" ~procs:top del
        (Printf.sprintf "plain/elim deletion latency @%d, fig7" top);
      ratio_indicator fig7_series ~slow:"Relaxed SkipQueue" ~fast:"Relaxed SkipQueue-elim"
        ~procs:top del
        (Printf.sprintf "relaxed plain/elim deletion latency @%d, fig7" top);
      ratio_indicator fig8_series ~slow:"SkipQueue" ~fast:"SkipQueue-elim" ~procs:top del
        (Printf.sprintf "plain/elim deletion latency @%d, fig8" top);
      ( Printf.sprintf "plain/elim hottest-line queued cycles @%d procs" probe_procs,
        hottest_ratio probes ~slow:"SkipQueue" ~fast:"SkipQueue-elim" );
      ( Printf.sprintf "rendezvous share of deletes @%d (eliminated+served)" top,
        rendezvous_share );
    ]

(* A13: the lock-free SkipQueue (CAS-marked deletion, batched physical
   unlink) against the locked original and the elimination front end, on
   the fig7 and fig5/fig8 workloads, plus the traced head probe: claims
   touch one bottom link each, so the queued cycles on the head line
   should sit well below the locked hunt's. *)
let ablation_lockfree options =
  let impls = [ Sim.skipqueue (); Sim.(elim skipqueue_base); Sim.skipqueue_lf () ] in
  let fig7_series = sweep options large (List.map fixed impls) in
  let fig58_series = sweep options deletions (List.map fixed impls) in
  let top = top_procs options and probe_procs = probe_procs options in
  let probes, probe_text =
    head_probes options ~workload:"fig7" ~key_range:(1 lsl 20) impls
  in
  let lf = (at fig7_series "SkipQueue-lf" top).Benchmark.queue_stats in
  figure ~id:"ablation-lockfree"
    ~title:"lock-free SkipQueue vs locked and elimination (fig7, fig5/fig8 workloads)"
    ~after:
      (probe_text
      ^ Printf.sprintf "\nlock-free counters @%d procs (fig7): %s\n" top (stats_line lf))
    [
      section (titled "fig7 workload (1000 initial, 7000 ops, 50% inserts)") fig7_series;
      section (titled "fig5/fig8 workload (27000 initial, 60000 ops, 30% inserts)")
        fig58_series;
    ]
    [
      ratio_indicator fig7_series ~slow:"SkipQueue" ~fast:"SkipQueue-lf"
        ~procs:probe_procs del
        (Printf.sprintf "locked/lock-free deletion latency @%d, fig7 (want > 1)"
           probe_procs);
      ratio_indicator fig7_series ~slow:"SkipQueue-elim" ~fast:"SkipQueue-lf"
        ~procs:probe_procs del
        (Printf.sprintf "elim/lock-free deletion latency @%d, fig7 (want >= 1)"
           probe_procs);
      ratio_indicator fig7_series ~slow:"SkipQueue" ~fast:"SkipQueue-lf" ~procs:top ins
        (Printf.sprintf "locked/lock-free insertion latency @%d, fig7" top);
      ratio_indicator fig58_series ~slow:"SkipQueue" ~fast:"SkipQueue-lf" ~procs:top del
        (Printf.sprintf "locked/lock-free deletion latency @%d, fig5/fig8" top);
      ( Printf.sprintf "locked/lock-free hottest-line queued cycles @%d procs"
          probe_procs,
        hottest_ratio probes ~slow:"SkipQueue" ~fast:"SkipQueue-lf" );
      ( Printf.sprintf "mean marked nodes hopped per op @%d (batching pressure)" top,
        stat lf "marked_hops" /. Float.max 1.0 (stat lf "ops") );
      ( Printf.sprintf "CAS failures per op @%d (retry pressure)" top,
        stat lf "cas_failures" /. Float.max 1.0 (stat lf "ops") );
    ]

(* ------------------------------------------------------------------ *)

(* Flagship blocking scenario: an earliest-deadline-first task scheduler
   for a site with millions of users, built on the bounded/blocking façade.
   Front-end processors (producers) accept jobs in bursts — each job
   belongs to a user drawn from a 2,000,000-id space and carries a deadline
   [now + slack] — and push them through [insert_wait] into a
   capacity-bounded priority queue keyed by deadline (EDF order).  Worker
   processors (consumers) loop on [delete_min_wait] and spend simulated
   service time per job.  Producers outnumber workers 2:1 and bursts
   outpace service, so the façade's two condition variables both engage:
   workers park on empty lulls, producers park on the capacity bound
   (backpressure) — the throttling that keeps a scheduler's backlog, and
   its deadline misses, bounded.

   Deadline keys are made unique (deadline in the high bits, a job counter
   in the low 20) so the SkipQueue's update-in-place on duplicate keys
   cannot merge two jobs; EDF order is preserved, ties break by arrival. *)
let scheduler options =
  let user_space = 2_000_000 in
  let jobs_total = scaled options 6_000 in
  if jobs_total > 1 lsl 20 then invalid_arg "scheduler: more jobs than tag bits";
  (* Small enough that the burst surplus hits the bound early — producers
     outproduce 2-3x at every sweep point, so backpressure is what holds
     the backlog (and the sojourn times) down. *)
  let capacity = 64 in
  (* Each backend behind the façade, built per point as in [sweep]. *)
  let backends =
    [
      ("bounded:SkipQueue", fun _ -> Sim.skipqueue ());
      ("bounded:Relaxed SkipQueue", fun _ -> Sim.(plain (relaxed skipqueue_base)));
      ("bounded:SkipQueue-lf", fun _ -> Sim.skipqueue_lf ());
      ("bounded:MultiQueue", fun procs -> Sim.multiqueue ~procs ());
    ]
  in
  let top = top_procs options in
  (* 2 producers per consumer, plus root and a post-quiescence stats
     reader, against the simulator's 512-processor table. *)
  let consumer_counts =
    List.filter (fun c -> c <= top && (3 * c) + 2 <= 512) (proc_counts options)
  in
  let run_point ~mk ~consumers =
    let producers = 2 * consumers in
    let insert_t = Array.make jobs_total 0 in
    let deadline = Array.make jobs_total 0 in
    let pop_t = Array.make jobs_total (-1) in
    let user = Array.make jobs_total 0 in
    let front_stats = ref [] in
    let split total parts p = (total / parts) + (if p < total mod parts then 1 else 0) in
    let offset total parts p = (p * (total / parts)) + Int.min p (total mod parts) in
    let (_ : Repro_sim.Machine.report) =
      Repro_sim.Machine.run (fun () ->
          let impl = Sim.bounded ~capacity (mk (producers + consumers)) in
          let q = impl.Queue_adapter.create () in
          for p = 0 to producers - 1 do
            let base = offset jobs_total producers p in
            let count = split jobs_total producers p in
            Repro_sim.Machine.spawn (fun () ->
                let rng =
                  Repro_util.Rng.of_seed
                    (Int64.logxor 0x5EED5EEDL (Int64.of_int (p + 1)))
                in
                for i = 0 to count - 1 do
                  let j = base + i in
                  let now = Repro_sim.Machine.probe_time () in
                  let slack = 2_000 + Repro_util.Rng.int rng 30_000 in
                  user.(j) <- Repro_util.Rng.int rng user_space;
                  insert_t.(j) <- now;
                  deadline.(j) <- now + slack;
                  q.Queue_adapter.insert_wait (((now + slack) lsl 20) lor j) j;
                  (* bursts of 8 arrivals, then a lull *)
                  if (i + 1) mod 8 = 0 then
                    Repro_sim.Machine.work (1_000 + Repro_util.Rng.int rng 2_000)
                  else Repro_sim.Machine.work (1 + Repro_util.Rng.int rng 32)
                done)
          done;
          for c = 0 to consumers - 1 do
            let quota = split jobs_total consumers c in
            Repro_sim.Machine.spawn (fun () ->
                let rng =
                  Repro_util.Rng.of_seed
                    (Int64.logxor 0xC0FFEEL (Int64.of_int (c + 1)))
                in
                for _ = 1 to quota do
                  let _k, j = q.Queue_adapter.delete_min_wait () in
                  pop_t.(j) <- Repro_sim.Machine.probe_time ();
                  (* service cost: the deliberate bottleneck *)
                  Repro_sim.Machine.work (150 + Repro_util.Rng.int rng 150)
                done)
          done;
          (* façade counters read after quiescence (probing the runtime's
             lock statistics requires the simulation context) *)
          Repro_sim.Machine.spawn (fun () ->
              Repro_sim.Machine.work (1 lsl 50);
              front_stats := q.Queue_adapter.stats ()))
    in
    let lat = Stats.create () in
    let missed = ref 0 and users = Hashtbl.create (2 * jobs_total) in
    let finish = ref 0 in
    for j = 0 to jobs_total - 1 do
      assert (pop_t.(j) >= 0);
      Stats.add lat (float_of_int (pop_t.(j) - insert_t.(j)));
      if pop_t.(j) > deadline.(j) then incr missed;
      if pop_t.(j) > !finish then finish := pop_t.(j);
      Hashtbl.replace users user.(j) ()
    done;
    ( consumers,
      object
        method latency = Stats.mean lat
        method miss_rate = 100.0 *. float_of_int !missed /. float_of_int jobs_total
        method distinct_users = Hashtbl.length users
        method parks = stat !front_stats "parks"
        method stalls = stat !front_stats "backpressure_stalls"
        method wakes = stat !front_stats "wakes"
        method makespan = !finish (* last pop, ignoring the stats reader *)
      end )
  in
  let series =
    List.map
      (fun (name, mk) ->
        let points =
          Jobs.map ~jobs:options.jobs
            (fun consumers ->
              options.progress
                (Printf.sprintf "scheduler: %s @ %d workers / %d frontends" name consumers
                   (2 * consumers));
              run_point ~mk ~consumers)
            consumer_counts
        in
        (name, points))
      backends
  in
  let table (name, points) =
    let header =
      [ "workers"; "frontends"; "sojourn"; "miss%"; "parks"; "stalls"; "makespan" ]
    in
    let rows =
      List.map
        (fun (c, m) ->
          [
            string_of_int c;
            string_of_int (2 * c);
            Table.float_cell ~decimals:0 m#latency;
            Table.float_cell ~decimals:2 m#miss_rate;
            Table.float_cell ~decimals:0 m#parks;
            Table.float_cell ~decimals:0 m#stalls;
            string_of_int m#makespan;
          ])
        points
    in
    titled name ^ Table.render ~header rows
  in
  let last (_, points) = snd (List.nth points (List.length points - 1)) in
  let first_series = List.hd series in
  let body =
    Printf.sprintf
      "EDF job scheduler through the bounded/blocking façade (capacity %d):\n\
       %d jobs per point from a %d-user id space (%d distinct users at the\n\
       last point), 2 front-end producers per worker, bursty arrivals,\n\
       deadline = arrival + slack.  sojourn = mean insert->pop cycles;\n\
       miss%% = jobs popped past their deadline; parks = worker waits on\n\
       empty; stalls = producer backpressure parks.\n\n"
      capacity jobs_total user_space (last first_series)#distinct_users
    ^ String.concat "\n" (List.map table series)
  in
  let top_consumers = List.nth consumer_counts (List.length consumer_counts - 1) in
  {
    id = "scheduler";
    title = "millions-of-users EDF task scheduler on the bounded/blocking façade";
    body;
    data =
      List.map
        (fun (name, points) ->
          ( name,
            List.map (fun (c, m) -> (float_of_int c, m#latency, m#miss_rate)) points ))
        series;
    indicators =
      List.concat_map
        (fun (name, _ as s) ->
          let m = last s in
          [
            (Printf.sprintf "%s miss rate %% @ %d workers" name top_consumers, m#miss_rate);
            ( Printf.sprintf "%s backpressure stalls @ %d workers" name top_consumers,
              m#stalls );
          ])
        series;
  }

(* ------------------------------------------------------------------ *)

(* A14: the three-way relaxed shoot-out.  The paper's Relaxed SkipQueue
   (timestamp-skipping), the MultiQueue (c-way choice over try-locked
   shards) and the k-LSM at k = 256 (log-structured merge with
   per-processor insertion buffers) on the fig6/fig7/fig8 workloads plus
   a duplicate-heavy one (keys drawn from a 256-value range, so every
   structure sees long runs of equal priorities).  Latency tables and the
   host-side rank-error oracle side by side: the three relaxations sit at
   very different points of the speed/quality plane, and the k-LSM's
   flush/merge counters say where its insertion-buffer amortization
   pays. *)
let klsm_shootout options =
  let top = top_procs options in
  let workloads =
    List.map
      (fun (tag, title, mix, key_range) ->
        ( tag,
          sweep options ~key_range mix
            [
              fixed Sim.(plain (relaxed skipqueue_base));
              ("MultiQueue", fun procs -> Sim.multiqueue ~procs ());
              ("klsm:256", fun procs -> Sim.klsm ~k:256 ~procs ());
            ],
          title ))
      [
        ( "fig6 small",
          "fig6 workload: small structure (50 initial, 7000 ops, 50% inserts)",
          small,
          1 lsl 20 );
        ( "fig7 large",
          "fig7 workload: large structure (1000 initial, 7000 ops, 50% inserts)",
          large,
          1 lsl 20 );
        ( "fig8 70% deletions",
          "fig8 workload: 70% deletions (27000 initial, 60000 ops, 30% inserts)",
          deletions,
          1 lsl 20 );
        ( "duplicate-heavy",
          "duplicate-heavy: fig7 sizes, keys from a 256-value range",
          large,
          256 );
      ]
  in
  let klsm series = (at series "klsm:256" top).Benchmark.queue_stats in
  let _, fig7, _ = List.nth workloads 1 in
  figure ~id:"klsm-shootout"
    ~title:"three-way relaxed shoot-out: Relaxed SkipQueue vs MultiQueue vs k-LSM"
    (List.map
       (fun (tag, series, title) ->
         section ~tag
           ~extra:
             ("\n" ^ rank_table ~series
             ^ Printf.sprintf "k-LSM counters @%d procs: %s\n" top
                 (stats_line (klsm series)))
           (titled title) series)
       workloads)
    (List.concat_map
       (fun (tag, series, _) ->
         [
           ratio_indicator series ~slow:"Relaxed SkipQueue" ~fast:"klsm:256" ~procs:top
             del
             (Printf.sprintf "relaxed/klsm deletion latency @%d, %s" top tag);
           ratio_indicator series ~slow:"MultiQueue" ~fast:"klsm:256" ~procs:top del
             (Printf.sprintf "multiqueue/klsm deletion latency @%d, %s" top tag);
           ( Printf.sprintf "klsm mean rank error @%d, %s (bound 256)" top tag,
             rank_of (at series "klsm:256" top) );
           ( Printf.sprintf "multiqueue mean rank error @%d, %s" top tag,
             rank_of (at series "MultiQueue" top) );
         ])
       workloads
    @ [
        ( Printf.sprintf "klsm buffer flushes per insert @%d, fig7" top,
          stat (klsm fig7) "flushes" /. Float.max 1.0 (stat (klsm fig7) "ops") );
        ( Printf.sprintf "klsm spy sweeps @%d, fig7 (emptiness fallbacks)" top,
          stat (klsm fig7) "spy_sweeps" );
      ])

(* A15: the coalescing SkipQueue (DESIGN.md §S21) on duplicate-heavy
   workloads.  Keys are drawn from a narrow range, so most inserts hit a
   live equal-key node and coalesce into its slab instead of allocating
   and linking; delete-min then drains a node's count before paying one
   physical unlink.  Three key ranges act as the duplicate-ratio axis
   (64: ~every insert coalesces; 256: the klsm-shootout's duplicate
   workload; 4096: mild duplication), each swept across the processor
   axis over the locked original, the coalescing variant, the coalescing
   variant behind the elimination front end, and the lock-free queue.
   Caveat on like-for-like: the plain SkipQueue carries the PR 1 dedup
   contract (a duplicate insert updates in place), the other three keep
   multiset semantics — exactly the semantic gap the coalescing node
   closes without giving up distinct instances.  The traced head probe
   reruns the 256-range workload and compares where the queued cycles
   land: coalesced joins touch one packed word mid-list instead of
   walking locked level pointers at the head, so the coalescing queue's
   hottest line should sit below the locked hunt's. *)
let duplicate_heavy options =
  let impls =
    [
      Sim.skipqueue ();
      Sim.(plain co_base);
      Sim.elim_skipqueue_co ();
      Sim.skipqueue_lf ();
    ]
  in
  let range_series =
    List.map
      (fun key_range ->
        (key_range, sweep options ~key_range large (List.map fixed impls)))
      [ 64; 256; 4096 ]
  in
  let top = top_procs options and probe_procs = probe_procs options in
  let probes, probe_text =
    head_probes options ~workload:"256-range" ~key_range:256 impls
  in
  let co series = (at series "SkipQueue-co" top).Benchmark.queue_stats in
  let series_256 = List.assoc 256 range_series in
  figure ~id:"duplicate-heavy"
    ~title:"coalescing SkipQueue on duplicate-heavy workloads (key range x processors)"
    ~after:probe_text
    (List.map
       (fun (key_range, series) ->
         section
           ~tag:(Printf.sprintf "range%d" key_range)
           ~extra:
             (Printf.sprintf "coalescing counters @%d procs: %s\n" top
                (stats_line (co series)))
           (titled
              (Printf.sprintf "key range %d (1000 initial, 7000 ops, 50%% inserts)"
                 key_range))
           series)
       range_series)
    (List.concat_map
       (fun (key_range, series) ->
         [
           ratio_indicator series ~slow:"SkipQueue" ~fast:"SkipQueue-co"
             ~procs:probe_procs del
             (Printf.sprintf "plain/co deletion latency @%d, range %d (want > 1)"
                probe_procs key_range);
           ratio_indicator series ~slow:"SkipQueue" ~fast:"SkipQueue-co" ~procs:top ins
             (Printf.sprintf "plain/co insertion latency @%d, range %d" top key_range);
         ])
       range_series
    @ [
        ratio_indicator series_256 ~slow:"SkipQueue-co" ~fast:"SkipQueue-co-elim"
          ~procs:probe_procs del
          (Printf.sprintf "co/co-elim deletion latency @%d, range 256" probe_procs);
        ( Printf.sprintf "plain/co hottest-line queued cycles @%d procs" probe_procs,
          hottest_ratio probes ~slow:"SkipQueue" ~fast:"SkipQueue-co" );
        (* At a 50/50 mix, hunt passes ~ inserts, so this approximates the
           share of inserts absorbed into an existing node's slab. *)
        ( Printf.sprintf "coalesced inserts per insert @%d, range 256" top,
          stat (co series_256) "coalesced_inserts"
          /. Float.max 1.0 (stat (co series_256) "hunt_passes") );
        ( Printf.sprintf "capacity-full node splits @%d, range 256" top,
          stat (co series_256) "node_splits" );
      ])

let all =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("multiqueue", multiqueue);
    ("ablation-funnel-front", ablation_funnel_front);
    ("ablation-skiplist-params", ablation_skiplist_params);
    ("ablation-timestamp", ablation_timestamp);
    ("ablation-reclamation", ablation_reclamation);
    ("ablation-bounded-range", ablation_bounded_range);
    ("ablation-memory-model", ablation_memory_model);
    ("ablation-elimination", ablation_elimination);
    ("ablation-lockfree", ablation_lockfree);
    ("scheduler", scheduler);
    ("klsm-shootout", klsm_shootout);
    ("duplicate-heavy", duplicate_heavy);
  ]
