(* Claim benchmark: simulated cycles per operation and host cost of
   the simulator on three fixed workloads (see README.md in this
   directory for every metric's unit, direction and meaning).

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Every virtual processor is a closed-loop client (paper §5): 100
   simulated cycles of local work, then one queue operation.  The program
   below performs exactly the simulated operations [Benchmark.run] performs,
   with the same RNG stream layout, so equal workload records give the
   same simulated execution the figures run; the determinism guard at the
   end of [--trace 1] checks that against [Benchmark.run] itself.

   The measured window opens when the root spawns the workers and closes
   when the last worker exits: create, prefill and the post-mortem drain
   fall outside it.  [--trace 0] repeats untraced runs for [--seconds]
   after one warm-up run and prints the end-to-end metrics (host figures
   over the repetitions, at the reference speed defined below);
   [--trace 1] adds one traced run, one run with the
   scheduler fast path off and one prefill-only run, and prints the
   per-layer metrics.  The last line of standard output is one JSON
   object; the exit code is non-zero when the output-correctness gate or a
   determinism guard fails. *)

module Machine = Repro_sim.Machine
module Trace = Repro_sim.Trace
module Stats = Repro_util.Stats
module Rng = Repro_util.Rng
module Benchmark = Repro_workload.Benchmark
module QA = Repro_workload.Queue_adapter

(* ---- workloads ----------------------------------------------------------- *)

(* Which structure-layer counters a workload's backend reports; the
   per-layer metrics of a layer that does not run read 0. *)
type layers = Skipqueue | Heap | Co_elim

type workload = {
  name : string;
  impl : QA.impl;
  layers : layers;
  shape : Benchmark.workload;
}

let default_seed = 42
let held_out_seed = 20_001

let shape ~procs ~initial ~ops ~insert_ratio ~key_range seed =
  {
    Benchmark.procs;
    initial_size = initial;
    total_ops = ops;
    insert_ratio;
    work_cycles = 100;
    key_range;
    seed;
  }

(* Operation counts give each kind more than 10k samples, so p99 has at
   least a hundred beyond it.  The heap workload keeps prefill/ops >= 0.45
   so 70% deletions never drain the queue, and sizes the heap the way
   [Figures] does (prefill + ops + 100). *)
let workloads seed =
  [
    {
      name = "fig7-skipqueue-32p";
      impl = QA.Sim.skipqueue ();
      layers = Skipqueue;
      shape =
        shape ~procs:32 ~initial:1000 ~ops:24_000 ~insert_ratio:0.5
          ~key_range:(1 lsl 20) seed;
    };
    {
      name = "fig5-heap-64p";
      impl = QA.Sim.hunt_heap ~capacity:(27_000 + 36_000 + 100) ();
      layers = Heap;
      shape =
        shape ~procs:64 ~initial:27_000 ~ops:36_000 ~insert_ratio:0.3
          ~key_range:(1 lsl 20) seed;
    };
    {
      name = "dups-co-elim-64p";
      impl = QA.Sim.elim_skipqueue_co ();
      layers = Co_elim;
      shape =
        shape ~procs:64 ~initial:1000 ~ops:24_000 ~insert_ratio:0.5
          ~key_range:256 seed;
    };
  ]

(* ---- host-side rank oracle ------------------------------------------------ *)

(* The same multiset oracle [Benchmark.run] keeps (a Fenwick tree over the
   key range, updated at operation completion, debts for deletes that
   complete before their insert, update-in-place for [dedups] backends),
   so [rank_error_mean] equals the figures' rank error.  One tree per
   process, returned to zero between runs. *)
module Oracle = struct
  type t = {
    tree : int array;
    counts : (int, int) Hashtbl.t;
    debts : (int, int) Hashtbl.t;
    range : int;
  }

  let create ~range =
    {
      tree = Array.make (range + 1) 0;
      counts = Hashtbl.create 1024;
      debts = Hashtbl.create 64;
      range;
    }

  let add t k delta =
    let i = ref (k + 1) in
    while !i <= t.range do
      t.tree.(!i) <- t.tree.(!i) + delta;
      i := !i + (!i land - !i)
    done

  let count_less t k =
    let s = ref 0 in
    let i = ref (Int.min k t.range) in
    while !i > 0 do
      s := !s + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !s

  let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)
  let set tbl k v = if v = 0 then Hashtbl.remove tbl k else Hashtbl.replace tbl k v

  let insert ~dedup t k =
    let d = get t.debts k in
    if d > 0 then set t.debts k (d - 1)
    else if not (dedup && get t.counts k > 0) then begin
      set t.counts k (get t.counts k + 1);
      add t k 1
    end

  let delete t k =
    let rank = count_less t k in
    let c = get t.counts k in
    if c > 0 then begin
      set t.counts k (c - 1);
      add t k (-1)
    end
    else set t.debts k (get t.debts k + 1);
    rank

  let reset t =
    Hashtbl.iter (fun k c -> add t k (-c)) t.counts;
    Hashtbl.reset t.counts;
    Hashtbl.reset t.debts
end

(* ---- one simulated execution ---------------------------------------------- *)

type variant =
  | Untraced  (** the measured program *)
  | Traced  (** same program under the bench's span sink *)
  | Slow_path
      (** [~fast_path:false], drain skipped: its report minus the
          prefill-only report is exactly the window's scheduler events *)
  | Prefill_only  (** create + prefill, no workers, drain skipped *)

(* Per-operation log, one slot per window operation (slot = the worker's
   offset + its operation index).  The access/wait columns are filled by
   the span sink in traced runs only. *)
type log = {
  is_insert : Bytes.t;
  t0 : int array;
  t1 : int array;
  key : int array;  (** inserted key, or the delivered key (-1 when empty) *)
  value : int array;  (** inserted value, or the delivered value (-1 when empty) *)
  accesses : int array;
  access_cycles : int array;
  queued : int array;
  hits : int array;
  swaps : int array;
  wait_cycles : int array;
  parks : int array;
}

let make_log n =
  let z () = Array.make n 0 in
  {
    is_insert = Bytes.make n '\000';
    t0 = z ();
    t1 = z ();
    key = z ();
    value = z ();
    accesses = z ();
    access_cycles = z ();
    queued = z ();
    hits = z ();
    swaps = z ();
    wait_cycles = z ();
    parks = z ();
  }

(* Window totals of traced events that no operation span covers (none are
   expected: workers touch memory only inside operations). *)
type loose = {
  mutable l_accesses : int;
  mutable l_hits : int;
  mutable l_queued : int;
  mutable l_swaps : int;
}

type run = {
  log : log;
  create_s : float;
  prefill_s : float;
  host_window_s : float;
  minor_words : float;
  window_start : int;
  window_end : int;
  ins_stats : Stats.t;
  del_stats : Stats.t;
  rank_stats : Stats.t;
  empty_deletes : int;
  lock_delta : int * int;  (** (acquisitions, try failures) in the window *)
  stats_start : (string * float) list;
  stats_end : (string * float) list;
  drained : (int * int) list;
  report : Machine.report;
  summary : Trace.Summary.t option;
  loose : loose;
  host_spans : (string * float * float * int * int) list;
      (** (name, host start, host end, sim start, sim end) of the run's
          top-level spans *)
  reference : float;
      (** mean CPU seconds of the reference job timed before and after the
          run; the host fields above are raw CPU seconds *)
}

let drain_start = 1 lsl 55 (* [Benchmark.run]'s post-mortem start *)

let ops_for (w : Benchmark.workload) p =
  (w.total_ops / w.procs) + if p < w.total_ops mod w.procs then 1 else 0

let offsets (w : Benchmark.workload) =
  let o = Array.make (w.procs + 1) 0 in
  for p = 0 to w.procs - 1 do
    o.(p + 1) <- o.(p) + ops_for w p
  done;
  o

(* Element values identify the operation that inserted them. *)
let prefill_base = 1_000_000_000
let proc_stride = 1_000_000
let prefill_value i = prefill_base + i
let worker_value p i = (p * proc_stride) + i

let execute (wl : workload) oracle variant =
  let w = wl.shape in
  let impl = wl.impl in
  let dedup = impl.QA.dedups in
  let offs = offsets w in
  let log = make_log w.total_ops in
  let with_workers = variant <> Prefill_only in
  let with_drain = variant = Untraced || variant = Traced in
  let ins = Array.init w.procs (fun _ -> Stats.create ()) in
  let del = Array.init w.procs (fun _ -> Stats.create ()) in
  let rnk = Array.init w.procs (fun _ -> Stats.create ()) in
  let cur = Array.make (w.procs + 2) (-1) in
  let window_open = ref false in
  let loose = { l_accesses = 0; l_hits = 0; l_queued = 0; l_swaps = 0 } in
  let summary, tracer =
    match variant with
    | Traced ->
      let s = Trace.Summary.create () in
      let forward = Trace.Summary.sink s in
      let sink ev =
        if !window_open then begin
          forward ev;
          let slot proc = if proc < Array.length cur then cur.(proc) else -1 in
          match ev with
          | Trace.Accessed { proc; kind; start; finish; hit; queued; _ } ->
            let swap = kind = Repro_sim.Memory_model.Swap in
            let i = slot proc in
            if i >= 0 then begin
              log.accesses.(i) <- log.accesses.(i) + 1;
              log.access_cycles.(i) <- log.access_cycles.(i) + (finish - start) + queued;
              log.queued.(i) <- log.queued.(i) + queued;
              if hit then log.hits.(i) <- log.hits.(i) + 1;
              if swap then log.swaps.(i) <- log.swaps.(i) + 1
            end
            else begin
              loose.l_accesses <- loose.l_accesses + 1;
              if hit then loose.l_hits <- loose.l_hits + 1;
              loose.l_queued <- loose.l_queued + queued;
              if swap then loose.l_swaps <- loose.l_swaps + 1
            end
          | Trace.Parked { proc; _ } | Trace.Cond_parked { proc; _ } ->
            let i = slot proc in
            if i >= 0 then log.parks.(i) <- log.parks.(i) + 1
          | Trace.Woken { proc; waited; _ } | Trace.Cond_woken { proc; waited; _ } ->
            let i = slot proc in
            if i >= 0 then log.wait_cycles.(i) <- log.wait_cycles.(i) + waited
          | Trace.Spawned _ | Trace.Exited _ | Trace.Acquired _ | Trace.Released _ ->
            ()
        end
      in
      (Some s, Some sink)
    | Untraced | Slow_path | Prefill_only -> (None, None)
  in
  let h_create = ref 0.0 and h_prefill = ref 0.0 and h_start = ref 0.0 in
  let h_end = ref 0.0 and h_drain = ref 0.0 in
  let s_prefill = ref 0 and s_start = ref 0 and s_end = ref 0 and s_drain = ref 0 in
  let minor0 = ref 0.0 and minor1 = ref 0.0 in
  let lock0 = ref (0, 0) and lock1 = ref (0, 0) in
  let stats0 = ref [] and stats1 = ref [] in
  let drained = ref [] in
  let running = ref w.procs in
  let h_run = Sys.time () in
  let report =
    Machine.run ?tracer ~fast_path:(variant <> Slow_path) (fun () ->
        h_create := Sys.time ();
        let q = impl.QA.create () in
        h_prefill := Sys.time ();
        s_prefill := Machine.probe_time ();
        let root_rng = Rng.of_seed w.seed in
        for i = 0 to w.initial_size - 1 do
          let key = Rng.int root_rng w.key_range in
          q.QA.insert key (prefill_value i);
          Oracle.insert ~dedup oracle key
        done;
        h_start := Sys.time ();
        s_start := Machine.probe_time ();
        if with_workers then begin
          minor0 := Gc.minor_words ();
          lock0 := Machine.probe_lock_stats ();
          stats0 := q.QA.stats ();
          window_open := true;
          for p = 0 to w.procs - 1 do
            let rng = Rng.of_seed (Int64.add w.seed (Int64.of_int (0x1234 + p))) in
            Machine.spawn (fun () ->
                let me = Machine.self () in
                for i = 0 to ops_for w p - 1 do
                  let slot = offs.(p) + i in
                  Machine.work w.work_cycles;
                  let t0 = Machine.probe_time () in
                  log.t0.(slot) <- t0;
                  cur.(me) <- slot;
                  if Rng.bernoulli rng w.insert_ratio then begin
                    let key = Rng.int rng w.key_range in
                    let v = worker_value p i in
                    Bytes.set log.is_insert slot '\001';
                    log.key.(slot) <- key;
                    log.value.(slot) <- v;
                    q.QA.insert key v;
                    Oracle.insert ~dedup oracle key;
                    let t1 = Machine.probe_time () in
                    log.t1.(slot) <- t1;
                    Stats.add ins.(p) (float_of_int (t1 - t0))
                  end
                  else begin
                    (match q.QA.try_delete_min () with
                    | None ->
                      log.key.(slot) <- -1;
                      log.value.(slot) <- -1
                    | Some (key, v) ->
                      log.key.(slot) <- key;
                      log.value.(slot) <- v;
                      Stats.add rnk.(p) (float_of_int (Oracle.delete oracle key)));
                    let t1 = Machine.probe_time () in
                    log.t1.(slot) <- t1;
                    Stats.add del.(p) (float_of_int (t1 - t0))
                  end;
                  cur.(me) <- -1
                done;
                decr running;
                if !running = 0 then begin
                  (* The last worker out closes the window.  Workers
                     finish in simulated-time order, so this one carries
                     the latest finish time. *)
                  s_end := Machine.probe_time ();
                  h_end := Sys.time ();
                  minor1 := Gc.minor_words ();
                  lock1 := Machine.probe_lock_stats ();
                  stats1 := q.QA.stats ();
                  window_open := false
                end)
          done
        end;
        Machine.spawn (fun () ->
            Machine.work drain_start;
            if with_drain then begin
              s_drain := Machine.probe_time ();
              h_drain := Sys.time ();
              let rec go acc =
                match q.QA.try_delete_min () with
                | None -> acc
                | Some kv -> go (kv :: acc)
              in
              drained := go []
            end))
  in
  let h_done = Sys.time () in
  let merge arr = Array.fold_left Stats.merge (Stats.create ()) arr in
  let empty = ref 0 in
  for slot = 0 to w.total_ops - 1 do
    if Bytes.get log.is_insert slot = '\000' && log.value.(slot) < 0 then incr empty
  done;
  let a1, f1 = !lock1 and a0, f0 = !lock0 in
  let sim_end = report.Machine.end_time in
  let host_spans =
    [
      ("run", h_run, h_done, 0, sim_end);
      ("setup", !h_create, !h_start, 0, !s_start);
      ("Queue_adapter.create", !h_create, !h_prefill, 0, !s_prefill);
      ("prefill", !h_prefill, !h_start, !s_prefill, !s_start);
      ("window", !h_start, !h_end, !s_start, !s_end);
      ("drain", !h_drain, h_done, !s_drain, sim_end);
    ]
  in
  {
    log;
    create_s = !h_prefill -. !h_create;
    prefill_s = !h_start -. !h_prefill;
    host_window_s = !h_end -. !h_start;
    minor_words = !minor1 -. !minor0;
    window_start = !s_start;
    window_end = !s_end;
    ins_stats = merge ins;
    del_stats = merge del;
    rank_stats = merge rnk;
    empty_deletes = !empty;
    lock_delta = (a1 - a0, f1 - f0);
    stats_start = !stats0;
    stats_end = !stats1;
    drained = !drained;
    report;
    summary;
    loose;
    host_spans;
    reference = Float.nan (* timed by the caller, around the run *);
  }

(* ---- output-correctness gate -------------------------------------------- *)

(* Every delivered value (window delete-mins and the drain) must have been
   inserted with the key it came back with, and be delivered at most once.
   Every inserted value must come back, except that a [dedups] backend
   updates a present key in place: there a value may vanish when another
   value of its key was inserted, but each inserted key must still come
   back at least once.  Returns (operations checked, operations failed):
   the prefill inserts and every window operation are checked. *)
let gate (wl : workload) (r : run) =
  let w = wl.shape in
  let offs = offsets w in
  let n_pre = w.initial_size in
  let n = n_pre + w.total_ops in
  (* value -> checked index: prefill values first, then window slots *)
  let index v =
    if v >= prefill_base then
      let i = v - prefill_base in
      if i < n_pre then i else -1
    else if v >= 0 then
      let p = v / proc_stride and i = v mod proc_stride in
      if p < w.procs && i < ops_for w p then n_pre + offs.(p) + i else -1
    else -1
  in
  let root_rng = Rng.of_seed w.seed in
  let inserted_key = Array.make n (-1) in
  for i = 0 to n_pre - 1 do
    inserted_key.(i) <- Rng.int root_rng w.key_range
  done;
  for slot = 0 to w.total_ops - 1 do
    if Bytes.get r.log.is_insert slot = '\001' then
      inserted_key.(n_pre + slot) <- r.log.key.(slot)
  done;
  let delivered = Array.make n 0 in
  let bad = Array.make n false in
  let phantoms = ref 0 in
  let deliver ~by (k, v) =
    let i = index v in
    if i < 0 || inserted_key.(i) < 0 || inserted_key.(i) <> k then begin
      (match by with Some slot -> bad.(n_pre + slot) <- true | None -> incr phantoms)
    end
    else begin
      delivered.(i) <- delivered.(i) + 1;
      if delivered.(i) > 1 then bad.(i) <- true
    end
  in
  for slot = 0 to w.total_ops - 1 do
    if Bytes.get r.log.is_insert slot = '\000' && r.log.value.(slot) >= 0 then
      deliver ~by:(Some slot) (r.log.key.(slot), r.log.value.(slot))
  done;
  List.iter (deliver ~by:None) r.drained;
  let key_out = Hashtbl.create 1024 in
  let key_in = Hashtbl.create 1024 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        Hashtbl.replace key_in k (1 + Option.value ~default:0 (Hashtbl.find_opt key_in k));
        if delivered.(i) > 0 then Hashtbl.replace key_out k ()
      end)
    inserted_key;
  Array.iteri
    (fun i k ->
      if k >= 0 && delivered.(i) = 0 then begin
        let excused =
          wl.impl.QA.dedups && Hashtbl.find key_in k > 1 && Hashtbl.mem key_out k
        in
        if not excused then bad.(i) <- true
      end)
    inserted_key;
  let failed = Array.fold_left (fun acc b -> if b then acc + 1 else acc) !phantoms bad in
  (n, failed)

(* ---- host speed reference ---------------------------------------------- *)

(* The CPU seconds of one deterministic run swing by up to 1.8x within a
   minute on a shared two-core host: neighbours slow memory-bound code
   down, and CPU time counts the stalls.  Host figures are therefore
   reported at a reference speed.  A fixed job that uses nothing from
   this repository (building and probing a 60,000-entry [Map]: allocation,
   pointer chasing and minor collections, like the simulator's host work)
   is timed before and after every run, and the run's CPU seconds are
   scaled by [reference_s] over the mean of the two times.  A change to
   the simulator moves the host metrics; a change of host speed mostly
   does not. *)
module Int_map = Map.Make (Int)

let reference_s = 0.05

let reference () =
  Gc.compact ();
  let t0 = Sys.time () in
  let x = ref 1 in
  let next () =
    x := ((!x * 1_103_515_245) + 12_345) land 0x3FFF_FFFF;
    !x land 0xF_FFFF
  in
  let m = ref Int_map.empty in
  for i = 1 to 60_000 do
    m := Int_map.add (next ()) i !m
  done;
  let s = ref 0 in
  for _ = 1 to 60_000 do
    match Int_map.find_opt (next ()) !m with Some v -> s := !s + v | None -> ()
  done;
  ignore (Sys.opaque_identity !s);
  Sys.time () -. t0

(* CPU seconds [x] spent in run [r], at the reference speed. *)
let at_reference_speed (r : run) x = x *. reference_s /. r.reference

(* Window CPU seconds of the repetitions at the reference speed: their
   total over the total of their reference times.  One disturbed
   reference reading moves this less than a median of per-run ratios. *)
let window_s reps =
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 reps in
  reference_s *. total (fun r -> r.host_window_s) /. total (fun r -> r.reference)

(* ---- metrics --------------------------------------------------------------- *)

let cycles_of (r : run) ~insert =
  let want = if insert then '\001' else '\000' in
  let acc = ref [] in
  for slot = Array.length r.log.t0 - 1 downto 0 do
    if Bytes.get r.log.is_insert slot = want then
      acc := float_of_int (r.log.t1.(slot) - r.log.t0.(slot)) :: !acc
  done;
  Array.of_list !acc

(* Simulated end-to-end metrics of one run's window: deterministic. *)
let sim_metrics (r : run) =
  let ins = cycles_of r ~insert:true and del = cycles_of r ~insert:false in
  let pct a q = if Array.length a = 0 then 0.0 else Stats.percentile a q in
  let window = r.window_end - r.window_start in
  let ops = Array.length r.log.t0 in
  [
    ("delete_cycles_p50", pct del 0.5, "cycles");
    ("delete_cycles_p99", pct del 0.99, "cycles");
    ("insert_cycles_p50", pct ins 0.5, "cycles");
    ("insert_cycles_p99", pct ins 0.99, "cycles");
    ("sim_ops_per_kcycle", 1000.0 *. float_of_int ops /. float_of_int (Int.max 1 window), "ops/kcycle");
    ( "rank_error_mean",
      (if Stats.count r.rank_stats = 0 then 0.0 else Stats.mean r.rank_stats),
      "elements" );
  ]

(* Everything simulated a run reports about its window, as one string:
   the determinism guards compare these byte for byte. *)
let window_signature (r : run) =
  let b = Buffer.create 4096 in
  List.iter (fun (n, v, _) -> Printf.bprintf b "%s=%h;" n v) (sim_metrics r);
  Printf.bprintf b "window=%d..%d;ins=%d/%h;del=%d/%h;empty=%d;locks=%d/%d;"
    r.window_start r.window_end (Stats.count r.ins_stats) (Stats.total r.ins_stats)
    (Stats.count r.del_stats) (Stats.total r.del_stats) r.empty_deletes
    (fst r.lock_delta) (snd r.lock_delta);
  List.iter (fun (n, v) -> Printf.bprintf b "%s=%h;" n v) r.stats_end;
  Buffer.add_string b (Digest.to_hex (Digest.string (Marshal.to_string (r.log.t0, r.log.t1, r.log.key, r.log.value) [])));
  Buffer.contents b

let report_signature (m : Machine.report) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d" m.end_time m.processors
    m.events m.accesses m.cache_hits m.queued_cycles m.swaps m.lock_acquisitions
    m.lock_contentions m.lock_wait_cycles m.lock_try_failures m.cond_parkings
    m.cond_wait_cycles

let median l = Stats.median (Array.of_list l)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let stat (r : run) name =
  let get l = Option.value ~default:0.0 (List.assoc_opt name l) in
  get r.stats_end -. get r.stats_start

(* Per-layer metrics from the traced run [t], the untraced repetitions
   [reps], the fast-path-off run [slow] and the prefill-only run [pre]. *)
let layer_metrics (wl : workload) ~(t : run) ~(reps : run list) ~(slow : run)
    ~(pre : run) ~traced_host_s =
  let log = t.log in
  let ops = Array.length log.t0 in
  let sum_kind ~insert col =
    let want = if insert then '\001' else '\000' in
    let s = ref 0 in
    Array.iteri (fun i v -> if Bytes.get log.is_insert i = want then s := !s + v) col;
    fi !s
  in
  let sum col = Array.fold_left ( + ) 0 col in
  let n_ins = fi (Stats.count t.ins_stats) and n_del = fi (Stats.count t.del_stats) in
  let accesses = fi (sum log.accesses + t.loose.l_accesses) in
  let queued = fi (sum log.queued + t.loose.l_queued) in
  let host_s = window_s reps in
  let events = fi (slow.report.Machine.events - pre.report.Machine.events) in
  let acq, try_fail = t.lock_delta in
  let summary = Option.get t.summary in
  let lock_waits = List.map (fun (_, _, _, w) -> w) (Trace.Summary.lock_profile summary) in
  let top_line =
    match Trace.Summary.hottest_locations summary ~n:1 with
    | (_, _, q) :: _ -> fi q
    | [] -> 0.0
  in
  let self_mean ~insert =
    let n = if insert then n_ins else n_del in
    ratio
      (sum_kind ~insert log.t1 -. sum_kind ~insert log.t0
      -. sum_kind ~insert log.access_cycles -. sum_kind ~insert log.wait_cycles)
      n
  in
  let claims = n_del -. fi t.empty_deletes in
  let only l v = if wl.layers = l then v else 0.0 in
  let eliminated = stat t "eliminated" and served = stat t "served" in
  let timeouts = stat t "timeouts" and swap_losses = stat t "swap_losses" in
  [
    ("Machine.events_per_op", ratio events (fi ops), "events/op");
    ("Machine.host_ns_per_event", ratio (1e9 *. host_s) events, "ns/event");
    ("Machine.fastpath_saved_s", at_reference_speed slow slow.host_window_s -. host_s, "s");
    ("Machine.lock_acquisitions_per_op", ratio (fi acq) (fi ops), "locks/op");
    ("Machine.lock_contentions_per_op", ratio (fi (sum log.parks)) (fi ops), "parks/op");
    ("Machine.lock_wait_cycles_per_op", ratio (fi (sum log.wait_cycles)) (fi ops), "cycles/op");
    ("Machine.lock_try_success_ratio", ratio (fi acq) (fi (acq + try_fail)), "ratio");
    ( "Machine.top_lock_wait_share",
      ratio (fi (List.fold_left max 0 lock_waits)) (fi (List.fold_left ( + ) 0 lock_waits)),
      "share" );
    ("Memory_model.insert.accesses_per_op", ratio (sum_kind ~insert:true log.accesses) n_ins, "accesses/op");
    ("Memory_model.delete.accesses_per_op", ratio (sum_kind ~insert:false log.accesses) n_del, "accesses/op");
    ("Memory_model.hit_ratio", ratio (fi (sum log.hits + t.loose.l_hits)) accesses, "ratio");
    ("Memory_model.insert.queued_cycles_per_op", ratio (sum_kind ~insert:true log.queued) n_ins, "cycles/op");
    ("Memory_model.delete.queued_cycles_per_op", ratio (sum_kind ~insert:false log.queued) n_del, "cycles/op");
    ("Memory_model.top_line_queued_share", ratio top_line queued, "share");
    ("Memory_model.swaps_per_op", ratio (fi (sum log.swaps + t.loose.l_swaps)) (fi ops), "swaps/op");
    ("Memory_model.host_ns_per_access", ratio (1e9 *. host_s) accesses, "ns/access");
    ("Queue_adapter.create_s", median (List.map (fun r -> at_reference_speed r r.create_s) reps), "s");
    ("Queue_adapter.prefill_s", median (List.map (fun r -> at_reference_speed r r.prefill_s) reps), "s");
    ("Queue_adapter.insert.self_cycles_mean", self_mean ~insert:true, "cycles");
    ("Queue_adapter.delete.self_cycles_mean", self_mean ~insert:false, "cycles");
    ("Queue_adapter.delete.empty_frac", ratio (fi t.empty_deletes) n_del, "frac");
    ("Skipqueue.hunt_steps_per_delete", only Skipqueue (ratio (stat t "hunt_steps") n_del), "steps/op");
    ("Skipqueue.swap_success_ratio", only Skipqueue (ratio claims (claims +. swap_losses)), "ratio");
    ("Skipqueue.hunt_passes_per_delete", only Skipqueue (ratio (stat t "hunt_passes") n_del), "passes/op");
    ("Elimination.eliminated_frac", only Co_elim (ratio eliminated n_del), "frac");
    ("Elimination.served_frac", only Co_elim (ratio served n_del), "frac");
    ( "Elimination.success_ratio",
      only Co_elim (ratio (eliminated +. served) (eliminated +. served +. timeouts)),
      "ratio" );
    ( "Skipqueue_co.claim_success_ratio",
      only Co_elim
        (ratio (claims -. eliminated) (claims -. eliminated +. swap_losses)),
      "ratio" );
    ("gc.minor_words_per_op", ratio (median (List.map (fun r -> r.minor_words) reps)) (fi ops), "words/op");
    ("Trace.overhead_frac", ratio (traced_host_s -. host_s) host_s, "frac");
  ]

(* ---- host fingerprint ------------------------------------------------------ *)

(* CPU seconds of a fixed integer loop: rows measured on hosts (or at
   times) whose calibration differs are not comparable. *)
let calibration_s () =
  let t0 = Sys.time () in
  let x = ref 1 in
  for i = 1 to 30_000_000 do
    x := ((!x * 1_103_515_245) + i) land 0xFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  Sys.time () -. t0

let fingerprint () =
  Printf.sprintf "ocaml=%s nproc=%d calibration_s=%.6f word_bits=%d" Sys.ocaml_version
    (Domain.recommended_domain_count ())
    (calibration_s ()) Sys.word_size

(* ---- output ---------------------------------------------------------------- *)

let out_dir = Filename.concat "claimbench" "out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let json_number v = Printf.sprintf "%.17g" v

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
       metrics)

(* Spans of the traced run: the top-level phases with host CPU and
   simulated bounds, then one span per window operation, children of
   [window]. *)
let write_spans (wl : workload) ~seed ~fp (t : run) =
  ensure_out_dir ();
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.spans.csv" wl.name seed) in
  let oc = open_out path in
  Printf.fprintf oc "# %s seed=%d %s\n" wl.name seed fp;
  output_string oc
    "id,parent,name,proc,sim_start,sim_end,host_start_s,host_end_s,outcome,accesses,access_cycles,queued_cycles,wait_cycles,parks\n";
  let parent = function
    | "run" -> -1
    | "Queue_adapter.create" | "prefill" -> 1
    | _ -> 0
  in
  List.iteri
    (fun id (name, h0, h1, s0, s1) ->
      Printf.fprintf oc "%d,%d,%s,0,%d,%d,%.6f,%.6f,,,,,,\n" id (parent name) name s0 s1 h0 h1)
    t.host_spans;
  let window_id = 4 and base = List.length t.host_spans in
  let w = wl.shape in
  let offs = offsets w in
  let log = t.log in
  for p = 0 to w.procs - 1 do
    for slot = offs.(p) to offs.(p + 1) - 1 do
      let insert = Bytes.get log.is_insert slot = '\001' in
      let outcome =
        if insert then Printf.sprintf "inserted:%d" log.key.(slot)
        else if log.value.(slot) < 0 then "empty"
        else Printf.sprintf "deleted:%d" log.key.(slot)
      in
      Printf.fprintf oc "%d,%d,%s,%d,%d,%d,,,%s,%d,%d,%d,%d,%d\n" (base + slot) window_id
        (if insert then "insert" else "delete_min")
        (p + 1) log.t0.(slot) log.t1.(slot) outcome log.accesses.(slot)
        log.access_cycles.(slot) log.queued.(slot) log.wait_cycles.(slot) log.parks.(slot)
    done
  done;
  close_out oc

let append_ledger line =
  ensure_out_dir ();
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat out_dir "runs.jsonl") in
  output_string oc (line ^ "\n");
  close_out oc

(* ---- main ------------------------------------------------------------------ *)

let usage names =
  Printf.eprintf
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\nworkloads: %s\n"
    (String.concat ", " names);
  exit 2

let () =
  let names = List.map (fun wl -> wl.name) (workloads 0L) in
  let workload = ref "" and seed = ref default_seed and seconds = ref 25.0 in
  let trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | _ -> usage names
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage names);
  if !trace <> 0 && !trace <> 1 then usage names;
  let wl =
    match List.find_opt (fun wl -> wl.name = !workload) (workloads (Int64.of_int !seed)) with
    | Some wl -> wl
    | None -> usage names
  in
  let fp = fingerprint () in
  Printf.printf "workload %s seed %d trace %d (default seed %d, held-out seed %d)\n" wl.name
    !seed !trace default_seed held_out_seed;
  Printf.printf "host %s\n%!" fp;
  let oracle = Oracle.create ~range:wl.shape.Benchmark.key_range in
  let attempted = ref 0 and failed = ref 0 in
  let guard_failures = ref [] in
  let guard name ok = if not ok then guard_failures := name :: !guard_failures in
  let references = ref [] and last_reference = ref (reference ()) in
  let run variant =
    (* Every run starts from a collected heap, so one run's garbage is
       not collected on the next one's clock. *)
    Gc.compact ();
    let r = execute wl oracle variant in
    Oracle.reset oracle;
    if variant = Untraced || variant = Traced then begin
      let n, f = gate wl r in
      attempted := !attempted + n;
      failed := !failed + f
    end;
    let after = reference () in
    let before = !last_reference in
    last_reference := after;
    references := after :: !references;
    { r with reference = (before +. after) /. 2.0 }
  in
  let setup_of r = at_reference_speed r (r.create_s +. r.prefill_s) in
  (* The first run warms the code, the caches and the heap, and is left
     out of the host figures: the first reference job and the first run
     read slow.  The peak heap is read after it: later runs would only
     report how far the heap has grown over the process's history.  Then
     untraced repetitions for the requested time, at least three, each
     followed by a prefill-only run: set-up is short next to the window
     on two workloads, so it gets samples of its own. *)
  let deadline = Unix.gettimeofday () +. !seconds in
  let first = run Untraced in
  let peak_mb =
    fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let rec more_reps reps setups =
    let r = run Untraced in
    let reps = r :: reps in
    let setups = setup_of (run Prefill_only) :: setup_of r :: setups in
    if List.length reps >= 3 && Unix.gettimeofday () >= deadline then (List.rev reps, setups)
    else more_reps reps setups
  in
  let reps, setups = more_reps [] [] in
  let first_sig = window_signature first and first_report = report_signature first.report in
  List.iter
    (fun r ->
      guard "two runs with one seed differ"
        (window_signature r = first_sig && report_signature r.report = first_report))
    reps;
  let sims = sim_metrics first in
  let metrics =
    if !trace = 0 then
      sims
      @ [
          ("host_s", window_s reps, "s");
          ("setup_s", median setups, "s");
          ("host_mem_peak_mb", peak_mb, "MB");
        ]
    else begin
      let t = run Traced in
      let slow = run Slow_path in
      let pre = run Prefill_only in
      guard "traced run differs from untraced"
        (window_signature t = first_sig && report_signature t.report = first_report);
      guard "fast_path:false run differs from untraced" (window_signature slow = first_sig);
      let m = Benchmark.run wl.impl wl.shape in
      guard "mean cycles differ from Benchmark.run"
        (Stats.mean m.Benchmark.insert_latency = Stats.mean first.ins_stats
        && Stats.mean m.Benchmark.delete_latency = Stats.mean first.del_stats
        && Stats.count m.Benchmark.insert_latency = Stats.count first.ins_stats
        && Stats.count m.Benchmark.delete_latency = Stats.count first.del_stats
        && Stats.mean m.Benchmark.rank_error = Stats.mean first.rank_stats
        && m.Benchmark.end_time = first.window_end - first.window_start
        && m.Benchmark.final_size = List.length first.drained
        && report_signature m.Benchmark.machine = first_report);
      write_spans wl ~seed:!seed ~fp t;
      let summary = Option.get t.summary in
      (match Trace.Summary.lock_profile summary with
      | (name, acquisitions, parks, waited) :: _ ->
        Printf.printf "top lock by waited cycles: %S (%d grants, %d parks, %d cycles)\n" name
          acquisitions parks waited
      | [] -> ());
      (match Trace.Summary.hottest_locations summary ~n:1 with
      | (line, misses, queued) :: _ ->
        Printf.printf "hottest line: %d (%d misses, %d queued cycles)\n" line misses queued
      | [] -> ());
      layer_metrics wl ~t ~reps ~slow ~pre ~traced_host_s:(at_reference_speed t t.host_window_s)
    end
  in
  let correct = !failed = 0 && !guard_failures = [] in
  List.iter (fun g -> Printf.printf "GUARD FAILED: %s\n" g) (List.rev !guard_failures);
  Printf.printf "runs %d untraced after one warm-up; window %d ops; correctness gate: %d of %d operations failed (failed_frac %g)\n"
    (List.length reps) wl.shape.Benchmark.total_ops !failed !attempted
    (ratio (fi !failed) (fi !attempted));
  let floats l = String.concat " " (List.map (Printf.sprintf "%.4f") l) in
  Printf.printf
    "untraced window host_s per run: %s\nraw CPU s per run: %s\nsetup_s per run: %s\nreference job CPU s (nominal %g): median %.4f of %d\n"
    (floats (List.map (fun r -> at_reference_speed r r.host_window_s) reps))
    (floats (List.map (fun r -> r.host_window_s) reps))
    (floats setups) reference_s (median !references) (List.length !references);
  List.iter (fun (n, v, u) -> Printf.printf "%-42s %.6g %s\n" n v u) metrics;
  let line =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct !attempted !failed (json_metrics metrics)
  in
  append_ledger
    (Printf.sprintf "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"host\": %S, \"result\": %s}"
       wl.name !seed !trace fp line);
  print_endline line;
  if not correct then exit 1
