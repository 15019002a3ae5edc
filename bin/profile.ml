(* Contention profiler: run one synthetic workload against a chosen
   structure with full tracing and print where the cycles went — the
   hottest memory locations, the lock wait table, and the machine totals.

     dune exec bin/profile.exe -- --structure heap --procs 64
     dune exec bin/profile.exe -- --structure skipqueue --procs 256 --ops 20000

   This is how the paper's §1.2 claims read off the simulator directly:
   profile the heap and the "heap" lock dominates; profile the SkipQueue
   and no single location does. *)

open Cmdliner

let run structure procs initial ops insert_ratio work =
  let module QA = Repro_workload.Queue_adapter in
  let impl =
    match QA.find QA.Sim structure with
    | impl -> impl
    | exception Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      Stdlib.exit 2
  in
  let summary = Repro_sim.Trace.Summary.create () in
  let latencies = Repro_util.Stats.create () in
  match
    Repro_sim.Machine.run ~tracer:(Repro_sim.Trace.Summary.sink summary) (fun () ->
        let q = impl.Repro_workload.Queue_adapter.create () in
        let rng = Repro_util.Rng.of_seed 99L in
        for i = 0 to initial - 1 do
          q.Repro_workload.Queue_adapter.insert
            (Repro_util.Rng.int rng (1 lsl 20))
            (1_000_000 + i)
        done;
        for p = 0 to procs - 1 do
          let rng = Repro_util.Rng.of_seed (Int64.of_int (7_000 + p)) in
          Repro_sim.Machine.spawn (fun () ->
              for i = 0 to (ops / procs) - 1 do
                Repro_sim.Machine.work work;
                let t0 = Repro_sim.Machine.probe_time () in
                if Repro_util.Rng.bernoulli rng insert_ratio then
                  q.Repro_workload.Queue_adapter.insert
                    (Repro_util.Rng.int rng (1 lsl 20))
                    ((p * 1_000_000) + i)
                else ignore (q.Repro_workload.Queue_adapter.try_delete_min ());
                Repro_util.Stats.add latencies
                  (float_of_int (Repro_sim.Machine.probe_time () - t0))
              done)
        done)
  with
  | exception Repro_sim.Machine.Deadlock msg ->
    (* A blocking backend (a bounded: façade) can legitimately strand the
       whole workload: with every processor flipping a 50/50 coin, all of
       them can be inserting the moment the capacity bound is hit, and
       nobody is left to delete.  The detector's diagnostic is the
       profile result in that case. *)
    Printf.eprintf
      "deadlock: %s\n\
       (the workload parked every processor — for bounded: structures try \
       a lower --insert-ratio, fewer --ops, or more --initial headroom)\n"
      msg;
    1
  | report ->
  Printf.printf "structure: %s, %d procs, %d initial, %d ops, %.0f%% inserts\n\n"
    impl.Repro_workload.Queue_adapter.name procs initial ops (100.0 *. insert_ratio);
  Printf.printf "mean operation latency: %.0f cycles (min %.0f, max %.0f)\n"
    (Repro_util.Stats.mean latencies)
    (Repro_util.Stats.min_value latencies)
    (Repro_util.Stats.max_value latencies);
  Printf.printf
    "machine: %d cycles end-to-end, %d accesses (%.0f%% hits), %d queued cycles,\n\
    \         %d lock acquisitions (%d contended, %d cycles waited)\n\n"
    report.Repro_sim.Machine.end_time report.Repro_sim.Machine.accesses
    (100.0
    *. float_of_int report.Repro_sim.Machine.cache_hits
    /. float_of_int (Int.max 1 report.Repro_sim.Machine.accesses))
    report.Repro_sim.Machine.queued_cycles report.Repro_sim.Machine.lock_acquisitions
    report.Repro_sim.Machine.lock_contentions report.Repro_sim.Machine.lock_wait_cycles;
  Format.printf "%a@." Repro_sim.Trace.Summary.pp summary;
  0

let structure =
  Arg.(
    value
    & opt string "skipqueue"
    & info [ "structure"; "s" ] ~docv:"NAME"
        ~doc:
          "Structure to profile: any name of the adapter's grammar \
           ([bounded:][Relaxed ]<base>[-elim], klsm:<k>; for example \
           skipqueue, \"Relaxed SkipQueue\", SkipQueue-co-elim, heap, \
           multiqueue), matched case- and space-insensitively.")

let procs =
  Arg.(value & opt int 64 & info [ "procs"; "p" ] ~docv:"N" ~doc:"Virtual processors.")

let initial =
  Arg.(value & opt int 1000 & info [ "initial" ] ~docv:"N" ~doc:"Initial elements.")

let ops = Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc:"Total operations.")

let ratio =
  Arg.(
    value & opt float 0.5 & info [ "insert-ratio" ] ~docv:"R" ~doc:"Insert probability.")

let work =
  Arg.(
    value & opt int 100
    & info [ "work" ] ~docv:"CYCLES" ~doc:"Local work between operations.")

let cmd =
  let doc = "profile where the simulated cycles go for one structure" in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ structure $ procs $ initial $ ops $ ratio $ work)

let () = Stdlib.exit (Cmd.eval' cmd)
