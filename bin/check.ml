(* Schedule-exploration check driver: sweep N perturbation seeds over every
   registered simulator backend (or a chosen subset), validate each recorded
   history against the checker suite its declared spec selects, and report
   violations as replayable seeds.

     dune exec bin/check.exe -- --seeds 50
     dune exec bin/check.exe -- --backend skipqueue --seeds 200 --jitter 48
     dune exec bin/check.exe -- --replay 17 --backend heap
     dune exec bin/check.exe -- --blocking --seeds 25  # bounded façade under park/wake pressure
     dune exec bin/check.exe -- --broken        # torn-SWAP mutant; exit 0 iff caught
     dune exec bin/check.exe -- --broken elim   # lost-rendezvous elimination mutant
     dune exec bin/check.exe -- --broken wakeup # lost-wakeup bounded façade mutant
     dune exec bin/check.exe -- --broken lf-claim # torn two-step lock-free claim
     dune exec bin/check.exe -- --broken lf-free  # premature free in the lock-free queue
     dune exec bin/check.exe -- --broken klsm   # torn k-LSM buffer-to-shared spill
     dune exec bin/check.exe -- --broken co     # torn lock-word decrement, coalescing queue

   --blocking switches to the producer/consumer harness: each selected
   backend is wrapped in the bounded façade at the blocking profile's
   capacity (8) and hammered through insert_wait/delete_min_wait, with
   the blocking-aware checkers (park/wake nesting, capacity bound) added
   to the suite.  Backend names may be given with or without their
   "bounded:" prefix there.

   Exit status: 0 all clean, 1 violations found, 2 usage error.  Under
   --broken the meaning flips: 0 the chosen mutant (swap | elim | wakeup |
   lf-claim | lf-free | klsm | co | all, default swap) was caught, 1 it
   slipped through. *)

open Cmdliner
module QA = Repro_workload.Queue_adapter
module Check = Repro_check.Checkers
module Harness = Repro_check.Harness

let pp_spec = function
  | QA.Linearizable -> "linearizable"
  | QA.Quiescent -> "quiescent"
  | QA.Relaxed -> "relaxed"
  | QA.Rank_bounded -> "rank-bounded"

(* In --blocking mode a backend name selects the structure *inside* the
   façade; tolerate the façade's own registry spelling too. *)
let strip_bounded name =
  let prefix = "bounded:" in
  if String.length name >= String.length prefix
     && String.lowercase_ascii (String.sub name 0 (String.length prefix)) = prefix
  then String.sub name (String.length prefix) (String.length name - String.length prefix)
  else name

let blocking_defaults () =
  [ QA.Sim.skipqueue (); QA.Sim.(plain (relaxed skipqueue_base)); QA.Sim.skipqueue_lf ();
    QA.Sim.hunt_heap (); QA.Sim.multiqueue ~procs:16 () ]

(* (impl, uses-blocking-harness) pairs for the sweep. *)
let select_impls backends broken blocking ~capacity =
  let wrap i = (QA.Sim.bounded ~capacity i, true) in
  match broken with
  | Some "swap" -> [ (Repro_check.Broken.skipqueue (), false) ]
  | Some "elim" -> [ (Repro_check.Broken.elim_skipqueue (), false) ]
  | Some "wakeup" -> [ (Repro_check.Broken.bounded_skipqueue ~capacity (), true) ]
  | Some "lf-claim" -> [ (Repro_check.Broken.lf_claim_skipqueue (), false) ]
  | Some "lf-free" -> [ (Repro_check.Broken.lf_free_skipqueue (), false) ]
  | Some "klsm" -> [ (Repro_check.Broken.klsm_spill (), false) ]
  | Some "co" -> [ (Repro_check.Broken.co_lockword (), false) ]
  | Some "all" ->
    [
      (Repro_check.Broken.skipqueue (), false);
      (Repro_check.Broken.elim_skipqueue (), false);
      (Repro_check.Broken.bounded_skipqueue ~capacity (), true);
      (Repro_check.Broken.lf_claim_skipqueue (), false);
      (Repro_check.Broken.lf_free_skipqueue (), false);
      (Repro_check.Broken.klsm_spill (), false);
      (Repro_check.Broken.co_lockword (), false);
    ]
  | Some other ->
    Printf.eprintf
      "unknown mutant %S (known: swap, elim, wakeup, lf-claim, lf-free, klsm, co, all)\n" other;
    Stdlib.exit 2
  | None when blocking -> (
    match backends with
    | [] -> List.map wrap (blocking_defaults ())
    | names -> (
      try List.map (fun n -> wrap (QA.find QA.Sim (strip_bounded n))) names
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        Stdlib.exit 2))
  | None -> (
    match backends with
    | [] -> List.map (fun i -> (i, false)) (QA.all QA.Sim)
    | names -> (
      try List.map (fun n -> (QA.find QA.Sim n, false)) names
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        Stdlib.exit 2))

let print_violation ~impl ~profile ~blocking (v : Harness.violation) =
  Printf.printf "  VIOLATION seed=%Ld check=%s\n    %s\n" v.Harness.seed v.Harness.check
    v.Harness.message;
  Printf.printf "    replay: dune exec bin/check.exe -- %s--backend '%s' --replay %Ld%s\n"
    (if blocking then "--blocking " else "")
    impl v.Harness.seed
    (if blocking || profile = Harness.default_profile then ""
     else
       Printf.sprintf " --procs %d --ops %d --jitter %d" profile.Harness.procs
         profile.Harness.ops_per_proc profile.Harness.jitter)

let run seeds start_seed backends procs ops jitter max_rank mean_rank broken mutant replay
    blocking quiet jobs =
  let broken =
    if broken then Some (Option.value mutant ~default:"swap")
    else
      match mutant with
      | None -> None
      | Some m ->
        Printf.eprintf "stray argument %S (did you mean --broken %s?)\n" m m;
        Stdlib.exit 2
  in
  let profile =
    {
      Harness.default_profile with
      Harness.procs;
      ops_per_proc = ops;
      jitter;
    }
  in
  let bounds = { Check.default_bounds with Check.max_rank; mean_rank } in
  let bprofile = { Harness.default_blocking_profile with Harness.jitter } in
  let impls =
    select_impls backends broken blocking ~capacity:bprofile.Harness.capacity
  in
  let seed_list =
    match replay with
    | Some s -> [ s ]
    | None -> Harness.seeds ~start:start_seed ~count:seeds
  in
  let summaries =
    List.map
      (fun (impl, blk) ->
        ( (if blk then Harness.sweep_blocking ~bounds ~profile:bprofile ~jobs impl seed_list
           else Harness.sweep_impl ~bounds ~profile ~jobs impl seed_list),
          blk ))
      impls
  in
  let total_violations = ref 0 in
  List.iter
    (fun ((s : Harness.summary), blk) ->
      total_violations := !total_violations + List.length s.Harness.violations;
      if not quiet then
        Printf.printf "%-28s %-13s %4d seeds  %7d ops  %s\n" s.Harness.impl (pp_spec s.Harness.spec)
          s.Harness.runs s.Harness.events
          (match s.Harness.violations with
          | [] -> "ok"
          | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs));
      List.iter
        (print_violation ~impl:s.Harness.impl ~profile ~blocking:blk)
        s.Harness.violations)
    summaries;
  match broken with
  | Some mutant ->
    if !total_violations > 0 then begin
      if not quiet then
        Printf.printf
          "\nbroken-queue validation: %s mutant caught (%d violations) — fuzzer works\n"
          mutant !total_violations;
      0
    end
    else begin
      Printf.printf
        "\nbroken-queue validation FAILED: %s mutant produced no violation — fuzzer is blind\n"
        mutant;
      1
    end
  | None ->
    if !total_violations > 0 then begin
      Printf.printf "\n%d violation(s) — replay with the printed seeds\n" !total_violations;
      1
    end
    else begin
      if not quiet then
        Printf.printf "\nall clean: %d backend(s) x %d seed(s)%s\n" (List.length impls)
          (List.length seed_list)
          (if blocking then " (blocking harness)" else "");
      0
    end

let seeds =
  Arg.(
    value
    & opt int 50
    & info [ "seeds"; "n" ] ~docv:"N" ~doc:"Number of consecutive schedule seeds to sweep.")

let start_seed =
  Arg.(
    value
    & opt int64 1L
    & info [ "start-seed" ] ~docv:"SEED" ~doc:"First seed of the sweep (seeds are SEED..SEED+N-1).")

let backends =
  Arg.(
    value
    & opt_all string []
    & info [ "backend"; "b" ] ~docv:"NAME"
        ~doc:
          "Backend to check (repeatable, registry names, case/space \
           insensitive).  Default: every registered simulator backend.")

let procs =
  Arg.(
    value
    & opt int Harness.default_profile.Harness.procs
    & info [ "procs"; "p" ] ~docv:"P" ~doc:"Worker processors per run.")

let ops =
  Arg.(
    value
    & opt int Harness.default_profile.Harness.ops_per_proc
    & info [ "ops" ] ~docv:"K" ~doc:"Operations per worker processor.")

let jitter =
  Arg.(
    value
    & opt int Harness.default_profile.Harness.jitter
    & info [ "jitter" ] ~docv:"CYCLES"
        ~doc:"Max extra scheduling delay per event (0 randomizes only same-time tie-breaks).")

let max_rank =
  Arg.(
    value
    & opt int Check.default_bounds.Check.max_rank
    & info [ "max-rank" ] ~docv:"R"
        ~doc:"Rank-envelope per-operation ceiling for rank-bounded backends.")

let mean_rank =
  Arg.(
    value
    & opt float Check.default_bounds.Check.mean_rank
    & info [ "mean-rank" ] ~docv:"R" ~doc:"Rank-envelope per-run mean ceiling for rank-bounded backends.")

let broken =
  Arg.(
    value & flag
    & info [ "broken" ]
        ~doc:
          "Sweep an intentionally racy mutant instead; exit 0 only if the \
           checkers catch it (fuzzer self-test).  Takes an optional \
           positional mutant name: $(b,swap) (torn-SWAP SkipQueue, the \
           default), $(b,elim) (lost-rendezvous elimination front end), \
           $(b,wakeup) (lost-wakeup bounded façade, swept under the \
           blocking harness), $(b,lf-claim) (torn two-step claim in the \
           lock-free SkipQueue), $(b,lf-free) (premature physical free in \
           the lock-free SkipQueue), $(b,klsm) (torn k-LSM buffer-to-shared \
           block publish), $(b,co) (torn count-decrementing release of the \
           coalescing queue's packed lock word) or $(b,all).")

let mutant =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"MUTANT"
        ~doc:"Mutant for $(b,--broken): swap, elim, wakeup, lf-claim, lf-free, klsm, co or all.")

let blocking =
  Arg.(
    value & flag
    & info [ "blocking" ]
        ~doc:
          "Sweep the blocking producer/consumer harness instead: each \
           selected backend is wrapped in the bounded façade at capacity 8 \
           and driven through $(b,insert_wait)/$(b,delete_min_wait), with \
           the blocking-aware checkers added.  Default backends: skipqueue, \
           relaxed skipqueue, lock-free skipqueue, heap, multiqueue.")

let replay =
  Arg.(
    value
    & opt (some int64) None
    & info [ "replay" ] ~docv:"SEED" ~doc:"Run exactly one seed (reproduce a reported violation).")

let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Print violations and the final line only.")

let jobs =
  Arg.(
    value
    & opt int (Repro_workload.Jobs.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains sweeping seeds concurrently.  Verdicts are identical for \
           any value; 1 disables parallelism.")

let cmd =
  let doc = "sweep schedule seeds over the queue backends and check the recorded histories" in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run $ seeds $ start_seed $ backends $ procs $ ops $ jitter $ max_rank $ mean_rank
      $ broken $ mutant $ replay $ blocking $ quiet $ jobs)

let () = Stdlib.exit (Cmd.eval' cmd)
