(* Tests for the native runtime primitives (the simulator backend has its
   own suite in test_sim.ml). *)

module Native = Repro_runtime.Native_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_shared_cells () =
  let c = Native.shared 1 in
  check_int "read initial" 1 (Native.read c);
  Native.write c 2;
  check_int "read after write" 2 (Native.read c);
  check_int "swap returns old" 2 (Native.swap c 3);
  check_int "swap stored new" 3 (Native.read c)

let test_clock_monotone () =
  Native.reset_clock ();
  let last = ref (Native.get_time ()) in
  for _ = 1 to 1000 do
    let t = Native.get_time () in
    check "strictly increasing" true (t > !last);
    last := t
  done

let test_clock_total_order_across_domains () =
  Native.reset_clock ();
  let per_domain = Array.make 4 [] in
  Native.run_processors 4 (fun p ->
      for _ = 1 to 500 do
        per_domain.(p) <- Native.get_time () :: per_domain.(p)
      done);
  (* All observed values are distinct across all domains. *)
  let all = Array.to_list per_domain |> List.concat in
  let sorted = List.sort_uniq compare all in
  check_int "all timestamps distinct" (List.length all) (List.length sorted);
  (* And each domain saw a monotone sequence. *)
  Array.iter
    (fun ts ->
      let rec mono = function
        | a :: (b :: _ as rest) -> a > b && mono rest
        | [] | [ _ ] -> true
      in
      check "per-domain monotone" true (mono ts))
    per_domain

let test_run_processors_joins_all () =
  let hits = Atomic.make 0 in
  Native.run_processors 8 (fun _ -> Atomic.incr hits);
  check_int "all bodies ran" 8 (Atomic.get hits)

let test_run_processors_propagates_exception () =
  Alcotest.check_raises "exception from a domain" Exit (fun () ->
      Native.run_processors 3 (fun p -> if p = 1 then raise Exit))

let test_run_processors_rejects_zero () =
  Alcotest.check_raises "zero processors"
    (Invalid_argument "Native_runtime.run_processors") (fun () ->
      Native.run_processors 0 (fun _ -> ()))

let test_locks_mutual_exclusion () =
  let lock = Native.lock_create () in
  let counter = ref 0 in
  Native.run_processors 4 (fun _ ->
      for _ = 1 to 10_000 do
        Native.acquire lock;
        counter := !counter + 1;
        Native.release lock
      done);
  check_int "no lost increments" 40_000 !counter

let test_swap_transfers_tokens () =
  (* Same invariant as the simulator's atomic-swap test, under real
     parallelism: initial value + all tokens = returned values + final. *)
  let c = Native.shared (-1) in
  let returned = Array.make 4 [] in
  Native.run_processors 4 (fun p ->
      for i = 0 to 999 do
        returned.(p) <- Native.swap c ((p * 1000) + i) :: returned.(p)
      done);
  let all = (Native.read c :: (Array.to_list returned |> List.concat)) in
  let expected = List.init 4000 (fun i -> (i / 1000 * 1000) + (i mod 1000)) in
  Alcotest.(check (list int))
    "permutation" (List.sort compare (-1 :: expected)) (List.sort compare all)

let test_work_is_finite () =
  (* smoke: work must terminate and cost something bounded *)
  Native.work 0;
  Native.work 1_000_000;
  check "done" true true

(* --- Per_proc ------------------------------------------------------------ *)

module Per_proc = Repro_runtime.Per_proc

let test_per_proc_lazy_once () =
  let inits = ref [] in
  let t =
    Per_proc.create (fun idx ->
        inits := idx :: !inits;
        ref idx)
  in
  check "nothing created up front" true (!inits = [] && Per_proc.find t 3 = None);
  let a = Per_proc.get t 3 in
  check "first get runs init on the slot" true (!inits = [ 3 ] && !a = 3);
  check "second get reuses the value" true (Per_proc.get t 3 == a);
  check "find sees it" true
    (match Per_proc.find t 3 with Some r -> r == a | None -> false);
  check "init ran once" true (!inits = [ 3 ]);
  let b = Per_proc.get t 7 in
  check "another slot, another init" true (!inits = [ 7; 3 ] && b != a)

let test_per_proc_folds_ids () =
  let t = Per_proc.create (fun idx -> ref idx) in
  let p = 5 in
  let a = Per_proc.get t (p + Per_proc.slots) in
  check_int "init saw the folded slot" p !a;
  check "p and p + slots share a slot" true (Per_proc.get t p == a);
  ignore (Per_proc.get t 1);
  let seen = ref [] in
  Per_proc.iter (fun r -> seen := !r :: !seen) t;
  check "iter visits created slots in order" true (List.rev !seen = [ 1; 5 ])

let test_per_proc_racing_domains () =
  let inits = Atomic.make 0 in
  let t =
    Per_proc.create (fun _ ->
        Atomic.incr inits;
        (* widen the window in which a second domain could also install *)
        for _ = 1 to 10_000 do
          Domain.cpu_relax ()
        done;
        ref 0)
  in
  for round = 0 to 19 do
    let got = Array.make 4 (ref (-1)) in
    Native.run_processors 4 (fun p -> got.(p) <- Per_proc.get t round);
    check "one instance per slot" true (Array.for_all (fun r -> r == got.(0)) got)
  done;
  check_int "init ran once per slot" 20 (Atomic.get inits)

let () =
  Alcotest.run "native-runtime"
    [
      ( "primitives",
        [
          Alcotest.test_case "shared cells" `Quick test_shared_cells;
          Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
          Alcotest.test_case "clock total order across domains" `Quick
            test_clock_total_order_across_domains;
          Alcotest.test_case "run_processors joins" `Quick test_run_processors_joins_all;
          Alcotest.test_case "exceptions propagate" `Quick
            test_run_processors_propagates_exception;
          Alcotest.test_case "rejects zero procs" `Quick test_run_processors_rejects_zero;
          Alcotest.test_case "lock mutual exclusion" `Quick test_locks_mutual_exclusion;
          Alcotest.test_case "swap transfers tokens" `Quick test_swap_transfers_tokens;
          Alcotest.test_case "work terminates" `Quick test_work_is_finite;
        ] );
      ( "per-proc",
        [
          Alcotest.test_case "lazy, once per slot" `Quick test_per_proc_lazy_once;
          Alcotest.test_case "ids fold into slots" `Quick test_per_proc_folds_ids;
          Alcotest.test_case "racing domains install one value" `Quick
            test_per_proc_racing_domains;
        ] );
    ]
