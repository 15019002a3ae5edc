(* Tests for the elimination–combining front end (lib/skipqueue/elimination):
   sequential semantics pass through to the backing SkipQueue, the
   rendezvous / combining / empty-handoff / timeout paths each fire where
   a hand-built schedule says they must, and randomized concurrent runs
   conserve elements in both modes on both runtimes. *)

module Machine = Repro_sim.Machine
module Rng = Repro_util.Rng
module E = Repro_skipqueue.Elimination.Make (Repro_sim.Sim_runtime) (Repro_pqueue.Key.Int)
module E_native =
  Repro_skipqueue.Elimination.Make (Repro_runtime.Native_runtime) (Repro_pqueue.Key.Int)

module SQ = Repro_skipqueue.Skipqueue.Make (Repro_sim.Sim_runtime) (Repro_pqueue.Key.Int)

module SQ_native =
  Repro_skipqueue.Skipqueue.Make (Repro_runtime.Native_runtime) (Repro_pqueue.Key.Int)

(* The backing SkipQueue's constructor, in the form [E.create ~backing]
   takes it. *)
let sq ?mode ?seed () () = SQ.create ?mode ?seed ()

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok_or_fail = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant violated: %s" msg

(* --- sequential pass-through -------------------------------------------- *)

let test_sequential_drain_and_update () =
  let out = ref [] and updated = ref `Inserted and final = ref [] in
  let invariants = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = E.create ~window:4 ~max_window:8 ~backing:(sq ()) () in
        List.iter (fun k -> ignore (E.insert q k (10 * k))) [ 3; 1; 2 ];
        updated := E.insert q 1 99;
        let d1 = E.delete_min q in
        let d2 = E.delete_min q in
        out := [ d1; d2 ];
        final := E.to_list q;
        invariants := E.check_invariants q)
  in
  check "duplicate key updates in place" true (!updated = `Updated);
  check "drains in key order, updated value" true
    (!out = [ Some (1, 99); Some (2, 20) ]);
  check "remainder visible via to_list" true (!final = [ (3, 30) ]);
  ok_or_fail !invariants

(* --- the rendezvous path ------------------------------------------------- *)

(* One slot, full bound observation, a patient window: the deleter
   publishes on the empty queue (unbounded), the inserter lands on its
   slot and hands the binding over — the skiplist is never touched. *)
let test_insert_eliminates_with_waiting_deleter () =
  let got = ref None and size = ref (-1) and stats = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q =
          E.create ~slots:1 ~width:1 ~window:64 ~max_window:64 ~poll_cycles:16
            ~bound_every:1 ~adaptive:false ~backing:(sq ()) ()
        in
        Machine.spawn (fun () -> got := E.delete_min q);
        Machine.spawn (fun () ->
            Machine.work 200;
            ignore (E.insert q 5 55));
        Machine.spawn (fun () ->
            Machine.work 1_000_000;
            size := E.size q;
            stats := Some (E.front_stats q)))
  in
  check "deleter received the eliminated binding" true (!got = Some (5, 55));
  check_int "structure never touched" 0 !size;
  match !stats with
  | None -> Alcotest.fail "no stats captured"
  | Some s ->
    check_int "one elimination" 1 s.E.eliminated;
    check_int "no timeout" 0 s.E.timeouts

(* The queue dedups: an insert whose key equals the published bound — the
   key of a node settled in the structure — must update that node in
   place, not rendezvous.  Eliminating it would hand the key to the
   deleter while the settled node still carries it, so the one logical
   instance would be delivered twice.  The elimination bound is therefore
   strict. *)
let test_duplicate_key_updates_instead_of_eliminating () =
  let ins = ref `Inserted and got = ref None and final = ref [] and stats = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q =
          E.create ~slots:1 ~width:1 ~window:64 ~max_window:64 ~poll_cycles:16
            ~bound_every:1 ~adaptive:false ~backing:(sq ()) ()
        in
        ignore (E.insert q 10 100);
        Machine.spawn (fun () -> got := E.delete_min q);
        Machine.spawn (fun () ->
            Machine.work 200;
            ins := E.insert q 10 999);
        Machine.spawn (fun () ->
            Machine.work 1_000_000;
            final := E.to_list q;
            stats := Some (E.front_stats q)))
  in
  check "insert of the settled minimum updates in place" true (!ins = `Updated);
  check "the one instance is delivered exactly once" true
    (match !got with Some (10, _) -> true | _ -> false);
  check "nothing left behind" true (!final = []);
  match !stats with
  | None -> Alcotest.fail "no stats captured"
  | Some s -> check_int "no elimination" 0 s.E.eliminated

(* A published bound goes stale the moment a smaller element settles: with
   {10} settled, a deleter publishes At_most 10; insert(2) then completes
   into the skiplist (seed 0 makes it peek an empty slot and go direct);
   insert(7), invoked strictly after that, peeks the waiter — it is below
   the published bound, but the rendezvous would make the delete return 7
   while 2 is live, with no serialization consistent with real-time order.
   The inserter's own fresh bound read is what refuses it. *)
let test_stale_bound_does_not_eliminate () =
  let got = ref None and final = ref [] and stats = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q =
          E.create ~slots:4 ~width:4 ~window:64 ~max_window:64 ~poll_cycles:128
            ~bound_every:1 ~adaptive:false ~seed:0L
            ~backing:(sq ~seed:0L ()) ()
        in
        ignore (E.insert q 10 100);
        Machine.spawn (fun () -> got := E.delete_min q);
        Machine.spawn (fun () ->
            Machine.work 200;
            ignore (E.insert q 2 22));
        Machine.spawn (fun () ->
            Machine.work 4_000;
            ignore (E.insert q 7 77));
        Machine.spawn (fun () ->
            Machine.work 1_000_000;
            final := List.map fst (E.to_list q);
            stats := Some (E.front_stats q)))
  in
  check "deleter received the settled minimum, not the stale rendezvous" true
    (!got = Some (2, 22));
  check "both later inserts settled" true (!final = [ 7; 10 ]);
  match !stats with
  | None -> Alcotest.fail "no stats captured"
  | Some s ->
    check_int "no elimination" 0 s.E.eliminated;
    (* insert(7) reached the waiter and was turned away by its own read;
       if this fails the schedule no longer exercises the stale path —
       re-probe the seed rather than weakening the assertion *)
    check_int "one fresh-bound refusal" 1 s.E.fresh_refusals

(* --- the combining path --------------------------------------------------- *)

(* One slot forces the second deleter to collide and combine: it must
   reserve the parked first deleter, claim both minima in one hunt, keep
   the smaller and deliver the larger. *)
let test_collider_combines_and_serves_waiter () =
  let a = ref None and b = ref None and stats = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q =
          E.create ~slots:1 ~width:1 ~window:64 ~max_window:64 ~poll_cycles:16
            ~adaptive:false ~backing:(sq ()) ()
        in
        ignore (E.insert q 1 11);
        ignore (E.insert q 2 22);
        Machine.spawn (fun () -> a := E.delete_min q);
        Machine.spawn (fun () ->
            Machine.work 300;
            b := E.delete_min q);
        Machine.spawn (fun () ->
            Machine.work 1_000_000;
            stats := Some (E.front_stats q)))
  in
  check "combiner kept the minimum" true (!b = Some (1, 11));
  check "waiter was served the second minimum" true (!a = Some (2, 22));
  match !stats with
  | None -> Alcotest.fail "no stats captured"
  | Some s ->
    check_int "one collision" 1 s.E.collisions;
    check_int "one waiter served" 1 s.E.served;
    check_int "one combined batch" 1 s.E.batches

(* Same schedule on an empty queue: the combiner's hunt observes the tail
   sentinel after reserving, so handing the waiter EMPTY is justified. *)
let test_combiner_hands_off_empty () =
  let a = ref (Some (0, 0)) and b = ref (Some (0, 0)) and stats = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q =
          E.create ~slots:1 ~width:1 ~window:64 ~max_window:64 ~poll_cycles:16
            ~adaptive:false ~backing:(sq ()) ()
        in
        Machine.spawn (fun () -> a := E.delete_min q);
        Machine.spawn (fun () ->
            Machine.work 300;
            b := E.delete_min q);
        Machine.spawn (fun () ->
            Machine.work 1_000_000;
            stats := Some (E.front_stats q)))
  in
  check "combiner sees empty" true (!b = None);
  check "waiter is handed empty" true (!a = None);
  match !stats with
  | None -> Alcotest.fail "no stats captured"
  | Some s -> check_int "one empty handoff" 1 s.E.handoff_empties

(* --- the timeout path ----------------------------------------------------- *)

let test_lone_deleter_times_out_to_direct () =
  let r = ref (Some (0, 0)) and got = ref None and stats = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = E.create ~window:4 ~max_window:16 ~backing:(sq ()) () in
        r := E.delete_min q;
        ignore (E.insert q 7 77);
        got := E.delete_min q;
        stats := Some (E.front_stats q))
  in
  check "empty queue stays empty" true (!r = None);
  check "after timing out the direct path still deletes" true (!got = Some (7, 77));
  match !stats with
  | None -> Alcotest.fail "no stats captured"
  | Some s ->
    check_int "both deletes timed out" 2 s.E.timeouts;
    check "window doubled on timeout" true (s.E.window > 4);
    check_int "nothing eliminated" 0 s.E.eliminated

(* --- randomized conservation (simulator) ---------------------------------- *)

let conservation_sim ~mode ~seed () =
  let procs = 8 and ops = 150 in
  let inserted = Array.make procs [] in
  let deleted = Array.make procs [] in
  let leftover = ref [] in
  let invariants = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = E.create ~seed ~backing:(sq ~mode ~seed ()) () in
        let stride = (procs * ops) + 1 in
        for p = 0 to procs - 1 do
          let rng = Rng.of_seed (Int64.add seed (Int64.of_int (p + 1))) in
          Machine.spawn (fun () ->
              for i = 0 to ops - 1 do
                if Rng.bernoulli rng 0.55 then begin
                  (* globally unique keys: the SkipQueue dedups *)
                  let key = (Rng.int rng 4096 * stride) + (p * ops) + i in
                  if E.insert q key ((p * 1_000_000) + i) = `Inserted then
                    inserted.(p) <- (key, (p * 1_000_000) + i) :: inserted.(p)
                end
                else
                  match E.delete_min q with
                  | Some kv -> deleted.(p) <- kv :: deleted.(p)
                  | None -> ()
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work (1 lsl 50);
            leftover := E.to_list q;
            invariants := E.check_invariants q))
  in
  ok_or_fail !invariants;
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let all_in = S.of_list (List.concat (Array.to_list inserted)) in
  let all_out =
    S.union (S.of_list (List.concat (Array.to_list deleted))) (S.of_list !leftover)
  in
  check "no lost or invented elements" true (S.equal all_in all_out)

let test_conservation_strict () = conservation_sim ~mode:SQ.Strict ~seed:21L ()
let test_conservation_relaxed () = conservation_sim ~mode:SQ.Relaxed ~seed:22L ()

(* Duplicate-heavy randomized runs: with a handful of raw keys the dedup
   update path and the rendezvous path collide constantly.  Instance
   accounting must balance per key: every insert that returned
   [`Inserted] created exactly one instance, and every instance is
   consumed by exactly one delivered delete or survives to the quiescent
   remainder.  Neither the fuzz sweep nor the conservation tests above
   can reach this path — they keep every inserted key globally unique
   because the queue dedups. *)
let duplicate_key_conservation ~mode ~seed () =
  let procs = 8 and ops = 120 and range = 10 in
  let created = Array.make procs [] in
  let deleted = Array.make procs [] in
  let leftover = ref [] in
  let invariants = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = E.create ~seed ~bound_every:1 ~backing:(sq ~mode ~seed ()) () in
        for p = 0 to procs - 1 do
          let rng = Rng.of_seed (Int64.add seed (Int64.of_int (p + 1))) in
          Machine.spawn (fun () ->
              for i = 0 to ops - 1 do
                if Rng.bernoulli rng 0.55 then begin
                  let key = Rng.int rng range in
                  if E.insert q key ((p * 1_000_000) + i) = `Inserted then
                    created.(p) <- key :: created.(p)
                end
                else
                  match E.delete_min q with
                  | Some (k, _) -> deleted.(p) <- k :: deleted.(p)
                  | None -> ()
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work (1 lsl 50);
            leftover := List.map fst (E.to_list q);
            invariants := E.check_invariants q))
  in
  ok_or_fail !invariants;
  let count keys k = List.length (List.filter (( = ) k) keys) in
  let all_created = List.concat (Array.to_list created) in
  let all_deleted = List.concat (Array.to_list deleted) in
  for k = 0 to range - 1 do
    let made = count all_created k
    and consumed = count all_deleted k + count !leftover k in
    if made <> consumed then
      Alcotest.failf "key %d: %d instances created but %d delivered or left" k made
        consumed
  done

let test_duplicate_conservation_strict () =
  duplicate_key_conservation ~mode:SQ.Strict ~seed:31L ()

let test_duplicate_conservation_relaxed () =
  duplicate_key_conservation ~mode:SQ.Relaxed ~seed:32L ()

(* --- native domains -------------------------------------------------------- *)

let test_native_conservation () =
  let procs = 4 and ops = 1_000 in
  let q = E_native.create ~seed:77L ~backing:(fun () -> SQ_native.create ~seed:77L ()) () in
  let inserted = Array.make procs [] in
  let deleted = Array.make procs [] in
  Repro_runtime.Native_runtime.run_processors procs (fun p ->
      let rng = Rng.of_seed (Int64.of_int (500 + p)) in
      let stride = (procs * ops) + 1 in
      for i = 0 to ops - 1 do
        if Rng.bool rng then begin
          let key = (Rng.int rng 4096 * stride) + (p * ops) + i in
          if E_native.insert q key ((p * 1_000_000) + i) = `Inserted then
            inserted.(p) <- (key, (p * 1_000_000) + i) :: inserted.(p)
        end
        else
          match E_native.delete_min q with
          | Some kv -> deleted.(p) <- kv :: deleted.(p)
          | None -> ()
      done);
  ok_or_fail (E_native.check_invariants q);
  let drained = ref [] in
  let rec drain () =
    match E_native.delete_min q with
    | None -> ()
    | Some kv ->
      drained := kv :: !drained;
      drain ()
  in
  drain ();
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let all_in = S.of_list (List.concat (Array.to_list inserted)) in
  let all_out =
    S.union (S.of_list (List.concat (Array.to_list deleted))) (S.of_list !drained)
  in
  check "no lost or invented elements" true (S.equal all_in all_out)

(* --- configuration validation ---------------------------------------------- *)

let test_create_validations () =
  let rejects f =
    match Machine.run (fun () -> ignore (f ())) with
    | (_ : Machine.report) -> false
    | exception Invalid_argument _ -> true
  in
  check "slots < 1 rejected" true
    (rejects (fun () -> E.create ~slots:0 ~backing:(sq ()) ()));
  check "width > slots rejected" true
    (rejects (fun () -> E.create ~slots:4 ~width:5 ~backing:(sq ()) ()));
  check "window > max_window rejected" true
    (rejects (fun () -> E.create ~window:9 ~max_window:8 ~backing:(sq ()) ()));
  check "bound_every < 1 rejected" true
    (rejects (fun () -> E.create ~bound_every:0 ~backing:(sq ()) ()))

let () =
  Alcotest.run "elimination"
    [
      ( "sequential",
        [
          Alcotest.test_case "drain and update" `Quick test_sequential_drain_and_update;
          Alcotest.test_case "create validations" `Quick test_create_validations;
        ] );
      ( "front-end paths",
        [
          Alcotest.test_case "insert eliminates with waiter" `Quick
            test_insert_eliminates_with_waiting_deleter;
          Alcotest.test_case "duplicate key updates, never eliminates" `Quick
            test_duplicate_key_updates_instead_of_eliminating;
          Alcotest.test_case "stale bound refused by fresh read" `Quick
            test_stale_bound_does_not_eliminate;
          Alcotest.test_case "collider combines and serves" `Quick
            test_collider_combines_and_serves_waiter;
          Alcotest.test_case "empty handoff" `Quick test_combiner_hands_off_empty;
          Alcotest.test_case "timeout falls back to direct" `Quick
            test_lone_deleter_times_out_to_direct;
        ] );
      ( "simulated-concurrency",
        [
          Alcotest.test_case "conservation strict" `Quick test_conservation_strict;
          Alcotest.test_case "conservation relaxed" `Quick test_conservation_relaxed;
          Alcotest.test_case "duplicate-key conservation strict" `Quick
            test_duplicate_conservation_strict;
          Alcotest.test_case "duplicate-key conservation relaxed" `Quick
            test_duplicate_conservation_relaxed;
        ] );
      ( "native",
        [ Alcotest.test_case "4-domain conservation" `Quick test_native_conservation ] );
    ]
