(* Tests for the coalescing SkipQueue (DESIGN.md §S21) and its packed
   lock word: qcheck encode/decode round-trips with the locking-discipline
   violations, sequential join/split/FIFO semantics in both dedups modes,
   qcheck multiset-model agreement, a seed-pinned schedule exercising both
   the join and the link-after path, node-pool recycling of value slabs,
   and the batch API (batch = singles; one coalesced node fulfilling a
   whole batch in a single hunt pass). *)

module Machine = Repro_sim.Machine
module Sim_rt = Repro_sim.Sim_runtime
module Rng = Repro_util.Rng
module QA = Repro_workload.Queue_adapter
module LW = Repro_skipqueue.Co_lockword
module CO = Repro_skipqueue.Skipqueue_co.Make (Sim_rt) (Repro_pqueue.Key.Int)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok_or_fail = function Ok () -> () | Error msg -> Alcotest.fail msg

let in_sim f =
  let result = ref None in
  let (_ : Machine.report) = Machine.run (fun () -> result := Some (f ())) in
  Option.get !result

let violates f = match f () with _ -> false | exception LW.Violation _ -> true

(* --- packed lock word ---------------------------------------------------- *)

(* A layout plus a word every field of which is independently random:
   born within capacity, claimed within born, full flag, an arbitrary
   subset of level locks. *)
let fields_gen =
  QCheck.Gen.(
    int_range 1 40 >>= fun max_level ->
    let l = LW.make ~max_level in
    let cap = Int.min (LW.count_capacity l) 1_000_000 in
    int_range 0 cap >>= fun born ->
    triple (int_range 0 born) bool
      (list_size (int_range 0 max_level) (int_range 1 max_level))
    >|= fun (claimed, full, levels) ->
    let levels = List.sort_uniq compare levels in
    (max_level, { LW.born; claimed; full; levels }))

let print_fields (max_level, f) =
  Printf.sprintf "{max_level=%d; born=%d; claimed=%d; full=%b; levels=[%s]}"
    max_level f.LW.born f.LW.claimed f.LW.full
    (String.concat ";" (List.map string_of_int f.LW.levels))

let arbitrary_fields = QCheck.make ~print:print_fields fields_gen

let roundtrip_prop =
  QCheck.Test.make ~name:"decode (encode f) = f" ~count:500 arbitrary_fields
    (fun (max_level, f) ->
      let l = LW.make ~max_level in
      LW.decode l (LW.encode l f) = f)

(* Field accessors agree with the decoded view, on any encodable word. *)
let accessors_prop =
  QCheck.Test.make ~name:"accessors agree with decode" ~count:500
    arbitrary_fields (fun (max_level, f) ->
      let l = LW.make ~max_level in
      let w = LW.encode l f in
      LW.born l w = f.LW.born
      && LW.claimed l w = f.LW.claimed
      && LW.count l w = f.LW.born - f.LW.claimed
      && LW.full_locked l w = f.LW.full
      && List.for_all
           (fun i -> LW.level_locked l w i = List.mem i f.LW.levels)
           (List.init max_level (fun i -> i + 1)))

(* Lock/unlock are inverse bit transitions that never disturb the other
   fields; re-acquire and double release raise. *)
let level_lock_prop =
  QCheck.Test.make ~name:"level lock set/clear round-trip and discipline"
    ~count:500 arbitrary_fields (fun (max_level, f) ->
      let l = LW.make ~max_level in
      let w = LW.encode l f in
      List.for_all
        (fun i ->
          if List.mem i f.LW.levels then
            violates (fun () -> LW.lock_level l w i)
            && LW.unlock_level l (LW.lock_level l (LW.unlock_level l w i) i) i
               = LW.unlock_level l w i
          else
            violates (fun () -> LW.unlock_level l w i)
            && LW.unlock_level l (LW.lock_level l w i) i = w
            && LW.level_locked l (LW.lock_level l w i) i)
        (List.init max_level (fun i -> i + 1)))

(* The tickets are monotone and range-checked: admit bumps born (refusing
   at capacity), claim bumps claimed (refusing past born), neither
   disturbs the lock bits, and their composition moves the live count the
   way a join or a delete-min claim does. *)
let ticket_prop =
  QCheck.Test.make ~name:"admit/claim ticket moves and range" ~count:500
    arbitrary_fields (fun (max_level, f) ->
      let l = LW.make ~max_level in
      let w = LW.encode l f in
      let cap = LW.count_capacity l in
      let live = f.LW.born - f.LW.claimed in
      let locks_untouched w' =
        LW.full_locked l w' = f.LW.full
        && List.for_all
             (fun i -> LW.level_locked l w' i = List.mem i f.LW.levels)
             (List.init max_level (fun i -> i + 1))
      in
      (if f.LW.born = cap then violates (fun () -> LW.admit l w)
       else
         let w' = LW.admit l w in
         LW.born l w' = f.LW.born + 1
         && LW.claimed l w' = f.LW.claimed
         && LW.count l w' = live + 1
         && locks_untouched w')
      && (if live = 0 then violates (fun () -> LW.claim l w)
          else
            let w' = LW.claim l w in
            LW.claimed l w' = f.LW.claimed + 1
            && LW.born l w' = f.LW.born
            && LW.count l w' = live - 1
            && locks_untouched w')
      && (live = 0
         || LW.claim_n l w live = LW.encode l { f with LW.claimed = f.LW.born })
      && violates (fun () -> LW.claim_n l w (live + 1))
      && violates (fun () -> LW.claim_n l w 0))

let test_lockword_basics () =
  let l = LW.make ~max_level:20 in
  check_int "empty is all-clear" 0 LW.empty;
  check "empty decodes clear" true
    (LW.decode l LW.empty
    = { LW.born = 0; claimed = 0; full = false; levels = [] });
  let w = LW.lock_full l LW.empty in
  check "full lock set" true (LW.full_locked l w);
  check "full re-acquire raises" true (violates (fun () -> LW.lock_full l w));
  check "full unlock restores" true (LW.unlock_full l w = LW.empty);
  check "full double release raises" true
    (violates (fun () -> LW.unlock_full l LW.empty));
  check "level out of range" true
    (match LW.lock_level l LW.empty 21 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "encode rejects duplicate levels" true
    (violates (fun () ->
         LW.encode l
           { LW.born = 0; claimed = 0; full = false; levels = [ 3; 3 ] }));
  check "encode rejects claimed past born" true
    (violates (fun () ->
         LW.encode l { LW.born = 1; claimed = 2; full = false; levels = [] }));
  check "layout bounds enforced" true
    (match LW.make ~max_level:41 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- sequential coalescing semantics ------------------------------------- *)

let test_join_then_split_at_capacity () =
  in_sim (fun () ->
      let q = CO.create ~capacity:2 () in
      check "first equal-key insert links" true (CO.insert q 5 10 = `Inserted);
      check "second joins the live node" true (CO.insert q 5 11 = `Inserted);
      check "third splits past capacity" true (CO.insert q 5 12 = `Inserted);
      let c = CO.co_stats q in
      check_int "one coalesced insert" 1 c.CO.coalesced_inserts;
      check_int "one capacity split" 1 c.CO.node_splits;
      ignore (CO.insert q 3 30);
      check_int "size counts elements" 4 (CO.size q);
      ok_or_fail (CO.check_invariants q);
      (* FIFO within a key, ascending across keys. *)
      Alcotest.(check (list (pair int int)))
        "drain order"
        [ (3, 30); (5, 10); (5, 11); (5, 12) ]
        (List.filter_map (fun () -> CO.delete_min q) [ (); (); (); () ]);
      check "then empty" true (CO.delete_min q = None))

let test_dedup_updates_in_place () =
  in_sim (fun () ->
      let q = CO.create ~dedups:true ~capacity:4 () in
      check "first" true (CO.insert q 42 1 = `Inserted);
      check "second updates" true (CO.insert q 42 2 = `Updated);
      check_int "size 1" 1 (CO.size q);
      check_int "no multiset admission" 0 (CO.co_stats q).CO.coalesced_inserts;
      ok_or_fail (CO.check_invariants q);
      check "updated value" true (CO.delete_min q = Some (42, 2));
      check "gone" true (CO.delete_min q = None))

let test_reinsert_after_node_drained () =
  (* Draining a node to zero marks and unlinks it; the next equal-key
     insert must link a fresh node, not resurrect the dead one. *)
  in_sim (fun () ->
      let q = CO.create ~capacity:4 () in
      ignore (CO.insert q 7 70);
      ignore (CO.insert q 7 71);
      check "drain a" true (CO.delete_min q = Some (7, 70));
      check "drain b" true (CO.delete_min q = Some (7, 71));
      check "empty between" true (CO.delete_min q = None);
      check "re-insert links fresh" true (CO.insert q 7 72 = `Inserted);
      ok_or_fail (CO.check_invariants q);
      check "fresh node delivers" true (CO.delete_min q = Some (7, 72)))

(* --- qcheck multiset-model agreement ------------------------------------- *)

type scenario = { procs : int; ops : int; range : int; seed : int }

let scenario_gen =
  QCheck.Gen.(
    map4
      (fun procs ops range seed -> { procs; ops; range; seed })
      (int_range 2 5) (int_range 10 40) (oneofl [ 4; 16; 64 ])
      (int_range 0 1_000_000))

let scenario_print s =
  Printf.sprintf "{procs=%d; ops=%d; range=%d; seed=%d}" s.procs s.ops s.range
    s.seed

let arbitrary_scenario = QCheck.make ~print:scenario_print scenario_gen

(* Concurrent multiset conservation: every element inserted (values
   globally unique, keys deliberately duplicate-heavy) comes back out
   exactly once, and the structure is quiescently well-formed after. *)
let conservation_prop =
  QCheck.Test.make ~name:"random schedules conserve the multiset" ~count:40
    arbitrary_scenario (fun s ->
      let inserted = ref [] and deleted = ref [] and drained = ref [] in
      let structural = ref (Ok ()) in
      let (_ : Machine.report) =
        Machine.run
          ~perturb:{ Machine.sched_seed = Int64.of_int s.seed; jitter = 24 }
          (fun () ->
            let q = CO.create ~seed:(Int64.of_int s.seed) ~capacity:3 () in
            for p = 0 to s.procs - 1 do
              Machine.spawn (fun () ->
                  let rng = Rng.of_seed (Int64.of_int ((s.seed * 31) + p + 1)) in
                  for i = 0 to s.ops - 1 do
                    if Rng.int rng 100 < 60 then begin
                      let kv = (Rng.int rng s.range, ((p + 1) * 100_000) + i) in
                      inserted := kv :: !inserted;
                      ignore (CO.insert q (fst kv) (snd kv))
                    end
                    else begin
                      match CO.delete_min q with
                      | Some kv -> deleted := kv :: !deleted
                      | None -> ()
                    end;
                    Machine.work (1 + Rng.int rng 64)
                  done)
            done;
            Machine.spawn (fun () ->
                Machine.work (1 lsl 55);
                let rec go () =
                  match CO.delete_min q with
                  | Some kv ->
                    drained := kv :: !drained;
                    go ()
                  | None -> ()
                in
                go ();
                structural := CO.check_invariants q))
      in
      Result.is_ok !structural
      && List.sort compare !inserted = List.sort compare (!deleted @ !drained))

(* Dedup-mode agreement against a sequential map model: same results,
   op for op, on a single virtual processor. *)
let dedup_model_prop =
  QCheck.Test.make ~name:"dedup mode agrees with the map model" ~count:60
    arbitrary_scenario (fun s ->
      in_sim (fun () ->
          let q = CO.create ~dedups:true ~capacity:3 () in
          let model = ref [] in
          let rng = Rng.of_seed (Int64.of_int (s.seed + 7)) in
          let ok = ref true in
          for i = 0 to (4 * s.ops) - 1 do
            if Rng.int rng 100 < 55 then begin
              let k = Rng.int rng s.range in
              let expect = if List.mem_assoc k !model then `Updated else `Inserted in
              if CO.insert q k i <> expect then ok := false;
              model := (k, i) :: List.remove_assoc k !model
            end
            else begin
              let expect =
                List.fold_left
                  (fun acc (k, v) ->
                    match acc with
                    | Some (bk, _) when bk <= k -> acc
                    | _ -> Some (k, v))
                  None !model
              in
              if CO.delete_min q <> expect then ok := false;
              match expect with
              | Some (k, _) -> model := List.remove_assoc k !model
              | None -> ()
            end
          done;
          !ok && Result.is_ok (CO.check_invariants q)))

(* --- seed-pinned join-vs-link schedule ----------------------------------- *)

(* One pinned perturbation seed, duplicate-heavy keys, capacity 2: the
   schedule must drive inserts down BOTH paths — joining a live equal-key
   node and linking fresh past a full one — and twice through the same
   seed must be bit-identical (stats included). *)
let run_pinned () =
  let deleted = ref [] in
  let stats = ref None in
  let structural = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run
      ~perturb:{ Machine.sched_seed = 1234L; jitter = 32 }
      (fun () ->
        let q = CO.create ~seed:5L ~capacity:2 () in
        for p = 0 to 3 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int (p + 1)) in
              for i = 0 to 39 do
                if Rng.int rng 100 < 65 then
                  ignore (CO.insert q (Rng.int rng 6) (((p + 1) * 1000) + i))
                else begin
                  match CO.delete_min q with
                  | Some kv -> deleted := kv :: !deleted
                  | None -> ()
                end;
                Machine.work (1 + Rng.int rng 48)
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work (1 lsl 55);
            stats := Some (CO.co_stats q);
            structural := CO.check_invariants q))
  in
  ok_or_fail !structural;
  (Option.get !stats, !deleted)

let test_pinned_join_and_link () =
  let s, deleted = run_pinned () in
  check "schedule exercised the join path" true (s.CO.coalesced_inserts > 0);
  check "schedule exercised the capacity-split path" true (s.CO.node_splits > 0);
  let s', deleted' = run_pinned () in
  check "pinned seed replays bit-identically" true
    (s = s' && deleted = deleted')

(* --- node-pool recycling of value slabs ---------------------------------- *)

let test_slab_recycling_through_pool () =
  (* Churn duplicate keys with reclamation live so drained nodes retire,
     collect, pool and get drawn back out.  Recycled slabs must deliver
     the NEW values: every binding that comes out was put in (values are
     globally unique), nothing is lost, nothing resurrects. *)
  let inserted = ref [] and removed = ref [] in
  let pool = ref None in
  let structural = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let recl = CO.Reclaim.create () in
        let q = CO.create ~seed:99L ~reclamation:recl ~capacity:2 () in
        for i = 0 to 31 do
          let kv = (i mod 8, i) in
          inserted := kv :: !inserted;
          ignore (CO.insert q (fst kv) (snd kv))
        done;
        for p = 0 to 3 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int (100 + p)) in
              for round = 0 to 119 do
                Machine.work (Rng.int rng 2_000);
                if round land 1 = 0 then begin
                  match CO.delete_min q with
                  | Some kv -> removed := kv :: !removed
                  | None -> ()
                end
                else begin
                  let kv = (round mod 8, ((p + 1) * 10_000) + round) in
                  inserted := kv :: !inserted;
                  ignore (CO.insert q (fst kv) (snd kv))
                end
              done)
        done;
        (* Collector passes interleave with the churn. *)
        Machine.spawn (fun () ->
            for _ = 0 to 59 do
              Machine.work 2_000;
              ignore (CO.Reclaim.collect recl)
            done;
            Machine.work (1 lsl 45);
            ignore (CO.Reclaim.collect recl);
            let rec drain () =
              match CO.delete_min q with
              | Some kv ->
                removed := kv :: !removed;
                drain ()
              | None -> ()
            in
            drain ();
            structural := CO.check_invariants q;
            pool := Some (CO.pool_stats q)))
  in
  ok_or_fail !structural;
  let pool = Option.get !pool in
  check "finalizer fed the pool" true (pool.CO.returned > 0);
  check "inserts drew recycled nodes" true (pool.CO.recycled > 0);
  check "pool accounting consistent" true
    (pool.CO.pooled = pool.CO.returned - pool.CO.recycled);
  check "recycled slabs deliver exactly the inserted bindings" true
    (List.sort compare !inserted = List.sort compare !removed)

(* --- batch API ------------------------------------------------------------ *)

let batch_kvs = [| (5, 50); (1, 10); (9, 90); (3, 30); (7, 70); (2, 20) |]

let batch_agrees_with_singles (q_batch : QA.instance) (q_single : QA.instance) =
  q_batch.QA.insert_batch batch_kvs;
  let via_batch = q_batch.QA.delete_min_batch (Array.length batch_kvs + 4) in
  Array.iter (fun (k, v) -> q_single.QA.insert k v) batch_kvs;
  let rec drain acc =
    match q_single.QA.try_delete_min () with
    | Some kv -> drain (kv :: acc)
    | None -> List.rev acc
  in
  let via_singles = drain [] in
  let reference = List.sort compare (Array.to_list batch_kvs) in
  List.sort compare via_batch = reference
  && List.sort compare via_singles = reference

let test_batch_equals_singles () =
  List.iter
    (fun impl ->
      let ok = ref false in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            ok := batch_agrees_with_singles (impl.QA.create ()) (impl.QA.create ()))
      in
      check (impl.QA.name ^ ": batch = singles") true !ok)
    [
      QA.Sim.(plain co_base);
      QA.Sim.(plain co_dedup_base);
      QA.Sim.(plain (relaxed co_base));
      QA.Sim.elim_skipqueue_co ();
    ]

let test_one_node_fulfils_batch () =
  (* Five same-key elements coalesced into one node: a want-4 batch must
     be satisfied out of that single node in ONE hunt pass, FIFO order. *)
  in_sim (fun () ->
      let q = CO.create ~capacity:8 () in
      for i = 1 to 5 do
        ignore (CO.insert q 5 i)
      done;
      ignore (CO.insert q 9 99);
      check_int "all five coalesced" 4 (CO.co_stats q).CO.coalesced_inserts;
      let before = (CO.stats q).CO.hunt_passes in
      let batch = CO.hunt_batch q ~want:4 in
      let claims = CO.batch_claims batch in
      CO.finish_batch q batch;
      Alcotest.(check (list (pair int int)))
        "one node fills the batch, FIFO"
        [ (5, 1); (5, 2); (5, 3); (5, 4) ]
        claims;
      check_int "one hunt pass for the whole batch" (before + 1)
        ((CO.stats q).CO.hunt_passes);
      check "fifth element still queued" true (CO.delete_min q = Some (5, 5));
      check "then the next key" true (CO.delete_min q = Some (9, 99));
      ok_or_fail (CO.check_invariants q))

(* --- registry ------------------------------------------------------------- *)

let test_registry_names () =
  List.iter
    (fun name ->
      check (Printf.sprintf "sim registry lists %s" name) true
        (List.mem name (QA.names QA.Sim));
      check (Printf.sprintf "native registry lists %s" name) true
        (List.mem name (QA.names QA.Native)))
    [
      "SkipQueue-co"; "SkipQueue-co-dedup"; "Relaxed SkipQueue-co";
      "SkipQueue-co-elim"; "bounded:SkipQueue-co";
    ];
  check "dedup flag split across the pair" true
    (not (QA.find QA.Sim "SkipQueue-co").QA.dedups
    && (QA.find QA.Sim "SkipQueue-co-dedup").QA.dedups)

let () =
  Alcotest.run "skipqueue_co"
    [
      ( "lockword",
        [
          QCheck_alcotest.to_alcotest roundtrip_prop;
          QCheck_alcotest.to_alcotest accessors_prop;
          QCheck_alcotest.to_alcotest level_lock_prop;
          QCheck_alcotest.to_alcotest ticket_prop;
          Alcotest.test_case "full lock, bounds and discipline" `Quick
            test_lockword_basics;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "join then split at capacity" `Quick
            test_join_then_split_at_capacity;
          Alcotest.test_case "dedup updates in place" `Quick
            test_dedup_updates_in_place;
          Alcotest.test_case "re-insert after a node drains" `Quick
            test_reinsert_after_node_drained;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest conservation_prop;
          QCheck_alcotest.to_alcotest dedup_model_prop;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "pinned seed joins and links" `Quick
            test_pinned_join_and_link;
        ] );
      ( "reclamation",
        [
          Alcotest.test_case "value slabs recycle through the pool" `Quick
            test_slab_recycling_through_pool;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batch = singles (co back ends)" `Quick
            test_batch_equals_singles;
          Alcotest.test_case "one coalesced node fulfils a batch" `Quick
            test_one_node_fulfils_batch;
        ] );
      ( "registry",
        [ Alcotest.test_case "co names registered" `Quick test_registry_names ] );
    ]
