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
module LS = Repro_skipqueue.Locked_skiplist

let registry_procs = 16 (* default_workload concurrency; constructors with
                           structural parameters take it from here *)

(* The element-at-a-time bulk paths every backend gains for free. *)
let insert_each insert kvs = Array.iter (fun (k, v) -> insert k v) kvs

let drain try_delete_min want =
  let rec go acc n =
    if n <= 0 then List.rev acc
    else
      match try_delete_min () with
      | Some kv -> go (kv :: acc) (n - 1)
      | None -> List.rev acc
  in
  go [] want

(* What the name grammar composes on one runtime: each locked-skiplist
   base with its [relaxed]/[elim] combinators applied on request, the
   other bases (those the grammar can only wrap in [bounded:]), the
   runtime-only ones, the k-LSM family and the façade. *)
type runtime = {
  locked : (string * (relaxed:bool -> elim:bool -> impl)) list;
  others : impl list;
  extra : impl list;
  klsm : int -> impl;
  bounded : impl -> impl;
}

module Over (R : Repro_runtime.Runtime_intf.S) = struct
  module SQ = Repro_skipqueue.Skipqueue.Make (R) (Key)
  module LF = Repro_skipqueue.Skipqueue_lf.Make (R) (Key)
  module CO = Repro_skipqueue.Skipqueue_co.Make (R) (Key)
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

     Structures with a genuine batch path (the locked skiplists'
     [hunt_batch], the k-LSM's block publish) pass it here; {!instance}
     passes the element-at-a-time loops.  Both count [ops] per element,
     like the loops they replace. *)
  let counted ~insert ~insert_batch ~try_delete_min ~delete_min_batch ~stats =
    let ops = ref 0 in
    let base_acq, base_fail = R.lock_stats () in
    let rec poll_pop () =
      match try_delete_min () with
      | Some kv -> kv
      | None ->
        R.yield ();
        poll_pop ()
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
          insert_batch kvs);
      delete_min_batch =
        (fun want ->
          let r = delete_min_batch want in
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

  let instance ~insert ~try_delete_min ~stats =
    counted ~insert ~insert_batch:(insert_each insert) ~try_delete_min
      ~delete_min_batch:(drain try_delete_min) ~stats

  (* ---- locked-skiplist bases and their combinators ---------------------- *)

  (* A locked-skiplist base: the paper's SkipQueue or the coalescing one
     (DESIGN.md §S21).  Each supplies its module, its registry name, its
     duplicate-key contract and its counters once; [plain], [relaxed] and
     [elim] below serve every base alike. *)
  module type LOCKED = sig
    include Repro_skipqueue.Elimination.BACKING with type key = int

    val name : string
    val dedups : bool
    val create : LS.mode -> 'v t
    val delete_min : 'v t -> (int * 'v) option
    val stats : 'v t -> (string * float) list
  end

  type locked = { base : (module LOCKED); mode : LS.mode }

  let hunt_stats (s : LS.op_stats) =
    [
      ("hunt_steps", float_of_int s.hunt_steps);
      ("swap_losses", float_of_int s.swap_losses);
      ("stale_skips", float_of_int s.stale_skips);
      ("hunt_passes", float_of_int s.hunt_passes);
    ]

  let sq_base ~p ~max_level =
    {
      base =
        (module struct
          include SQ

          let name = "SkipQueue"
          let dedups = true
          let create mode = SQ.create ~mode ?p ?max_level ()
          let stats q = hunt_stats (SQ.stats q)
        end : LOCKED);
      mode = LS.Strict;
    }

  let skipqueue_base = sq_base ~p:None ~max_level:None

  (* The coalescing SkipQueue: duplicate-key multiset nodes behind one
     packed lock word.  Under [dedups] an insert of a present key updates
     it in place, as in the base queue, so the check harness tags keys
     unique and exercises the join/link machinery's dedup paths rather
     than the multiset admission. *)
  let co_base_with ~name ~dedups =
    {
      base =
        (module struct
          include CO

          let name = name
          let dedups = dedups
          let create mode = CO.create ~mode ~dedups ()

          let stats q =
            let c = CO.co_stats q in
            hunt_stats (CO.stats q)
            @ [
                ("coalesced_inserts", float_of_int c.CO.coalesced_inserts);
                ("node_splits", float_of_int c.CO.node_splits);
              ]
        end : LOCKED);
      mode = LS.Strict;
    }

  let co_base = co_base_with ~name:"SkipQueue-co" ~dedups:false
  let co_dedup_base = co_base_with ~name:"SkipQueue-co-dedup" ~dedups:true

  (* The paper's §5.4 variant: the same structure without timestamps. *)
  let relaxed l = { l with mode = LS.Relaxed }

  (* The spec rule: a strict base is [Linearizable], a relaxed one
     [Relaxed]; [elim] and [bounded] keep whatever they wrap. *)
  let name_and_spec { base = (module B); mode } =
    match mode with
    | LS.Strict -> (B.name, Linearizable)
    | LS.Relaxed -> ("Relaxed " ^ B.name, Relaxed)

  let plain ({ base = (module B); mode } as l) =
    let name, spec = name_and_spec l in
    {
      name;
      dedups = B.dedups;
      spec;
      create =
        (fun () ->
          let q = B.create mode in
          let insert k v = ignore (B.insert q k v) in
          (* Native bulk delete: one bottom-level hunt claims up to [want]
             elements, then one physical-removal pass — the marked-prefix
             walk is shared instead of repeated, and one coalesced node can
             satisfy a whole batch. *)
          counted ~insert ~insert_batch:(insert_each insert)
            ~try_delete_min:(fun () -> B.delete_min q)
            ~delete_min_batch:(fun want ->
              if want <= 0 then []
              else begin
                let batch = B.hunt_batch q ~want in
                let kvs = B.batch_claims batch in
                B.finish_batch q batch;
                kvs
              end)
            ~stats:(fun () -> B.stats q));
    }

  (* Elimination–combining front end (Calciu, Mendes & Herlihy) over a
     locked base: rendezvous in an adaptive array when the inserted key is
     strictly below both the deleter's published bound and the inserter's
     own fresh observation of the minimum; timed-out deleters combine one
     shared bottom-level hunt.  The front end preserves the backing
     queue's contract (DESIGN.md §S15), so the spec and [dedups] carry
     over; an eliminated key is strictly below every settled element, so
     over the coalescing base it can never coalesce either. *)
  let elim ({ base = (module B); mode } as l) =
    let module E = Repro_skipqueue.Elimination.Over (R) (Key) (B) in
    let name, spec = name_and_spec l in
    {
      name = name ^ "-elim";
      dedups = B.dedups;
      spec;
      create =
        (fun () ->
          let q = E.create ~backing:(fun () -> B.create mode) () in
          instance
            ~insert:(fun k v -> ignore (E.insert q k v))
            ~try_delete_min:(fun () -> E.delete_min q)
            ~stats:(fun () ->
              let f = E.front_stats q in
              [
                ("eliminated", float_of_int f.E.eliminated);
                ("fresh_refusals", float_of_int f.E.fresh_refusals);
                ("served", float_of_int f.E.served);
                ("handoff_empties", float_of_int f.E.handoff_empties);
                ("batches", float_of_int f.E.batches);
                ("timeouts", float_of_int f.E.timeouts);
                ("collisions", float_of_int f.E.collisions);
                ("width", float_of_int f.E.width);
                ("window", float_of_int f.E.window);
              ]
              @ B.stats (E.backing q)));
    }

  let skipqueue ?p ?max_level () = plain (sq_base ~p ~max_level)
  let elim_skipqueue_co () = elim co_base

  (* ---- the other backends ------------------------------------------------ *)

  (* Lock-free SkipQueue (DESIGN.md S19): CAS-linked insert, CAS-marked
     logical deletion, batched physical unlinking through epoch
     reclamation.  Multiset semantics — duplicate keys are distinct
     instances ([dedups = false]); linearizable without the paper's
     timestamps (the claim CAS is Delete-min's linearization point). *)
  let skipqueue_lf () =
    {
      name = "SkipQueue-lf";
      dedups = false;
      spec = Linearizable;
      create =
        (fun () ->
          let q = LF.create () in
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
              ]));
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
            ~stats:(fun () -> []));
    }

  let funnel_list () =
    {
      name = "FunnelList";
      dedups = false;
      spec = Linearizable;
      create =
        (fun () ->
          let q = FL.create () in
          instance
            ~insert:(fun k v -> FL.insert q k v)
            ~try_delete_min:(fun () -> FL.delete_min q)
            ~stats:(fun () ->
              let s = FL.funnel_stats q in
              [
                ("batches", float_of_int s.Funnel.batches);
                ("combines", float_of_int s.Funnel.combines);
                ("largest_batch", float_of_int s.Funnel.largest_batch);
              ]));
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
            ~stats:(fun () -> []));
    }

  let multiqueue ?shards ?choice ?heap_cycles_per_level ~procs () =
    {
      name = "MultiQueue";
      dedups = false;
      spec = Rank_bounded;
      create =
        (fun () ->
          let q = MQ.create ?shards ?choice ?heap_cycles_per_level ~procs () in
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
              ]));
    }

  (* The k-LSM relaxed backend ({!Repro_klsm.Klsm}): per-processor
     insertion buffers merged log-structurally into a CAS-published block
     list, rank error bounded by [k].  Both bulk entry points are native —
     [insert_batch] publishes the (sorted) batch as one block, and
     [delete_min_batch] claims through one per-processor state
     acquisition. *)
  let klsm ?search_cycles ~k ~procs () =
    {
      name = Printf.sprintf "klsm:%d" k;
      dedups = false;
      spec = Rank_bounded;
      create =
        (fun () ->
          let q = KL.create ?search_cycles ~k ~procs () in
          counted
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
              ]));
    }

  (* Ablation A1: Delete-mins regulated by a combining funnel in front of
     the SkipQueue (§5 "We tried using a funnel to regulate access of
     deleting processors at the bottom level of the SkipList"). *)
  type funnel_req = { mutable result : (int * int) option; mutable done_ : bool }

  let funneled_skipqueue () =
    {
      name = "SkipQueue + delete funnel";
      dedups = true;
      spec = Linearizable;
      create =
        (fun () ->
          let q = SQ.create ~mode:SQ.Strict () in
          let funnel =
            Funnel.create
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
            ~stats:(fun () -> []));
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
            insert_batch = insert_each (Bounded.insert_wait b);
            delete_min_batch = drain (fun () -> Bounded.try_delete_min b);
            stats = (fun () -> Bounded.stats b @ inner.stats ());
          });
    }

  (* The grammar's view of this runtime.  [mq] and [klsm] come from the
     runtime's own constructors (the native ones drop the simulated
     charges for host-side work); [extra] holds the runtime-only
     bases. *)
  let runtime ~mq ~klsm extra =
    {
      locked =
        List.map
          (fun b ->
            ( fst (name_and_spec b),
              fun ~relaxed:r ~elim:e ->
                (if e then elim else plain) (if r then relaxed b else b) ))
          [ skipqueue_base; co_base; co_dedup_base ];
      others = [ skipqueue_lf (); hunt_heap (); funnel_list (); mq ];
      extra;
      klsm;
      bounded = (fun impl -> bounded impl);
    }
end

module Sim = struct
  include Over (Repro_sim.Sim_runtime)

  (* Ablation A4: the SkipQueue with the paper's §3 reclamation protocol
     active and a dedicated collector processor (the paper assigns one
     processor to garbage collection in its benchmarks), sweeping every
     20000 cycles for 500 passes plus once after quiescence. *)
  let skipqueue_with_reclamation () =
    {
      name = "SkipQueue + reclamation";
      dedups = true;
      spec = Linearizable;
      create =
        (fun () ->
          let recl = SQ.Reclaim.create () in
          let q = SQ.create ~mode:SQ.Strict ~reclamation:recl () in
          Repro_sim.Machine.spawn (fun () ->
              for _ = 1 to 500 do
                Repro_sim.Machine.work 20_000;
                ignore (SQ.Reclaim.collect recl)
              done;
              (* final sweep once everything quiesced *)
              Repro_sim.Machine.work (1 lsl 45);
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
              ]));
    }

  let runtime =
    runtime
      ~mq:(multiqueue ~procs:registry_procs ())
      ~klsm:(fun k -> klsm ~k ~procs:registry_procs ())
      [ funneled_skipqueue (); skipqueue_with_reclamation (); bin_queue ~range:65_536 () ]
end

module Native = struct
  include Over (Repro_runtime.Native_runtime)

  (* Real heap operations cost real time on this backend; no simulated
     walk charge on top. *)
  let multiqueue ?shards ?choice ~procs () =
    multiqueue ?shards ?choice ~heap_cycles_per_level:0 ~procs ()

  (* Same reasoning: the binary searches and merge walks are real work. *)
  let klsm ~k ~procs () = klsm ~search_cycles:0 ~k ~procs ()

  let runtime =
    runtime
      ~mq:(multiqueue ~procs:registry_procs ())
      ~klsm:(fun k -> klsm ~k ~procs:registry_procs ())
      []
end

(* ---- name grammar ------------------------------------------------------- *)

type backend = Sim | Native

let runtime = function Sim -> Sim.runtime | Native -> Native.runtime

(* Lookups tolerate case and spacing so CLI spellings like "skipqueue" or
   "relaxedskipqueue" resolve. *)
let normalize name =
  String.lowercase_ascii
    (String.concat "" (String.split_on_char ' ' name))

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let strip_prefix prefix s =
  if has_prefix prefix s then
    (true, String.sub s (String.length prefix) (String.length s - String.length prefix))
  else (false, s)

let strip_suffix suffix s =
  let n = String.length s and m = String.length suffix in
  if n >= m && String.sub s (n - m) m = suffix then (true, String.sub s 0 (n - m))
  else (false, s)

(* ---- klsm:<k> names ----------------------------------------------------- *)

let klsm_prefix = "klsm:"

(* Parse a name of the exact form "klsm:<k>".  [Error] distinguishes a
   malformed rank bound from a name that is not a klsm spelling at all,
   so {!find} can report "klsm:abc" / "klsm:0" precisely instead of
   falling through to the generic registry miss. *)
let parse_klsm name =
  let n = normalize name in
  if not (has_prefix klsm_prefix n) then
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

(* The registry, in listing order.  The bounded entries' capacity (1024)
   is far above what the standard mixed-ops check profile admits, so they
   behave as their inner backend under that sweep; capacity pressure is
   exercised by the dedicated blocking harness. *)
let registry_names backend =
  [
    "SkipQueue"; "Relaxed SkipQueue"; "SkipQueue-lf"; "SkipQueue-co";
    "SkipQueue-co-dedup"; "Relaxed SkipQueue-co"; "SkipQueue-elim";
    "Relaxed SkipQueue-elim"; "SkipQueue-co-elim"; "Heap"; "FunnelList";
    "MultiQueue"; "klsm:256";
  ]
  @ List.map (fun i -> i.name) (runtime backend).extra
  @ List.map (( ^ ) "bounded:")
      [ "SkipQueue"; "Relaxed SkipQueue"; "SkipQueue-lf"; "SkipQueue-co"; "Heap"; "MultiQueue" ]

(* Parses [bounded:][Relaxed ]<base>[-elim] or [bounded:]klsm:<k> and
   applies each part through its combinator; "Relaxed" and "-elim" need a
   locked-skiplist base. *)
let find backend name =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Queue_adapter.find: " ^ m)) fmt in
  let rt = runtime backend in
  let bounded, n = strip_prefix "bounded:" (normalize name) in
  let relaxed, n = strip_prefix "relaxed" n in
  let elim, n = strip_suffix "-elim" n in
  let unlocked what =
    fail "cannot build %S: %s applies only to %s" name what
      (String.concat ", " (List.map fst rt.locked))
  in
  let inner =
    match List.find_opt (fun (b, _) -> normalize b = n) rt.locked with
    | Some (_, compose) -> compose ~relaxed ~elim
    | None ->
      let base =
        if has_prefix "bounded:" n then fail "cannot build %S: bounded: applies once" name
        else if has_prefix klsm_prefix n then
          match parse_klsm n with Ok k -> rt.klsm k | Error msg -> fail "%s" msg
        else
          match List.find_opt (fun i -> normalize i.name = n) (rt.others @ rt.extra) with
          | Some impl -> impl
          | None ->
            fail "unknown implementation %S (known: %s)" name
              (String.concat ", " (List.sort String.compare (registry_names backend)))
      in
      if relaxed then unlocked "Relaxed"
      else if elim then unlocked "-elim"
      else base
  in
  if bounded then rt.bounded inner else inner

let all backend = List.map (find backend) (registry_names backend)
let names backend = List.map (fun i -> i.name) (all backend)
