(* The coalescing SkipQueue (DESIGN.md §S21): the paper's locked skiplist
   with duplicate-key coalescing nodes, after the polymlb exemplars of the
   source paper (SNIPPETS.md 1-2).

   Two changes against {!Skipqueue}:

   - A node holds a bounded multiset of same-key elements: a value slab
     (one shared cell holding the element list, newest first, append-only)
     plus the born/claimed ticket accounting.  Duplicate bursts *shorten*
     the bottom level instead of lengthening it.

   - The per-level lock array and the whole-node lock collapse into one
     packed word ({!Co_lockword}): low [max_level] bits are the level
     locks, the next bit the full-node insert/delete lock, the high bits
     the two element tickets.  Every acquisition/release is a CAS retry
     loop on that single cell, so all of a node's lock traffic charges one
     memory line in the simulator's flat model — the property the
     duplicate-heavy figure measures against the lock-array layout.

   Everything else is {!Locked_skiplist}'s body, shared with {!Skipqueue}:
   find_preds, getLock with revalidation at each level, the bottom-up link
   loop (run while holding the new node's full bit, the node-lock role),
   the top-down unlink loop (predecessor-then-victim level bits, victim's
   pointers redirected backwards), the Delete-min hunt, the batch hooks
   and the views.  This module is the payload: the node cells and their
   registration order, which lock each step takes, that getLock walks
   past equal keys when linking, removal's identity walk to the victim's
   predecessors (equal keys make a key-bounded walk ambiguous), the
   ticket claim in place of the SWAP, the join in place of an in-place
   update, and the per-node and upper-level invariant checks.  The
   deadlock-freedom argument of the original carries over unchanged: the
   full bit is only ever held while acquiring level bits of *other* nodes
   in the same predecessor-before-victim order, and level bits of one
   word are independent (a CAS that loses to a neighbouring bit's change
   just retries).

   Coalescing protocol: insert first walks the run of equal-key nodes at
   the bottom level and tries to join the first live one (count > 0) under
   its full bit — update-in-place when [dedups], multiset admission up to
   [capacity] otherwise.  A full or logically deleted (count = 0) node
   refuses the join; only then does the insert link a fresh node *after*
   every equal-key node (getLock with <= instead of <).

   The delete path never takes a lock.  The word's high bits are two
   monotone tickets (born | claimed — {!Co_lockword}); a claim is ONE
   lock-free CAS advancing [claimed], and the pre-claim ticket names the
   claimed element's position, oldest first, in the node's append-only
   slab.  The slab only ever grows, and always BEFORE the admitting
   join's ticket CAS commits, so a won claim ticket k always finds
   element k in the slab it then reads — joins prepend (newest first),
   which leaves oldest-first positions stable.  Hunters step over dead
   nodes (claimed = born) with a single read; they no longer queue on the
   full bit of a node whose remover is mid-unlink, which is what makes
   the claim path cheaper than the lock-array queue's per-node SWAP hunt
   plus full unlink.  The claim that exhausts the node (claimed reaches
   born; final — joins refuse dead nodes, and a mid-join admission aborts
   and unwinds when it finds the node died under its full bit) publishes
   the death through the original SWAP-marking of the [deleted] flag and
   sends the node through the epoch-reclamation / node-pool path of the
   base queue.  Joins never touch the node's completion stamp: the stamp
   orders *nodes*, and an element joined into an old node only becomes
   claimable earlier than a fresh node would — same key, so no smaller
   settled element is ever skipped and Definition-1 strictness is
   preserved (§S21 discusses why the checkers cannot tell coalescing from
   the flat layout). *)

module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) =
struct
  module L = Locked_skiplist.Make (R) (K)
  open L
  module W = Co_lockword

  type 'v body = {
    slab : 'v list R.shared; (* newest first, append-only; length = born *)
    word : int R.shared; (* {!Co_lockword}: [born | claimed | full | levels] *)
    sentinel_locks : R.lock array;
        (* Empty on element nodes (their level locks are the word's low
           bits).  The HEAD keeps the base queue's per-level fair locks:
           it is the predecessor of every front node at most levels, so
           folding its level locks into one word would funnel every
           front link/unlink through a single memory line — measurably
           the hottest line of the whole structure.  Spreading the one
           node that never coalesces costs nothing the paper's layout
           didn't already pay. *)
  }

  type co_stats = {
    coalesced_inserts : int; (* inserts absorbed into an existing node *)
    node_splits : int; (* fresh links forced by a full live node *)
  }

  (* The layout's queue-wide state, carried by the shared core as its
     [ext]: the packed word's field positions, the multiset knobs and the
     coalescing counters. *)
  type co = {
    layout : W.layout;
    capacity : int;
    dedups : bool;
    broken_torn_dec : bool; (* Broken.co_lockword's planted fault *)
    mutable coalesced_inserts : int;
    mutable node_splits : int;
  }

  (* ---- packed-word locking ----------------------------------------------

     TTAS CAS-spin on the single word.  Safe on the simulator: every read
     and CAS is a charged effect, so a spinning processor advances
     simulated time and the holder gets scheduled.  A CAS lost to a
     *neighbouring* field's change (another level's bit, the count) just
     retries — that cross-field interference is the single-line cost the
     layout deliberately accepts. *)

  let rec acquire_level_packed x node i =
    let w = R.read node.body.word in
    if W.level_locked x.layout w i then acquire_level_packed x node i
    else if not (R.cas node.body.word w (W.lock_level x.layout w i)) then
      acquire_level_packed x node i

  let acquire_level x node i =
    if Array.length node.body.sentinel_locks > 0 then
      R.acquire node.body.sentinel_locks.(i - 1)
    else acquire_level_packed x node i

  let rec release_level_packed x node i =
    let w = R.read node.body.word in
    let w' = W.unlock_level x.layout w i in
    if not (R.cas node.body.word w w') then release_level_packed x node i

  let release_level x node i =
    if Array.length node.body.sentinel_locks > 0 then
      R.release node.body.sentinel_locks.(i - 1)
    else release_level_packed x node i

  let rec acquire_full x node =
    let w = R.read node.body.word in
    if W.full_locked x.layout w then acquire_full x node
    else if not (R.cas node.body.word w (W.lock_full x.layout w)) then
      acquire_full x node

  (* One-shot acquire for callers with a fallback: a single observation
     and at most one CAS, so a busy or contended word costs two accesses
     instead of a spin on what is typically the structure's hottest
     line. *)
  let try_acquire_full x node =
    let w = R.read node.body.word in
    (not (W.full_locked x.layout w))
    && R.cas node.body.word w (W.lock_full x.layout w)

  (* Release the full bit, leaving the count alone. *)
  let rec release_full x node =
    let w = R.read node.body.word in
    let w' = W.unlock_full x.layout w in
    if not (R.cas node.body.word w w') then release_full x node

  (* Release the full bit and commit [transition] (a ticket move — admit,
     or claim+admit for a dedup update) in the same CAS: a join's
     admission and its lock release are one atomic word transition.  The
     claim path is lock-free, so the node can die (claimed catches born)
     even while we hold the full bit; death is final, so the loop refuses
     with [false] — WITHOUT releasing the bit, because the caller must
     unwind its slab append before any other join can see the slab. *)
  let rec release_full_committing x node ~transition =
    let w = R.read node.body.word in
    if W.count x.layout w = 0 then false
    else
      let w' = W.unlock_full x.layout (transition w) in
      if R.cas node.body.word w w' then true
      else release_full_committing x node ~transition

  (* Slab position helpers: [list_drop]/[list_take] index the bounded slab
     (length <= capacity, so the O(n) walk is cheap and lock-free). *)
  let rec list_drop n l =
    if n = 0 then l
    else match l with _ :: tl -> list_drop (n - 1) tl | [] -> assert false

  let rec list_take n l =
    if n = 0 then []
    else match l with v :: tl -> v :: list_take (n - 1) tl | [] -> assert false

  (* The packed word in the lock roles of Figs. 9-11: its level bits are
     the level locks and its full bit the node lock; equal keys are legal,
     and a fresh duplicate links after every equal-key node. *)
  module Payload = struct
    type nonrec 'v body = 'v body
    type ext = co
    type 'v taken = 'v list (* oldest first *)

    (* Registration order, which fixes the simulator's line ids: key,
       slab, word, deleted flag, stamp, then (head only) the sentinel
       locks.  An element node is born holding its own full bit: the
       linking insert releases it once every level is spliced (the
       node-lock role of Fig. 10).  Sentinels are born marked. *)
    let fresh x ~key:bkey v ~level =
      let elem = Option.is_some v in
      let key = R.shared bkey in
      let slab = R.shared (Option.to_list v) in
      let word =
        R.shared
          (W.encode x.layout
             { W.born = Bool.to_int elem; claimed = 0; full = elem; levels = [] })
      in
      let deleted = R.shared (not elem) in
      let stamp = R.shared max_int in
      let sentinel_locks =
        match bkey with
        | Bottom -> Array.init level (fun _ -> R.lock_create ~name:"sq-co-head" ())
        | Key _ | Top -> [||]
      in
      {
        key;
        body = { slab; word; sentinel_locks };
        level;
        next = [||];
        deleted;
        stamp;
        poisoned = false;
      }

    let refresh x node v =
      R.refresh node.body.slab [ v ];
      R.refresh node.body.word
        (W.encode x.layout { W.born = 1; claimed = 0; full = true; levels = [] })

    let acquire_level = acquire_level
    let release_level = release_level
    let acquire_node = acquire_full
    let release_node = release_full
    let past c = c <= 0

    (* Physical removal's predecessor lock must identify the predecessor
       of one *specific* node: with duplicate keys a key-bounded getLock
       can stop one equal-key node short (or late).  Identity walk with
       the same acquire-revalidate shape; the victim stays linked at this
       level until its (unique) remover unlinks it, so the walk
       terminates.  Each step reuses the one successor value it tested:
       re-reading the pointer between the test and the step opens a
       window in which a concurrent removal redirects it to the victim
       itself — the walk then stands on the victim, steps through its
       forward pointer, and runs past it to the tail. *)
    let at_victim _ victim node = node == victim
    let before_victim = at_victim

    (* Deadness first, with ONE word read — before the stamp: most steps
       under contention land on not-yet-unlinked dead nodes (or a
       sentinel reached through a backward pointer), and they should cost
       neither a stamp-line read nor a CAS.  A claim is ONE lock-free CAS
       advancing the claimed ticket — possibly by several, which is how a
       combiner's whole batch can be served by a single coalesced node.
       The pre-claim ticket names the won elements' oldest-first slab
       positions, so the winner reads the slab AFTER the CAS with no lock
       and no slab write.  Only the claim that exhausts the node marks it
       (through the original SWAP, asserting sole ownership) for physical
       removal.  Elements pop oldest-first, so within one key delivery is
       FIFO.

       The planted [broken_torn_dec] fault (Broken.co_lockword) decays the
       claim CAS into a read, a few scheduler points, and a plain write
       computed from the stale word: a level bit acquired or released in
       between tears away — a leaked bit wedges the next acquirer
       (watchdog), a lost one lets two processors splice the same pointer
       — and a concurrent claim of the same ticket delivers one element
       twice (conservation). *)
    let claim x node ~stale ~want =
      let w = R.read node.body.word in
      let c = W.count x.layout w in
      if c = 0 then Dead
      else if stale node then Stale
      else begin
        let take = Int.min c want in
        let w' = W.claim_n x.layout w take in
        let committed =
          if x.broken_torn_dec then begin
            ignore (R.read node.stamp);
            ignore (R.read node.stamp);
            ignore (R.read node.stamp);
            R.write node.body.word w';
            true
          end
          else R.cas node.body.word w w'
        in
        if not committed then Lost
        else begin
          let claimed_at = W.claimed x.layout w in
          (* Our elements are oldest-first positions claimed_at + 1
             .. claimed_at + take, i.e. stable positions from the END of
             the newest-first slab.  The slab may transiently carry an
             uncommitted join's element at the front; it sits past the
             born ticket we claimed against and never shifts ours. *)
          let slab = R.read node.body.slab in
          let len = List.length slab in
          let ours = List.rev (list_take take (list_drop (len - claimed_at - take) slab)) in
          let exhausted = claimed_at + take = W.born x.layout w in
          if exhausted then begin
            (* Our CAS moved claimed onto born: death, which is final
               (joins refuse dead nodes; a join holding the full bit right
               now will detect this and unwind). *)
            let marked = R.swap node.deleted true in
            assert (not marked)
          end;
          Claimed { taken = ours; count = take; exhausted }
        end
      end

    let settle k vs = List.map (fun v -> (k, v)) vs

    (* The slab is append-only and holds every element ever admitted; the
       live ones are the newest [born - claimed]. *)
    let live x node =
      let c = W.count x.layout (R.read node.body.word) in
      if c = 0 then [] else List.rev (list_take c (R.read node.body.slab))

    (* Word quiescent (no lock bits); an element node live, its slab as
       long as its born ticket, born within capacity, and exactly one live
       element under [dedups]. *)
    let check_node x key node =
      let decoded = W.decode x.layout (R.read node.body.word) in
      if decoded.W.full || decoded.W.levels <> [] then Error "lock bits held at quiescence"
      else
        match key with
        | Key _ ->
          let c = decoded.W.born - decoded.W.claimed in
          if c = 0 then Error "empty (logically deleted) node still linked"
          else if decoded.W.born > x.capacity then Error "born ticket above capacity"
          else if List.length (R.read node.body.slab) <> decoded.W.born then
            Error "slab length disagrees with the born ticket"
          else if x.dedups && c <> 1 then
            Error "dedup-mode node holds more than one live element"
          else Ok ()
        | Bottom | Top -> Ok ()
  end

  include Queue (Payload)

  let create ?(mode = Strict) ?(p = 0.5) ?(max_level = 20) ?(seed = 0x5EEDL)
      ?reclamation ?(capacity = 4) ?(dedups = false)
      ?(broken_torn_dec = false) () =
    Locked_skiplist.check_args ~who:"Skipqueue_co" ~p ~max_level;
    let layout = W.make ~max_level in
    if capacity < 1 || capacity > W.count_capacity layout then
      invalid_arg
        (Printf.sprintf "Skipqueue_co.create: capacity outside [1, %d]"
           (W.count_capacity layout));
    make ~mode ~p ~max_level ~seed ~reclamation
      {
        layout;
        capacity;
        dedups;
        broken_torn_dec;
        coalesced_inserts = 0;
        node_splits = 0;
      }

  let co_stats t =
    {
      coalesced_inserts = t.ext.coalesced_inserts;
      node_splits = t.ext.node_splits;
    }

  (* The join pass: walk the bottom-level run of equal-key nodes and try
     to coalesce into the first live admissible one.  Inside the
     reclamation critical section a node's key cell cannot be recycled
     under us, so the key read before the full-bit acquisition stays
     valid.  Death (claimed = born) is final — joining would revive a node
     whose exhausting claimant already serialized its emptiness — so a
     dead node just refuses and the walk continues; because tickets are
     monotone, so does a node whose born ticket reached [capacity], even
     if claims have since drained part of it.  A join appends its value to
     the slab FIRST and only then commits the admit in the full-bit
     release CAS ([release_full_committing]); claims are lock-free, so the
     node can die under our held full bit, in which case the commit
     refuses and the join unwinds the append and walks on.  Under
     [dedups] the commit is claim+admit in one CAS: the superseded element
     is discarded and the replacement admitted atomically, which is what
     keeps a concurrent delete-min from delivering a value the update
     believes it replaced.  Returns [`Link (saw_full, superseded)] when a
     fresh node is needed; [saw_full] records whether a live node whose
     tickets ran out forced the split (the [node_splits] counter), and
     [superseded] whether the walk discarded a present element on the way
     (the fresh link is then still an [`Updated] for the caller). *)
  let rec try_join t bkey value node ~saw_full ~superseded =
    let x = t.ext in
    match bound_compare (read_key node) bkey with
    | c when c > 0 -> `Link (saw_full, superseded)
    | c when c < 0 ->
      (* Concurrent motion: a backward pointer of a removed node, or a
         smaller-key node linked since our search.  Walk on. *)
      try_join t bkey value (read_next node 1) ~saw_full ~superseded
    | _ ->
      let peek = R.read node.body.word in
      if W.count x.layout peek = 0 then
        (* Dead (or mid-removal): refuse with ONE read, without touching
           the full bit — its remover may be holding the bit across the
           whole unlink, and queueing behind it would stall both. *)
        try_join t bkey value (read_next node 1) ~saw_full ~superseded
      else if W.born x.layout peek >= x.capacity && not x.dedups then begin
        (* Monotone tickets: born at capacity can never admit again, so
           no need to take the lock to confirm. *)
        try_join t bkey value (read_next node 1) ~saw_full:true ~superseded
      end
      else if not x.dedups && not (try_acquire_full x node) then
        (* Multiset mode: joining is an optimization, not an obligation —
           a busy full bit means another join (or this node's unlinking
           remover) already owns the hottest line in the neighbourhood,
           and walking on to link fresh is cheaper than spinning there.
           Dedup mode cannot skip: update-in-place is a semantic
           obligation, so it takes the blocking acquire below. *)
        try_join t bkey value (read_next node 1) ~saw_full:true ~superseded
      else begin
        if x.dedups then acquire_full x node;
        let w = R.read node.body.word in
        if W.count x.layout w = 0 then begin
          release_full x node;
          try_join t bkey value (read_next node 1) ~saw_full ~superseded
        end
        else if W.born x.layout w >= x.capacity then
          if not x.dedups then begin
            release_full x node;
            try_join t bkey value (read_next node 1) ~saw_full:true ~superseded
          end
          else begin
            (* The replacement cannot be admitted here.  Discard the
               superseded element (a bare claim) and link the replacement
               fresh; exhausting the node makes us its sole owner exactly
               as a winning delete-min claim does. *)
            let superseded =
              if release_full_committing x node ~transition:(W.claim x.layout)
              then begin
                let marked = R.swap node.deleted true in
                assert (not marked);
                physically_remove t node bkey;
                true
              end
              else begin
                release_full x node;
                superseded
              end
            in
            try_join t bkey value (read_next node 1) ~saw_full:true ~superseded
          end
        else begin
          let old_slab = R.read node.body.slab in
          R.write node.body.slab (value :: old_slab);
          let transition w =
            if x.dedups then W.claim x.layout (W.admit x.layout w)
            else W.admit x.layout w
          in
          if release_full_committing x node ~transition then begin
            if x.dedups then `Joined `Updated
            else begin
              x.coalesced_inserts <- x.coalesced_inserts + 1;
              `Joined `Inserted
            end
          end
          else begin
            R.write node.body.slab old_slab;
            release_full x node;
            try_join t bkey value (read_next node 1) ~saw_full ~superseded
          end
        end
      end

  let insert t key value =
    enter t;
    let bkey = Key key in
    let saved = find_preds t bkey in
    let result =
      match
        try_join t bkey value (read_next saved.(0) 1) ~saw_full:false
          ~superseded:false
      with
      | `Joined r -> r
      | `Link (saw_full, superseded) ->
        if saw_full then t.ext.node_splits <- t.ext.node_splits + 1;
        let level = random_level t in
        let new_node = alloc_node t ~key:bkey value ~level in
        (* Born holding its own full bit (node-lock role); link bottom-up
           after all equal keys, then open for joins and claims. *)
        let node1 = get_lock t bkey saved.(0) 1 in
        link t bkey saved node1 new_node;
        if superseded then `Updated else `Inserted
    in
    exit t;
    result

  (* Bottom level as checked by the core and the payload.  Upper levels:
     every linked node must be tall enough, appear in the bottom list (by
     identity — keys cannot distinguish duplicates), and keys must be
     non-decreasing.  Unlike the unique-key queue we do not demand that
     level i be an exact subsequence of level i-1: two concurrent inserts
     of the same key may splice their nodes into an equal-key run in
     different relative orders at different levels, which no search can
     observe (searches stop strictly before, or strictly after, a whole
     run). *)
  let check_invariants t =
    let ( let* ) = Result.bind in
    let* () = check_bottom t in
    let bottom_nodes =
      let rec go acc node =
        if node == t.tail then acc else go (node :: acc) (read_next node 1)
      in
      go [] (read_next t.head 1)
    in
    let rec check_level i prev node =
      if node == t.tail then Ok ()
      else if node.level < i then
        Error (Printf.sprintf "level %d links through a height-%d node" i node.level)
      else if not (List.memq node bottom_nodes) then
        Error (Printf.sprintf "level %d node missing from the bottom level" i)
      else
        let key = read_key node in
        let* () =
          if bound_compare prev key <= 0 then Ok ()
          else Error (Printf.sprintf "level %d keys decreasing" i)
        in
        check_level i key (read_next node i)
    in
    let rec check_levels i =
      if i > t.max_level then Ok ()
      else
        let* () = check_level i Bottom (read_next t.head i) in
        check_levels (i + 1)
    in
    check_levels 2
end
