(* Two-lock bounded/blocking façade over any int-keyed priority queue.

   Shape: the classic two-lock blocking queue (one lock per end, an atomic
   size, and one condition per direction, each tied to its end's lock).
   Producers serialize on [push_lock] and park on [not_full]; consumers
   serialize on [pop_lock] and park on [not_empty].  The two invariants
   that make this lost-wakeup-free:

   - A waiter count ([full_waiters]/[empty_waiters]) is only mutated by a
     processor holding the owning lock, and [cond_wait] releases that lock
     only at the instant it parks — so a signaler holding the same lock
     either sees the waiter already parked or sees the count before the
     increment, never a half-armed waiter.
   - Cross-side notifications ([notify_not_empty]/[notify_not_full])
     acquire the other end's lock before signaling.  Signaling without it
     races the other side's test-then-park window; that bug is available
     behind [broken_wakeup] as the fuzzer's lost-wakeup mutant.

   Edge transitions signal ([old = 0] for empty->nonempty, [old =
   capacity] for full->notfull) and same-side chain-signals propagate the
   wake while elements/room and waiters remain — without the chains, two
   parked consumers woken by a single empty->nonempty transition would
   strand one of them forever (see DESIGN.md §18 for the argument).

   Lock ordering: consumers may acquire [push_lock] while holding
   [pop_lock] (credit burn / full->notfull notification); no processor
   ever waits for [pop_lock] while holding [push_lock] (producers notify
   after releasing), so the nesting is acyclic. *)

module Make (R : Repro_runtime.Runtime_intf.S) = struct
  type counters = {
    mutable parks : int; (* consumer parks on not_empty *)
    mutable wakes : int; (* signals actually sent, both conditions *)
    mutable backpressure_stalls : int; (* producer parks on not_full *)
  }

  type t = {
    capacity : int;
    dedups : bool;
    broken : bool; (* lost-wakeup mutant (fuzzer self-test only) *)
    backend_insert : int -> int -> unit;
    backend_pop : unit -> (int * int) option;
    push_lock : R.lock;
    pop_lock : R.lock;
    not_full : R.cond; (* tied to push_lock *)
    not_empty : R.cond; (* tied to pop_lock *)
    size : int R.shared;
    mutable full_waiters : int; (* guarded by push_lock *)
    mutable empty_waiters : int; (* guarded by pop_lock *)
    c : counters;
  }

  let create ~capacity ?(dedups = false) ?(broken_wakeup = false)
      ?(name = "bounded") ~insert ~try_delete_min () =
    if capacity < 1 then invalid_arg "Bounded_queue.create: capacity < 1";
    let push_lock = R.lock_create ~name:(name ^ ".push") () in
    let pop_lock = R.lock_create ~name:(name ^ ".pop") () in
    {
      capacity;
      dedups;
      broken = broken_wakeup;
      backend_insert = insert;
      backend_pop = try_delete_min;
      push_lock;
      pop_lock;
      not_full = R.cond_create ~name:(name ^ ".not_full") push_lock;
      not_empty = R.cond_create ~name:(name ^ ".not_empty") pop_lock;
      size = R.shared ~name:(name ^ ".size") 0;
      full_waiters = 0;
      empty_waiters = 0;
      c = { parks = 0; wakes = 0; backpressure_stalls = 0 };
    }

  let capacity t = t.capacity

  (* [size] is mutated under two different locks (increments under
     [push_lock], decrements under [pop_lock]), so it needs a real atomic
     read-modify-write. *)
  let rec fetch_add cell d =
    let v = R.read cell in
    if R.cas cell v (v + d) then v else fetch_add cell d

  let size t = R.read t.size

  let notify_not_empty t =
    if t.broken then
      (* MUTANT: signal without holding [pop_lock].  A consumer that has
         read [size = 0] but not yet parked misses this signal forever. *)
      R.cond_signal t.not_empty
    else begin
      R.acquire t.pop_lock;
      if t.empty_waiters > 0 then begin
        t.c.wakes <- t.c.wakes + 1;
        R.cond_signal t.not_empty
      end;
      R.release t.pop_lock
    end

  let notify_not_full t =
    if t.broken then R.cond_signal t.not_full
    else begin
      R.acquire t.push_lock;
      if t.full_waiters > 0 then begin
        t.c.wakes <- t.c.wakes + 1;
        R.cond_signal t.not_full
      end;
      R.release t.push_lock
    end

  let insert_wait t k v =
    R.acquire t.push_lock;
    while R.read t.size >= t.capacity do
      t.full_waiters <- t.full_waiters + 1;
      t.c.backpressure_stalls <- t.c.backpressure_stalls + 1;
      R.cond_wait t.not_full;
      t.full_waiters <- t.full_waiters - 1
    done;
    (* Credit order.  A non-deduplicating backend gets its size credit
       reserved before the element is inserted: a credit taken after the
       insert lets a consumer pop the in-flight element against an older
       element's credit, so size reads 0 while that older element is still
       queued and the next consumer returns EMPTY.  A reserved credit whose
       element has not landed yet reads as a backend [None], which [take]
       retries.  A deduplicating backend keeps the post-insert credit: there
       [take] burns a [None]-backed credit as stale (an insert absorbed as an
       in-place update), which would destroy a reserved, in-flight one. *)
    let old =
      if t.dedups then begin
        t.backend_insert k v;
        fetch_add t.size 1
      end
      else begin
        let old = fetch_add t.size 1 in
        t.backend_insert k v;
        old
      end
    in
    (* Chain-signal while room and parked producers remain: edge
       transitions alone would strand producers woken past each other. *)
    if (not t.broken) && t.full_waiters > 0 && old + 1 < t.capacity then begin
      t.c.wakes <- t.c.wakes + 1;
      R.cond_signal t.not_full
    end;
    R.release t.push_lock;
    if old = 0 then notify_not_empty t

  (* Take one element; the caller holds [pop_lock] and [block] decides the
     empty behaviour.  Under [pop_lock] all completed decrements are ours.
     For a deduplicating backend [size > 0] means the backend holds at
     least [size - stale] fully inserted elements, where [stale] counts
     inserts absorbed as in-place updates, so a [None] while [size > 0] is
     a stale credit — burn it (freeing capacity) and re-test.  For a
     non-deduplicating backend [size] also counts reserved credits whose
     insert is still in flight (see [insert_wait]), so a [None] is a
     transient miss (an insert mid-flight, a try-locked shard) that
     resolves under retry. *)
  let rec take t ~block =
    if R.read t.size = 0 then
      if not block then begin
        R.release t.pop_lock;
        None
      end
      else begin
        t.empty_waiters <- t.empty_waiters + 1;
        t.c.parks <- t.c.parks + 1;
        R.cond_wait t.not_empty;
        t.empty_waiters <- t.empty_waiters - 1;
        take t ~block
      end
    else
      match t.backend_pop () with
      | Some kv ->
        let old = fetch_add t.size (-1) in
        if (not t.broken) && t.empty_waiters > 0 && old - 1 > 0 then begin
          (* chain the wake to the next parked consumer *)
          t.c.wakes <- t.c.wakes + 1;
          R.cond_signal t.not_empty
        end;
        R.release t.pop_lock;
        if old = t.capacity then notify_not_full t;
        Some kv
      | None when t.dedups ->
        let old = fetch_add t.size (-1) in
        if old = t.capacity then notify_not_full t;
        take t ~block
      | None ->
        R.yield ();
        take t ~block

  let try_delete_min t =
    R.acquire t.pop_lock;
    take t ~block:false

  let delete_min_wait t =
    R.acquire t.pop_lock;
    match take t ~block:true with
    | Some kv -> kv
    | None -> assert false (* blocking take never returns None *)

  let stats t =
    [
      ("parks", float_of_int t.c.parks);
      ("wakes", float_of_int t.c.wakes);
      ("backpressure_stalls", float_of_int t.c.backpressure_stalls);
    ]
end
