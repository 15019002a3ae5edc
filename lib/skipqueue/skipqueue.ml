module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) =
struct
  include Locked_skiplist.Bound (K)

  type 'v node = {
    key : bound R.shared;
    value : 'v option R.shared; (* None only in sentinels *)
    level : int;
    next : 'v node R.shared array; (* length = level; tail has none *)
    level_locks : R.lock array; (* one per level, Fig. 9's lock(node, i) *)
    node_lock : R.lock; (* Fig. 10 line 20 / Fig. 11 line 27 *)
    deleted : bool R.shared; (* the SWAP target of Delete-min *)
    stamp : int R.shared; (* completion timestamp; max_int while in flight *)
    mutable poisoned : bool; (* set by the reclamation finalizer *)
  }

  let read_key node = R.read node.key
  let read_next node i = R.read node.next.(i - 1)
  let level_lock node i = node.level_locks.(i - 1)

  (* One lock per level plus a whole-node lock; keys are unique, so a
     search stops before an equal key. *)
  module Layout = struct
    type nonrec bound = bound
    type nonrec 'v node = 'v node
    type ext = unit

    let level node = node.level
    let read_key = read_key
    let read_next = read_next
    let write_next node i v = R.write node.next.(i - 1) v
    let write_stamp node v = R.write node.stamp v
    let poison node = node.poisoned <- true
    let acquire_level () node i = R.acquire (level_lock node i)
    let release_level () node i = R.release (level_lock node i)
    let acquire_node () node = R.acquire node.node_lock
    let release_node () node = R.release node.node_lock
    let past c = c < 0
  end

  include Locked_skiplist.Make (R) (K) (Layout)

  (* Aliases making the module a valid [Elimination.BACKING]. *)
  type key = K.t
  type reclaim = Reclaim.t

  let make_node ?(deleted = false) ~key ~value ~level () =
    {
      key = R.shared key;
      value = R.shared value;
      level;
      next = [||]; (* patched below for non-tail nodes *)
      level_locks = Array.init level (fun _ -> R.lock_create ~name:"sq-level" ());
      node_lock = R.lock_create ~name:"sq-node" ();
      (* Sentinels are born marked: a Delete-min hunt that wanders onto the
         head through a removed node's backward pointer must lose the SWAP
         and move on, never claim the sentinel. *)
      deleted = R.shared deleted;
      stamp = R.shared max_int;
      poisoned = false;
    }

  let create ?(mode = Strict) ?(p = 0.5) ?(max_level = 20) ?(seed = 0x5EEDL)
      ?reclamation () =
    Locked_skiplist.check_args ~who:"Skipqueue" ~p ~max_level;
    let tail = make_node ~deleted:true ~key:Top ~value:None ~level:0 () in
    let head = make_node ~deleted:true ~key:Bottom ~value:None ~level:max_level () in
    let head = { head with next = Array.init max_level (fun _ -> R.shared tail) } in
    make ~mode ~p ~max_level ~seed ~reclamation ~ext:() ~head ~tail

  (* Node arena: [insert] draws from the free list of the wanted height
     before allocating.  A recycled node is re-registered cell by cell in
     {e exactly} the order [make_node] + the [next] patch registers a
     fresh node's locations, so it consumes the same fresh line ids and
     the simulation stays bit-identical to one that never recycles. *)
  let alloc_node t ~key ~value ~level =
    match pooled t ~level with
    | Some n ->
      R.refresh n.key key;
      R.refresh n.value value;
      for i = 1 to level do
        R.lock_refresh n.level_locks.(i - 1)
      done;
      R.lock_refresh n.node_lock;
      R.refresh n.deleted false;
      R.refresh n.stamp max_int;
      for i = 1 to level do
        R.refresh n.next.(i - 1) t.tail
      done;
      n.poisoned <- false;
      n
    | None ->
      let n = make_node ~key ~value ~level () in
      { n with next = Array.init level (fun _ -> R.shared t.tail) }

  let insert t key value =
    enter t;
    let bkey = Key key in
    let saved = find_preds t bkey in
    let node1 = get_lock t bkey saved.(0) 1 in
    let node2 = read_next node1 1 in
    let result =
      if bound_compare (read_key node2) bkey = 0 then begin
        (* Key present: overwrite in place under the predecessor's lock. *)
        R.write node2.value (Some value);
        R.release (level_lock node1 1);
        `Updated
      end
      else begin
        let level = random_level t in
        let new_node = alloc_node t ~key:bkey ~value:(Some value) ~level in
        R.acquire new_node.node_lock;
        link t bkey saved node1 new_node;
        `Inserted
      end
    in
    exit t;
    result

  (* Fig. 11 lines 15-37: physical removal of an already-marked node.  The
     predecessor search and the line 24-26 re-walk are kept (their memory
     traffic is part of the algorithm's cost) even though we already hold
     the node pointer.  Keys are unique, so the keyed getLock finds the
     victim's predecessor at every level. *)
  let key_pred_lock t bkey _victim start i = get_lock t bkey start i

  let physically_remove t node2 bkey =
    let saved = find_preds t bkey in
    let walker = ref saved.(0) in
    while bound_compare (read_key !walker) bkey <> 0 do
      walker := read_next !walker 1
    done;
    assert (!walker == node2);
    unlink t ~pred_lock:key_pred_lock bkey saved node2

  (* Fig. 11 lines 1-10, generalized from one victim to up-to-[want]: a
     single bottom-level pass that races to claim the first [want]
     unmarked, old-enough nodes.  With [want = 1] this is exactly the
     paper's Delete-min hunt; larger batches share the walk over the
     (possibly long) prefix of marked nodes, which is what the combining
     front end in [Elimination] exploits.  Claims come back in list
     (ascending-key) order. *)
  let hunt t ~want =
    t.hunt_passes <- t.hunt_passes + 1;
    let time = match t.mode with Strict -> R.get_time () | Relaxed -> max_int in
    let claimed = ref [] in
    let count = ref 0 in
    let node = ref (read_next t.head 1) in
    let continue = ref (want > 0) in
    while !continue do
      match read_key !node with
      | Top -> continue := false
      | Bottom | Key _ ->
        let eligible =
          match t.mode with
          | Relaxed -> true
          | Strict -> R.read !node.stamp < time
        in
        if eligible then begin
          t.hunt_steps <- t.hunt_steps + 1;
          let marked = R.swap !node.deleted true in
          if not marked then begin
            claimed := !node :: !claimed;
            incr count;
            if !count >= want then continue := false
            else node := read_next !node 1
          end
          else begin
            t.swap_losses <- t.swap_losses + 1;
            node := read_next !node 1
          end
        end
        else begin
          t.stale_skips <- t.stale_skips + 1;
          node := read_next !node 1
        end
    done;
    List.rev !claimed

  type 'v claim = { cnode : 'v node; ckey : K.t; cvalue : 'v }
  type 'v batch = 'v claim list

  let claim_of_node node =
    let key =
      match read_key node with
      | Key k -> k
      | Bottom | Top -> assert false (* sentinels are born marked *)
    in
    { cnode = node; ckey = key; cvalue = Option.get (R.read node.value) }

  let hunt_batch t ~want =
    enter t;
    List.map claim_of_node (hunt t ~want)

  let batch_claims batch = List.map (fun c -> (c.ckey, c.cvalue)) batch

  let finish_batch t batch =
    List.iter (fun c -> physically_remove t c.cnode (Key c.ckey)) batch;
    exit t

  let delete_min t =
    enter t;
    let result =
      match hunt t ~want:1 with
      | [] -> None
      | node2 :: _ ->
        let { ckey; cvalue; _ } = claim_of_node node2 in
        physically_remove t node2 (Key ckey);
        Some (ckey, cvalue)
    in
    exit t;
    result

  let delete t key =
    enter t;
    let bkey = Key key in
    let saved = find_preds t bkey in
    let candidate = read_next saved.(0) 1 in
    let result =
      if bound_compare (read_key candidate) bkey <> 0 then None
      else begin
        let marked = R.swap candidate.deleted true in
        if marked then None
        else begin
          let value = R.read candidate.value in
          physically_remove t candidate bkey;
          Some (Option.get value)
        end
      end
    in
    exit t;
    result

  let find t key =
    enter t;
    let bkey = Key key in
    let saved = find_preds t bkey in
    let candidate = read_next saved.(0) 1 in
    let result =
      if bound_compare (read_key candidate) bkey = 0 && not (R.read candidate.deleted)
      then R.read candidate.value
      else None
    in
    exit t;
    result

  let peek_min t =
    enter t;
    let rec walk node =
      match read_key node with
      | Top -> None
      | Bottom -> walk (read_next node 1)
      | Key k ->
        if R.read node.deleted then walk (read_next node 1)
        else Some (k, Option.get (R.read node.value))
    in
    let result = walk (read_next t.head 1) in
    exit t;
    result

  let fold_live t f acc =
    let rec go acc node =
      match read_key node with
      | Top -> acc
      | Bottom -> go acc (read_next node 1)
      | Key k ->
        let acc =
          if R.read node.deleted then acc
          else f acc k (Option.get (R.read node.value))
        in
        go acc (read_next node 1)
    in
    go acc t.head

  let size t = fold_live t (fun n _ _ -> n + 1) 0
  let to_list t = List.rev (fold_live t (fun acc k v -> (k, v) :: acc) [])

  let check_invariants t =
    let ( let* ) = Result.bind in
    (* Bottom level: strictly ascending, nothing marked, nothing poisoned. *)
    let rec check_bottom prev node =
      if node.poisoned then Error "reachable node is poisoned (reclaimed too early)"
      else
        match read_key node with
        | Top -> Ok ()
        | key ->
          let* () =
            if bound_compare prev key < 0 then Ok ()
            else Error "bottom level not strictly ascending"
          in
          let* () =
            match key with
            | Key _ when R.read node.deleted ->
              Error "marked node still reachable at quiescence"
            | _ -> Ok ()
          in
          check_bottom key (read_next node 1)
    in
    let* () = check_bottom Bottom (read_next t.head 1) in
    (* Level i must be a sub-sequence of level i-1. *)
    let rec sublist i upper lower =
      match read_key upper with
      | Top -> Ok ()
      | ukey -> (
        match read_key lower with
        | Top -> Error (Printf.sprintf "level %d node missing from level %d" i (i - 1))
        | lkey ->
          let c = bound_compare ukey lkey in
          if c = 0 then sublist i (read_next upper i) (read_next lower (i - 1))
          else if c > 0 then sublist i upper (read_next lower (i - 1))
          else Error (Printf.sprintf "level %d node missing from level %d" i (i - 1)))
    in
    let rec check_levels i =
      if i > t.max_level then Ok ()
      else
        let* () = sublist i (read_next t.head i) (read_next t.head (i - 1)) in
        check_levels (i + 1)
    in
    check_levels 2
end
