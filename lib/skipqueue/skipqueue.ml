module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) =
struct
  module L = Locked_skiplist.Make (R) (K)
  open L

  type 'v body = {
    value : 'v option R.shared; (* None only in sentinels *)
    level_locks : R.lock array; (* one per level, Fig. 9's lock(node, i) *)
    node_lock : R.lock; (* Fig. 10 line 20 / Fig. 11 line 27 *)
  }

  (* One element per node under one lock per level plus a whole-node lock;
     keys are unique, so a search stops before an equal key and a key
     names its node.  The claim is the paper's SWAP on [deleted], and the
     claimed binding is read once the hunt's pass has ended. *)
  module Payload = struct
    type nonrec 'v body = 'v body
    type ext = unit
    type 'v taken = 'v body node

    (* Registration order, which fixes the simulator's line ids: stamp,
       deleted flag, node lock, level locks, value, key.  Sentinels are
       born marked: a Delete-min hunt that wanders onto the head through a
       removed node's backward pointer must lose the SWAP and move on,
       never claim the sentinel. *)
    let fresh () ~key value ~level =
      let stamp = R.shared max_int in
      let deleted = R.shared (Option.is_none value) in
      let node_lock = R.lock_create ~name:"sq-node" () in
      let level_locks = Array.init level (fun _ -> R.lock_create ~name:"sq-level" ()) in
      let value = R.shared value in
      let key = R.shared key in
      {
        key;
        body = { value; level_locks; node_lock };
        level;
        next = [||];
        deleted;
        stamp;
        poisoned = false;
      }

    let refresh () node v =
      R.refresh node.body.value (Some v);
      Array.iter R.lock_refresh node.body.level_locks;
      R.lock_refresh node.body.node_lock

    let acquire_level () node i = R.acquire node.body.level_locks.(i - 1)
    let release_level () node i = R.release node.body.level_locks.(i - 1)
    let acquire_node () node = R.acquire node.body.node_lock
    let release_node () node = R.release node.body.node_lock
    let past c = c < 0
    let at_victim bkey _ node = bound_compare (read_key node) bkey = 0
    let before_victim bkey _ node = not (past (bound_compare (read_key node) bkey))

    let claim () node ~stale ~want:_ =
      if stale node then Stale
      else if R.swap node.deleted true then Taken
      else Claimed { taken = node; count = 1; exhausted = true }

    let settle _ node =
      match read_key node with
      | Key k -> [ (k, Option.get (R.read node.body.value)) ]
      | Bottom | Top -> assert false (* sentinels are born marked *)

    let live () node =
      if R.read node.deleted then [] else [ Option.get (R.read node.body.value) ]

    let check_node () _ _ = Ok ()
  end

  include Queue (Payload)

  let create ?(mode = Strict) ?(p = 0.5) ?(max_level = 20) ?(seed = 0x5EEDL)
      ?reclamation () =
    Locked_skiplist.check_args ~who:"Skipqueue" ~p ~max_level;
    make ~mode ~p ~max_level ~seed ~reclamation ()

  let insert t key value =
    enter t;
    let bkey = Key key in
    let saved = find_preds t bkey in
    let node1 = get_lock t bkey saved.(0) 1 in
    let node2 = read_next node1 1 in
    let result =
      if bound_compare (read_key node2) bkey = 0 then begin
        (* Key present: overwrite in place under the predecessor's lock. *)
        R.write node2.body.value (Some value);
        Payload.release_level () node1 1;
        `Updated
      end
      else begin
        let level = random_level t in
        let new_node = alloc_node t ~key:bkey value ~level in
        Payload.acquire_node () new_node;
        link t bkey saved node1 new_node;
        `Inserted
      end
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
          let value = R.read candidate.body.value in
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
      then R.read candidate.body.value
      else None
    in
    exit t;
    result

  (* Bottom level as checked by the core; level i must be a sub-sequence
     of level i-1. *)
  let check_invariants t =
    let ( let* ) = Result.bind in
    let* () = check_bottom t in
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
