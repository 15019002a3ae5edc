(* The locked skiplist body shared by {!Skipqueue} and {!Skipqueue_co}
   (DESIGN.md §S21), written once over a payload — what a node holds.
   [Skipqueue]'s payload is one element under a lock array and a node
   lock; [Skipqueue_co]'s is a multiset slab with ticket claims under one
   packed lock word.

   The core owns the node record (key, level pointers, the [deleted]
   SWAP target, the completion stamp), the queue-wide state, the search,
   Fig. 9's getLock, the link and unlink level loops of Figs. 10-11, the
   Delete-min hunt (one bottom-level pass over the payload's claim step),
   the front-end batch hooks, the quiescent views, the node arena's
   allocation shell and the bottom-level invariant walk.  A payload
   supplies its cells and their registration order, its lock operations,
   its claim step, its live elements and its per-node quiescence check;
   nothing here asks which payload it serves.  Inserts, creation and the
   upper-level invariant check stay in the layouts, which use the queue
   record directly, so this module has no separate interface. *)

type mode = Strict | Relaxed

type op_stats = {
  hunt_steps : int;
  swap_losses : int;
  stale_skips : int;
  hunt_passes : int;
}

let check_args ~who ~p ~max_level =
  if p <= 0.0 || p >= 1.0 then invalid_arg (who ^ ".create: p outside (0, 1)");
  if max_level < 1 then invalid_arg (who ^ ".create: max_level < 1")

(* Each processor's node-height stream derives from the queue seed and the
   processor's slot. *)
let level_streams ~seed =
  Repro_runtime.Per_proc.create (fun idx ->
      Repro_util.Rng.of_seed
        (Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (idx + 1)))))

module Bound (K : Repro_pqueue.Key.ORDERED) = struct
  (* Keys extended with sentinels for the head (-oo) and tail (+oo). *)
  type bound = Bottom | Key of K.t | Top

  let bound_compare a b =
    match (a, b) with
    | Bottom, Bottom | Top, Top -> 0
    | Bottom, _ | _, Top -> -1
    | Top, _ | _, Bottom -> 1
    | Key x, Key y -> K.compare x y
end

(** What both locked queues export besides their constructors, inserts and
    invariant checks ({!Skipqueue.Make}, {!Skipqueue_co.Make}). *)
module type QUEUE = sig
  type key
  type 'v t
  type nonrec mode = mode = Strict | Relaxed

  val delete_min : 'v t -> (key * 'v) option
  (** Fig. 11: claim the first eligible element in one bottom-level pass,
      then physically remove the node if the claim emptied it.  [None] is
      the paper's EMPTY. *)

  val peek_min : 'v t -> (key * 'v) option
  (** First live binding on the bottom level, without claiming it.  Under
      concurrency the answer may be stale by the time it returns
      (peek-then-act is inherently racy); useful for monitoring. *)

  val size : 'v t -> int
  (** Number of live elements, counted by a bottom-level traversal.
      Accurate only at quiescence. *)

  val to_list : 'v t -> (key * 'v) list
  (** Ascending live bindings; within one key, delivery order.  Quiescent
      use only. *)

  (** {2 Front-end hooks}

      A narrow internal API for queue front ends ({!Elimination}): observe
      a lower bound on the settled minimum, and claim several minima in
      one shared bottom-level hunt.  These are the paper's Delete-min
      split into its two halves (claim, then physical removal) and
      generalized from one victim to a batch; [delete_min] above is
      exactly [hunt_batch ~want:1] followed by [finish_batch]. *)

  val first_bound : 'v t -> [ `Empty | `Min_at_most of key ]
  (** Key of the first bottom-level node (claimed or not) — a valid lower
      bound on every element that was completely inserted and unclaimed at
      the moment of the read: the bottom level is sorted, and any claim
      serializes before it.  [`Empty] means the list held nothing at all,
      not even in-flight claims.  Two shared reads, made inside the
      reclamation critical section (the first node may be retired
      concurrently). *)

  type 'v batch
  (** Claimed-but-not-yet-removed victims of one [hunt_batch]. *)

  val hunt_batch : 'v t -> want:int -> 'v batch
  (** One bottom-level pass (Fig. 11 lines 1-10) claiming up to [want >= 1]
      live, old-enough elements; stops early at the tail.  A coalesced
      node may serve several of them.  In [Strict] mode the eligibility
      timestamp is taken once, at the start of the pass.  Enters the
      reclamation critical section: the caller {e must} follow with
      [finish_batch], even on an empty batch. *)

  val batch_claims : 'v batch -> (key * 'v) list
  (** The claimed bindings, in claim (ascending-key) order. *)

  val finish_batch : 'v t -> 'v batch -> unit
  (** Physically remove every node the batch emptied (Fig. 11 lines
      15-37) and leave the reclamation critical section. *)

  (** {2 Instrumentation} *)

  type nonrec op_stats = op_stats = {
    hunt_steps : int;  (** claim attempts by delete-mins *)
    swap_losses : int;
        (** nodes stepped over as already taken, plus claim attempts lost
            to a concurrent commit *)
    stale_skips : int;  (** nodes skipped because their timestamp was too young *)
    hunt_passes : int;
        (** bottom-level hunt invocations: one per [delete_min], one per
            [hunt_batch] call however many claims it makes — which is how
            the adapter's batch tests pin that a native [delete_min_batch]
            shares a single pass *)
  }

  val stats : 'v t -> op_stats
  (** Cumulative since creation.  Updated with plain (unmodelled) writes —
      costs nothing on the simulator; approximate under native races. *)

  type pool_stats = Node_pool.stats = {
    returned : int;  (** nodes the reclamation finalizer freed into the pool *)
    recycled : int;  (** pooled nodes reissued by inserts *)
    pooled : int;  (** nodes currently waiting in the free lists *)
  }

  val pool_stats : 'v t -> pool_stats
  (** The node arena's free-list counters.  Non-zero only when the queue
      was created with [~reclamation]: the free list is fed exclusively by
      the reclamation finalizer, whose guarantee (no live pointer to the
      node exists) is exactly what makes reuse safe.  A recycled node is
      re-registered cell by cell in a fixed order (DESIGN.md §S17). *)
end

module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) =
struct
  include Bound (K)
  module Reclaim = Reclamation.Make (R)

  (* A node over payload cells ['b]. *)
  type 'b node = {
    key : bound R.shared;
    body : 'b;
    level : int;
    next : 'b node R.shared array; (* length = level; tail has none *)
    deleted : bool R.shared; (* the SWAP target: set once the node is empty *)
    stamp : int R.shared; (* completion timestamp; max_int while in flight *)
    mutable poisoned : bool; (* set by the reclamation finalizer *)
  }

  let read_key node = R.read node.key
  let read_next node i = R.read node.next.(i - 1)

  (* One claim attempt's outcome.  [Taken] and [Lost] are both attempts
     that lost; only after [Lost] may the node still hold elements, so
     only [Lost] sends the hunt back around its equal-key run. *)
  type 'c outcome =
    | Dead (* nothing left to claim, seen without an attempt *)
    | Stale (* completed after the pass began (Strict only) *)
    | Taken (* the attempt lost to the claim that emptied the node *)
    | Lost (* the attempt lost to a commit that may have left elements *)
    | Claimed of { taken : 'c; count : int; exhausted : bool }

  module type PAYLOAD = sig
    type 'v body
    type ext (* queue-wide payload state *)
    type 'v taken (* a claim's elements, until the pass ends *)

    (* A fresh node with no level pointers: an element node for [Some v],
       a sentinel for [None].  Registers the node's cells; the core then
       registers its [next] cells. *)
    val fresh : ext -> key:bound -> 'v option -> level:int -> 'v body node

    (* Re-register a pooled node's payload cells for element [v]. *)
    val refresh : ext -> 'v body node -> 'v -> unit

    val acquire_level : ext -> 'v body node -> int -> unit
    val release_level : ext -> 'v body node -> int -> unit
    val acquire_node : ext -> 'v body node -> unit
    val release_node : ext -> 'v body node -> unit

    (* Whether getLock walks past a node whose key compares [c] against the
       target: [c < 0] for unique keys, [c <= 0] to link a fresh node after
       every equal key. *)
    val past : int -> bool

    (* How physical removal finds its victim (second argument) by its key
       (first): where the bottom-level walk stands on it, and where a
       level's predecessor search stops. *)
    val at_victim : bound -> 'v body node -> 'v body node -> bool
    val before_victim : bound -> 'v body node -> 'v body node -> bool

    (* One claim attempt on a node of the hunt, for up to [want] elements;
       [stale] is the pass's eligibility test on the node's stamp. *)
    val claim :
      ext ->
      'v body node ->
      stale:('v body node -> bool) ->
      want:int ->
      'v taken outcome

    (* A claim's bindings, once the pass has ended. *)
    val settle : K.t -> 'v taken -> (K.t * 'v) list

    (* The node's unclaimed elements, oldest (next delivered) first. *)
    val live : ext -> 'v body node -> 'v list

    (* The payload's quiescent invariants for one linked node. *)
    val check_node : ext -> bound -> 'v body node -> (unit, string) result
  end

  module Queue (P : PAYLOAD) = struct
    type key = K.t
    type nonrec mode = mode = Strict | Relaxed

    type nonrec op_stats = op_stats = {
      hunt_steps : int;
      swap_losses : int;
      stale_skips : int;
      hunt_passes : int;
    }

    type pool_stats = Node_pool.stats = { returned : int; recycled : int; pooled : int }

    module Reclaim = Reclaim

    type 'v t = {
      head : 'v P.body node;
      tail : 'v P.body node;
      max_level : int;
      p : float;
      mode : mode;
      reclamation : Reclaim.t option;
      ext : P.ext;
      rngs : Repro_util.Rng.t Repro_runtime.Per_proc.t; (* per-processor level streams *)
      preds : 'v P.body node array Repro_runtime.Per_proc.t; (* per-processor find_preds scratch *)
      pool : 'v P.body node Node_pool.t; (* fed by the reclamation finalizer *)
      mutable hunt_steps : int;
      mutable swap_losses : int;
      mutable stale_skips : int;
      mutable hunt_passes : int;
    }

    let make ~mode ~p ~max_level ~seed ~reclamation ext =
      let tail = P.fresh ext ~key:Top None ~level:0 in
      let head = P.fresh ext ~key:Bottom None ~level:max_level in
      let head = { head with next = Array.init max_level (fun _ -> R.shared tail) } in
      {
        head;
        tail;
        max_level;
        p;
        mode;
        reclamation;
        ext;
        rngs = level_streams ~seed;
        (* One predecessor buffer per processor suffices: an operation's
           search result is consumed before the same processor can start
           another search (operations on one processor are sequential, and
           no callee of a search's consumer re-enters [find_preds]). *)
        preds = Repro_runtime.Per_proc.create (fun _ -> Array.make max_level head);
        pool = Node_pool.create ~levels:max_level;
        hunt_steps = 0;
        swap_losses = 0;
        stale_skips = 0;
        hunt_passes = 0;
      }

    let stats t =
      {
        hunt_steps = t.hunt_steps;
        swap_losses = t.swap_losses;
        stale_skips = t.stale_skips;
        hunt_passes = t.hunt_passes;
      }

    let pool_stats t = Node_pool.stats t.pool

    let random_level t =
      Repro_util.Rng.geometric_level (Repro_runtime.Per_proc.get t.rngs (R.self ())) ~p:t.p
        ~max_level:t.max_level

    let enter t = match t.reclamation with None -> () | Some r -> Reclaim.enter r
    let exit t = match t.reclamation with None -> () | Some r -> Reclaim.exit r

    (* The finalizer runs only once no processor inside the structure can
       still hold a pointer to the node (reclamation's guarantee), so the
       node can go straight onto the free list of its height.  It stays
       poisoned while pooled: any hunter that could still observe it would
       trip the invariant checker. *)
    let retire t node =
      match t.reclamation with
      | None -> ()
      | Some r ->
        Reclaim.retire r (fun () ->
            node.poisoned <- true;
            Node_pool.push t.pool ~level:node.level node)

    (* Node arena: an insert draws from the free list of the wanted height
       (fed only when reclamation is on) before allocating.  A recycled
       node is re-registered cell by cell through [R.refresh], in the order
       fixed here and by the payload's [refresh] (DESIGN.md §S17). *)
    let alloc_node t ~key v ~level =
      match
        match t.reclamation with None -> None | Some _ -> Node_pool.pop t.pool ~level
      with
      | Some n ->
        R.refresh n.key key;
        P.refresh t.ext n v;
        R.refresh n.deleted false;
        R.refresh n.stamp max_int;
        for i = 1 to level do
          R.refresh n.next.(i - 1) t.tail
        done;
        n.poisoned <- false;
        n
      | None ->
        let n = P.fresh t.ext ~key (Some v) ~level in
        { n with next = Array.init level (fun _ -> R.shared t.tail) }

    (* Fig. 9's getLock: lock the level-[i] pointer of the rightmost node
       whose successor [n] does not stop the walk ([stop bkey victim n]),
       revalidating after acquisition.  Each step reuses the one successor
       value it tested. *)
    let lock_pred t stop bkey victim node1 i =
      let node1 = ref node1 in
      let node2 = ref (read_next !node1 i) in
      while not (stop bkey victim !node2) do
        node1 := !node2;
        node2 := read_next !node1 i
      done;
      P.acquire_level t.ext !node1 i;
      node2 := read_next !node1 i;
      while not (stop bkey victim !node2) do
        P.release_level t.ext !node1 i;
        node1 := !node2;
        P.acquire_level t.ext !node1 i;
        node2 := read_next !node1 i
      done;
      !node1

    (* getLock by key: the walk steps over every node the payload's
       [past] passes (no victim: [node1] fills the slot). *)
    let stops_at bkey _ n = not (P.past (bound_compare (read_key n) bkey))
    let get_lock t bkey node1 i = lock_pred t stops_at bkey node1 node1 i

    (* Top-down search recording the rightmost node with key < bkey at every
       level (Fig. 10 lines 1-9, Fig. 11 lines 15-23).  Fills and returns
       the calling processor's scratch buffer — no per-search allocation. *)
    let find_preds t bkey =
      let saved = Repro_runtime.Per_proc.get t.preds (R.self ()) in
      let node1 = ref t.head in
      for i = t.max_level downto 1 do
        let node2 = ref (read_next !node1 i) in
        while bound_compare (read_key !node2) bkey < 0 do
          node1 := !node2;
          node2 := read_next !node1 i
        done;
        saved.(i - 1) <- !node1
      done;
      saved

    (* Fig. 10 lines 10-28 from the locked level-1 predecessor on: the
       caller holds [new_node]'s node lock, and each level's predecessor
       lock is released once the level is spliced.  A strict queue then
       stamps the completely inserted node. *)
    let link t bkey saved node1 new_node =
      let node1 = ref node1 in
      for i = 1 to new_node.level do
        if i <> 1 then node1 := get_lock t bkey saved.(i - 1) i;
        R.write new_node.next.(i - 1) (read_next !node1 i);
        R.write !node1.next.(i - 1) new_node;
        P.release_level t.ext !node1 i
      done;
      P.release_node t.ext new_node;
      match t.mode with
      | Strict -> R.write new_node.stamp (R.get_time ())
      | Relaxed -> ()

    (* Fig. 11 lines 15-37: physical removal of a claimed node.  The
       predecessor search and the line 24-26 re-walk to the victim are kept
       (their memory traffic is part of the algorithm's cost) even though
       we already hold the node pointer.  Then unlink the victim top-down
       under its node lock, pointing it back at each predecessor so
       processors still holding it fall back safely, and retire it. *)
    let physically_remove t victim bkey =
      let saved = find_preds t bkey in
      let walker = ref saved.(0) in
      while not (P.at_victim bkey victim !walker) do
        walker := read_next !walker 1
      done;
      assert (!walker == victim);
      P.acquire_node t.ext victim;
      for i = victim.level downto 1 do
        let node1 = lock_pred t P.before_victim bkey victim saved.(i - 1) i in
        P.acquire_level t.ext victim i;
        R.write node1.next.(i - 1) (read_next victim i);
        R.write victim.next.(i - 1) node1;
        P.release_level t.ext victim i;
        P.release_level t.ext node1 i
      done;
      P.release_node t.ext victim;
      retire t victim

    type 'v batch = {
      claims : (K.t * 'v) list;
      dead : ('v P.body node * bound) list; (* emptied by the pass, still linked *)
    }

    (* Fig. 11 lines 1-10, generalized twice: up to [want] elements in one
       bottom-level pass (a combiner's whole batch shares the walk over
       the prefix of taken nodes), and a node may serve several of them.
       The payload's claim step decides each node; claims come back in
       list (ascending-key) order, and the nodes they emptied are left for
       the caller to remove.

       Equal-key run spreading: a [Lost] attempt does not pin the hunter
       to the node (after a lost SWAP the node is taken, but a lost ticket
       CAS may leave live elements).  Every node of the same key is equally
       minimal, so a loser advances within the run — spreading the hunters
       racing for a hot key over the run's nodes instead of convoying on
       one line — and only loops back to the run's head once the run ends
       claimless.  Keys are stable while our epoch pins the nodes, so the
       loop caches each step's key read in [bk]. *)
    let hunt t ~want =
      t.hunt_passes <- t.hunt_passes + 1;
      let stale =
        match t.mode with
        | Relaxed -> fun _ -> false
        | Strict ->
          let time = R.get_time () in
          fun node -> R.read node.stamp >= time
      in
      let claims = ref [] in
      let dead = ref [] in
      let got = ref 0 in
      let node = ref (read_next t.head 1) in
      let bk = ref (read_key !node) in
      let run_start = ref !node in
      let run_key = ref !bk in
      let lost_in_run = ref false in
      let continue = ref (want > 0) in
      while !continue do
        (match !bk with
        | Top -> continue := false
        | Bottom | Key _ -> (
          match P.claim t.ext !node ~stale ~want:(want - !got) with
          | Dead -> t.swap_losses <- t.swap_losses + 1
          | Stale -> t.stale_skips <- t.stale_skips + 1
          | Taken ->
            t.hunt_steps <- t.hunt_steps + 1;
            t.swap_losses <- t.swap_losses + 1
          | Lost ->
            (* Another claim or join committed on this node — global
               progress.  Spread: try the run's next node before coming
               back.  The few local cycles of per-processor stagger break
               the lockstep the loss itself witnesses: claimants that
               arrived in phase (the workload's uniform think time keeps
               them in phase) would otherwise convoy on the same line's
               queue indefinitely. *)
            t.hunt_steps <- t.hunt_steps + 1;
            t.swap_losses <- t.swap_losses + 1;
            lost_in_run := true;
            R.work ((R.self () * 7) land 63)
          | Claimed { taken; count; exhausted } ->
            t.hunt_steps <- t.hunt_steps + 1;
            let k = match !bk with Key k -> k | Bottom | Top -> assert false in
            claims := (k, taken) :: !claims;
            got := !got + count;
            if exhausted then dead := (!node, !bk) :: !dead;
            if !got >= want then continue := false));
        if !continue then begin
          let next = read_next !node 1 in
          let k = read_key next in
          if bound_compare k !run_key = 0 then begin
            node := next;
            bk := k
          end
          else if !lost_in_run then begin
            (* The run ended and a claim we lost may have left live
               elements behind us: those are still the minimum, so go
               around again. *)
            lost_in_run := false;
            node := !run_start;
            bk := !run_key
          end
          else begin
            run_start := next;
            run_key := k;
            node := next;
            bk := k
          end
        end
      done;
      {
        claims = List.concat_map (fun (k, taken) -> P.settle k taken) (List.rev !claims);
        dead = List.rev !dead;
      }

    let hunt_batch t ~want =
      enter t;
      hunt t ~want

    let batch_claims b = b.claims

    let finish_batch t b =
      List.iter (fun (n, bk) -> physically_remove t n bk) b.dead;
      exit t

    let delete_min t =
      let b = hunt_batch t ~want:1 in
      finish_batch t b;
      match b.claims with [] -> None | kv :: _ -> Some kv

    let first_bound t =
      (* The first node can be retired by a concurrent physical removal, so
         even this two-read peek must hold the reclamation critical section:
         outside it, a collector pass may reclaim the node between the
         [next] read and the [key] read. *)
      enter t;
      let result =
        match read_key (read_next t.head 1) with
        | Top -> `Empty
        | Key k -> `Min_at_most k
        | Bottom -> assert false (* head is the only Bottom node *)
      in
      exit t;
      result

    let peek_min t =
      enter t;
      let rec walk node =
        match read_key node with
        | Top -> None
        | Bottom -> walk (read_next node 1)
        | Key k -> (
          match P.live t.ext node with
          | [] -> walk (read_next node 1)
          | v :: _ -> Some (k, v))
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
          let acc = List.fold_left (fun acc v -> f acc k v) acc (P.live t.ext node) in
          go acc (read_next node 1)
      in
      go acc t.head

    let size t = fold_live t (fun n _ _ -> n + 1) 0
    let to_list t = List.rev (fold_live t (fun acc k v -> (k, v) :: acc) [])

    (* Quiescent bottom level: keys in the order [past] allows, no poisoned
       (reclaimed) node reachable, no claimed-empty node still linked, and
       the payload's own per-node check. *)
    let check_bottom t =
      let ( let* ) = Result.bind in
      let rec go prev node =
        if node.poisoned then Error "reachable node is poisoned (reclaimed too early)"
        else
          match read_key node with
          | Top -> Ok ()
          | key ->
            let* () =
              if P.past (bound_compare prev key) then Ok ()
              else Error "bottom level keys out of order"
            in
            let* () = P.check_node t.ext key node in
            let* () =
              match key with
              | Key _ when R.read node.deleted ->
                Error "marked node still reachable at quiescence"
              | _ -> Ok ()
            in
            go key (read_next node 1)
      in
      go Bottom (read_next t.head 1)
  end
end
