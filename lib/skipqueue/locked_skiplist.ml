(* The locked skiplist core shared by {!Skipqueue} and {!Skipqueue_co}
   (DESIGN.md §S21): the queue-wide state, the search, Fig. 9's getLock,
   and the link and unlink level loops of Figs. 10-11, written once over a
   node layout — {!Skipqueue}'s lock array or {!Skipqueue_co}'s packed
   word.  A layout supplies its node record and which lock each step
   takes, through [LAYOUT]'s operations; nothing here asks which layout it
   serves.  Claims, joins, the removal's predecessor walk and the
   invariant checks stay in the layouts.  The layouts use the queue record
   directly, so this module has no separate interface. *)

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

module type LAYOUT = sig
  type bound
  type 'v node
  type ext (* queue-wide layout state the lock operations consult *)

  val level : 'v node -> int
  val read_key : 'v node -> bound
  val read_next : 'v node -> int -> 'v node
  val write_next : 'v node -> int -> 'v node -> unit
  val write_stamp : 'v node -> int -> unit
  val poison : 'v node -> unit
  val acquire_level : ext -> 'v node -> int -> unit
  val release_level : ext -> 'v node -> int -> unit
  val acquire_node : ext -> 'v node -> unit
  val release_node : ext -> 'v node -> unit

  (* Whether getLock walks past a node whose key compares [c] against the
     target: [c < 0] for unique keys, [c <= 0] to link a fresh node after
     every equal key. *)
  val past : int -> bool
end

module Make
    (R : Repro_runtime.Runtime_intf.S)
    (K : Repro_pqueue.Key.ORDERED)
    (N : LAYOUT with type bound = Bound(K).bound) =
struct
  open Bound (K)
  module Reclaim = Reclamation.Make (R)

  type nonrec mode = mode = Strict | Relaxed

  type nonrec op_stats = op_stats = {
    hunt_steps : int;
    swap_losses : int;
    stale_skips : int;
    hunt_passes : int;
  }

  type pool_stats = Node_pool.stats = { returned : int; recycled : int; pooled : int }

  type 'v t = {
    head : 'v N.node;
    tail : 'v N.node;
    max_level : int;
    p : float;
    mode : mode;
    reclamation : Reclaim.t option;
    ext : N.ext;
    rngs : Repro_util.Rng.t Repro_runtime.Per_proc.t; (* per-processor level streams *)
    preds : 'v N.node array Repro_runtime.Per_proc.t; (* per-processor find_preds scratch *)
    pool : 'v N.node Node_pool.t; (* fed by the reclamation finalizer *)
    mutable hunt_steps : int;
    mutable swap_losses : int;
    mutable stale_skips : int;
    mutable hunt_passes : int;
  }

  let make ~mode ~p ~max_level ~seed ~reclamation ~ext ~head ~tail =
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
          N.poison node;
          Node_pool.push t.pool ~level:(N.level node) node)

  (* A free node of this height, if reclamation ever fed one; the caller
     re-registers its cells in fresh-allocation order (DESIGN.md §S17). *)
  let pooled t ~level =
    match t.reclamation with
    | None -> None
    | Some _ -> Node_pool.pop t.pool ~level

  (* Fig. 9's getLock: lock the level-[i] pointer of the rightmost node
     whose key the layout's [past] steps over, revalidating after
     acquisition. *)
  let get_lock t bkey node1 i =
    let node1 = ref node1 in
    let node2 = ref (N.read_next !node1 i) in
    while N.past (bound_compare (N.read_key !node2) bkey) do
      node1 := !node2;
      node2 := N.read_next !node1 i
    done;
    N.acquire_level t.ext !node1 i;
    node2 := N.read_next !node1 i;
    while N.past (bound_compare (N.read_key !node2) bkey) do
      N.release_level t.ext !node1 i;
      node1 := !node2;
      N.acquire_level t.ext !node1 i;
      node2 := N.read_next !node1 i
    done;
    !node1

  (* Top-down search recording the rightmost node with key < bkey at every
     level (Fig. 10 lines 1-9, Fig. 11 lines 15-23).  Fills and returns
     the calling processor's scratch buffer — no per-search allocation. *)
  let find_preds t bkey =
    let saved = Repro_runtime.Per_proc.get t.preds (R.self ()) in
    let node1 = ref t.head in
    for i = t.max_level downto 1 do
      let node2 = ref (N.read_next !node1 i) in
      while bound_compare (N.read_key !node2) bkey < 0 do
        node1 := !node2;
        node2 := N.read_next !node1 i
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
    for i = 1 to N.level new_node do
      if i <> 1 then node1 := get_lock t bkey saved.(i - 1) i;
      N.write_next new_node i (N.read_next !node1 i);
      N.write_next !node1 i new_node;
      N.release_level t.ext !node1 i
    done;
    N.release_node t.ext new_node;
    match t.mode with
    | Strict -> N.write_stamp new_node (R.get_time ())
    | Relaxed -> ()

  (* Fig. 11 lines 27-37: unlink the victim top-down under its node lock,
     pointing it back at each predecessor so processors still holding it
     fall back safely, then retire it.  [pred_lock t bkey victim start i]
     locks the victim's level-[i] predecessor, searching from [start]. *)
  let unlink t ~pred_lock bkey saved node2 =
    N.acquire_node t.ext node2;
    for i = N.level node2 downto 1 do
      let node1 = pred_lock t bkey node2 saved.(i - 1) i in
      N.acquire_level t.ext node2 i;
      N.write_next node1 i (N.read_next node2 i);
      N.write_next node2 i node1;
      N.release_level t.ext node2 i;
      N.release_level t.ext node1 i
    done;
    N.release_node t.ext node2;
    retire t node2

  let first_bound t =
    (* The first node can be retired by a concurrent physical removal, so
       even this two-read peek must hold the reclamation critical section:
       outside it, a collector pass may reclaim the node between the
       [next] read and the [key] read. *)
    enter t;
    let result =
      match N.read_key (N.read_next t.head 1) with
      | Top -> `Empty
      | Key k -> `Min_at_most k
      | Bottom -> assert false (* head is the only Bottom node *)
    in
    exit t;
    result
end
