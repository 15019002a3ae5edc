type config = {
  cache_hit : int;
  local_fetch : int;
  remote_fetch : int;
  occupancy : int;
  node_occupancy : int;
  swap_extra : int;
  numa_nodes : int;
  max_procs : int;
}

let default =
  {
    cache_hit = 2;
    local_fetch = 11;
    remote_fetch = 38;
    occupancy = 6;
    node_occupancy = 12;
    swap_extra = 6;
    numa_nodes = 16;
    max_procs = 512;
  }

let sequential =
  {
    cache_hit = 1;
    local_fetch = 1;
    remote_fetch = 1;
    occupancy = 0;
    node_occupancy = 0;
    swap_extra = 0;
    numa_nodes = 1;
    max_procs = 512;
  }

(* The line directory is a structure of arrays indexed by line id: the
   exclusive writer (-1 when none), the line-level queue, and a row of
   [words_per_line] packed sharer-bitmap words.  The home node is derived
   ([home_node]), not stored.  Rows are only as wide as the processors
   charged so far ([widen] re-lays the column, bits kept, when a higher
   id arrives), and the columns cover only the ids charged so far: they
   grow geometrically in [access_into], not in [make_meta], so a row
   beyond them is still fresh.  Registering a line never allocates.
   (Before §S17 each line was a heap record owning a Bitset — ~18 minor
   words per [make_meta], promoted wholesale because lines live as long
   as the structures that own them.) *)
type system = {
  config : config;
  node_busy : int array;
  mutable words_per_line : int;
  mutable writer : int array; (* its length is the columns' capacity *)
  mutable busy_until : int array;
  mutable sharers : int array; (* one row of words_per_line per line *)
}

(* Large enough that the benchmark-scale workloads (tens of thousands of
   charged locations per run) pay at most one or two doublings. *)
let initial_capacity = 16384

let make_system config =
  {
    config;
    node_busy = Array.make config.numa_nodes 0;
    words_per_line = 1;
    writer = Array.make initial_capacity (-1);
    busy_until = Array.make initial_capacity 0;
    sharers = Array.make initial_capacity 0;
  }

let system_config sys = sys.config

type meta = int (* line id into the directory *)

let home_node config ~id = id mod config.numa_nodes
let proc_node config ~proc = proc mod config.numa_nodes

let grow sys ~id =
  let old = Array.length sys.writer in
  let cap = ref old in
  while !cap <= id do
    cap := 2 * !cap
  done;
  let extend a fill width =
    let b = Array.make (!cap * width) fill in
    Array.blit a 0 b 0 (old * width);
    b
  in
  sys.writer <- extend sys.writer (-1) 1;
  sys.busy_until <- extend sys.busy_until 0 1;
  sys.sharers <- extend sys.sharers 0 sys.words_per_line

let widen sys ~proc =
  let w = sys.words_per_line and w' = (proc / 63) + 1 in
  let sh = Array.make (Array.length sys.writer * w') 0 in
  for line = 0 to Array.length sys.writer - 1 do
    Array.blit sys.sharers (line * w) sh (line * w') w
  done;
  sys.sharers <- sh;
  sys.words_per_line <- w'

(* Sharer-set rows: the same packed representation [Repro_util.Bitset]
   uses, inlined over the flat column.  [access_into] widens the rows
   before it charges a processor, so the word index is always inside the
   line's row. *)
let[@inline] sharer_mem sys line proc =
  Array.unsafe_get sys.sharers ((line * sys.words_per_line) + (proc / 63))
  land (1 lsl (proc mod 63))
  <> 0

let[@inline] sharer_add sys line proc =
  let w = (line * sys.words_per_line) + (proc / 63) in
  Array.unsafe_set sys.sharers w
    (Array.unsafe_get sys.sharers w lor (1 lsl (proc mod 63)))

let[@inline] sharer_clear sys line =
  Array.fill sys.sharers (line * sys.words_per_line) sys.words_per_line 0

let make_meta sys ~id =
  if id < 0 then invalid_arg "Memory_model.make_meta: negative id";
  if id < Array.length sys.writer then begin
    sys.writer.(id) <- -1;
    sys.busy_until.(id) <- 0;
    sharer_clear sys id
  end;
  id

let location_id (meta : meta) = meta

type kind = Read | Write | Swap

type charge = { start : int; finish : int; hit : bool; queued : int }

(* Mutable destination for [access_into]: the scheduler charges one of
   these per simulated access, so the hot path must not allocate a fresh
   [charge] record each time. *)
type scratch = {
  mutable c_start : int;
  mutable c_finish : int;
  mutable c_hit : bool;
  mutable c_queued : int;
}

let make_scratch () = { c_start = 0; c_finish = 0; c_hit = false; c_queued = 0 }

let[@inline] fetch_latency config ~home ~proc =
  if proc_node config ~proc = home then config.local_fetch
  else config.remote_fetch

(* A miss queues twice: behind other misses to the same line (hot spots)
   and behind other misses served by the same home node (bandwidth). *)
let[@inline] miss_start sys line ~home ~now =
  let start =
    Int.max now (Int.max sys.busy_until.(line) sys.node_busy.(home))
  in
  sys.node_busy.(home) <- start + sys.config.node_occupancy;
  start

let[@inline] hit_into out ~now latency =
  out.c_start <- now;
  out.c_finish <- now + latency;
  out.c_hit <- true;
  out.c_queued <- 0

let[@inline] miss_into out ~now ~start latency =
  out.c_start <- start;
  out.c_finish <- start + latency;
  out.c_hit <- false;
  out.c_queued <- start - now

let access_into out sys (line : meta) ~proc ~now kind =
  if line >= Array.length sys.writer then grow sys ~id:line;
  if proc / 63 >= sys.words_per_line then widen sys ~proc;
  let config = sys.config in
  let writer = sys.writer.(line) in
  match kind with
  | Read ->
    if writer = proc || (writer = -1 && sharer_mem sys line proc) then
      (* Hit: served by the processor's cache, no module traffic. *)
      hit_into out ~now config.cache_hit
    else begin
      let home = home_node config ~id:line in
      let start = miss_start sys line ~home ~now in
      let latency = fetch_latency config ~home ~proc in
      sys.busy_until.(line) <- start + config.occupancy;
      (* Line becomes shared: a previous exclusive owner is downgraded. *)
      if writer >= 0 then begin
        sharer_add sys line writer;
        sys.writer.(line) <- -1
      end;
      sharer_add sys line proc;
      miss_into out ~now ~start latency
    end
  | Write ->
    if writer = proc then
      (* Exclusive owner writes in cache. *)
      hit_into out ~now config.cache_hit
    else begin
      let home = home_node config ~id:line in
      let start = miss_start sys line ~home ~now in
      let latency = fetch_latency config ~home ~proc in
      sys.busy_until.(line) <- start + config.occupancy;
      sharer_clear sys line;
      sys.writer.(line) <- proc;
      miss_into out ~now ~start latency
    end
  | Swap ->
    (* RMW always serializes at the module, even for the owner: it is the
       point where concurrent SWAPs order themselves. *)
    let home = home_node config ~id:line in
    let start = miss_start sys line ~home ~now in
    let latency =
      (if writer = proc then config.cache_hit
       else fetch_latency config ~home ~proc)
      + config.swap_extra
    in
    sys.busy_until.(line) <- start + config.occupancy + config.swap_extra;
    sharer_clear sys line;
    sys.writer.(line) <- proc;
    miss_into out ~now ~start latency

let access sys meta ~proc ~now kind =
  (* Allocating convenience wrapper; tests and diagnostics only — the
     scheduler goes through [access_into]. *)
  let out = make_scratch () in
  access_into out sys meta ~proc ~now kind;
  { start = out.c_start; finish = out.c_finish; hit = out.c_hit; queued = out.c_queued }

(* Directory inspection, for the model tests: the coherence state of one
   line as plain data.  A line beyond the columns was never charged. *)
let writer_of sys (line : meta) =
  if line < Array.length sys.writer then sys.writer.(line) else -1

let busy_until_of sys (line : meta) =
  if line < Array.length sys.writer then sys.busy_until.(line) else 0

let sharers_of sys (line : meta) =
  let acc = ref [] in
  if line < Array.length sys.writer then
    for p = (63 * sys.words_per_line) - 1 downto 0 do
      if sharer_mem sys line p then acc := p :: !acc
    done;
  !acc
