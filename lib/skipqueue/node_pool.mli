(** Per-height free lists of skiplist nodes (DESIGN.md §S17).

    Host-side state under a host mutex: it is never touched between two
    runtime effects of one operation, so it cannot perturb a simulated
    schedule.  The pool only stores and counts nodes; making a popped
    node fresh again — re-registering its cells in exactly the order a
    new node registers them, so recycling draws the same line ids a fresh
    allocation would — is the owning layout's job. *)

type 'n t

type stats = {
  returned : int;  (** nodes pushed (handed back by a finalizer) *)
  recycled : int;  (** pooled nodes popped back into use *)
  pooled : int;  (** nodes currently waiting in the free lists *)
}

val create : levels:int -> 'n t
(** One free list per node height [1 .. levels]. *)

val push : 'n t -> level:int -> 'n -> unit
val pop : 'n t -> level:int -> 'n option
(** Most recently pushed node of that height first. *)

val stats : 'n t -> stats
