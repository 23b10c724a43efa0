(** Imperative binary min-heap over a flat array: the event queue of
    {!Heap_engine}, the engine oracle. *)

type 'a t

(** [create ~dummy ~compare] is an empty heap ordered by [compare].
    [dummy] is used to fill unused array slots and is never returned. *)
val create : dummy:'a -> compare:('a -> 'a -> int) -> 'a t

(** Number of elements currently in the heap. *)
val length : 'a t -> int

(** [is_empty h] is [length h = 0]. *)
val is_empty : 'a t -> bool

(** Slots in the backing array (diagnostics and tests). Grows by
    doubling on [push]; halves on [pop] once occupancy drops below a
    quarter, never below the initial 16. *)
val capacity : 'a t -> int

(** Insert an element. Amortised O(log n). *)
val push : 'a t -> 'a -> unit

(** Remove and return the minimum element. Raises [Invalid_argument]
    on an empty heap. Releases backing storage as the heap drains (see
    {!capacity}), so a burst does not pin memory for the whole run. *)
val pop : 'a t -> 'a

(** [filter_in_place p h] drops every element for which [p] is false,
    in O(n) (compaction plus bottom-up heapify) — the oracle uses this
    to purge cancelled events without reallocating per element. *)
val filter_in_place : ('a -> bool) -> 'a t -> unit

(** Return the minimum element without removing it, or [None]. *)
val peek : 'a t -> 'a option

(** Remove all elements and reset the backing array to its initial
    size. *)
val clear : 'a t -> unit

(** Fold over the elements in unspecified order. *)
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
