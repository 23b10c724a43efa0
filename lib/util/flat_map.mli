(** Flat open-addressing map from non-negative ints to ints.

    Two int arrays (keys, values) probed linearly from a multiplicative
    hash of the key, kept at most half full. A lookup is a few array
    reads with no allocation and no call into C; a store into an int
    array needs no write barrier. Bindings are never removed one by
    one, only all at once with [clear]. *)

type t

(** [create n] is an empty map sized for about [n] bindings; it grows
    on demand. *)
val create : int -> t

(** Number of bindings. *)
val length : t -> int

(** [find_default t k ~default] is [k]'s value, or [default] if [k] is
    unbound. *)
val find_default : t -> int -> default:int -> int

(** [replace t k v] binds [k] to [v]. Raises [Invalid_argument] if [k]
    is negative. *)
val replace : t -> int -> int -> unit

(** [raise_to t k v] binds [k] to the larger of [v] and its current
    value ([v] if unbound) and returns that binding — one probe for a
    lookup followed by a store. Raises like {!replace}. *)
val raise_to : t -> int -> int -> int

(** Every binding, in table order (which depends on the hash and the
    capacity: sort before exposing it). *)
val iter : (int -> int -> unit) -> t -> unit

(** Drop every binding; the capacity is kept. *)
val clear : t -> unit

(** The longest probe any bound key needs: the distance from its home
    cell to the cell holding it. A diagnostic of hash quality for
    tests; O(capacity). *)
val max_displacement : t -> int
