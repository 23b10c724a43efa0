(** Int-keyed hash table, monomorphic.

    The stdlib's polymorphic [Hashtbl] compares keys with the
    polymorphic comparison; this one compares them with [Int.equal].
    Its hash is exactly [Hashtbl.hash], so a table built by the same
    sequence of [create]/[add]/[replace]/[remove] calls has the
    polymorphic table's buckets, resizes and [iter]/[fold] order —
    swapping one for the other leaves every order that reaches the
    simulation unchanged. *)

include Hashtbl.S with type key = int
