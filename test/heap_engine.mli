(** The event queue {!Semperos.Engine} used before its timer wheel: a
    binary heap of events ordered by [(time, seq)], with lazy deletion.
    [cancel] marks the event dead; [run] pops a dead event without
    running it when it reaches the top, and the heap compacts once at
    least 64 events are queued and more than half are dead. A drained queue catches the clock up to the latest time ever
    scheduled, and a bounded run leaves the clock at its bound.

    Every committed figure was first recorded under this queue, so it
    is the oracle that [test_engine_model] holds the engine to: fire
    order, clocks, live and queued counts, tombstones and compaction
    must all match. Functions share their {!Semperos.Engine}
    namesakes' contracts and error messages. *)

type t
type handle

val create : unit -> t
val now : t -> int64
val at : t -> int64 -> (unit -> unit) -> unit
val after : t -> int64 -> (unit -> unit) -> unit
val at_cancellable : t -> int64 -> (unit -> unit) -> handle
val after_cancellable : t -> int64 -> (unit -> unit) -> handle
val cancel : t -> handle -> unit
val run : ?until:int64 -> t -> int
val events_processed : t -> int
val events_cancelled : t -> int

(** Largest heap length, dead events included. *)
val heap_peak : t -> int

(** Live events queued. *)
val pending : t -> int

(** Events queued, dead ones included: [Engine.snapshot]'s [s_queued]. *)
val queued : t -> int

(** Dead events queued: [Engine.snapshot]'s [s_dead]. *)
val dead : t -> int
