(** Engine-only microbenchmark: event-queue throughput in isolation.

    Measures host-side schedule / cancel / drain throughput of the
    {!Semper_sim.Engine} timer wheel at increasing pending-event
    counts, with no kernel or DTU work in the way; the sizes sweep from
    1K to 1M pending events to show that per-operation cost does not
    grow with the queue.

    Like [BENCH_wallclock.json], the output measures the {e host} and
    is excluded from the byte-identity contract. Its rows keep a
    ["backend"] column (always ["wheel"]) from when a binary-heap
    backend was measured beside the wheel. *)

type sample = {
  s_op : string;  (** ["schedule"], ["cancel"] or ["drain"] *)
  s_pending : int;  (** queued events the operation runs against *)
  s_wall_s : float;
  s_ops_per_s : float;  (** [s_pending / s_wall_s] *)
}

(** The [engine] deliverable: for every size ([Full]: 1K / 100K / 1M
    pending events, [Smoke]: 1K / 10K), schedule that many events,
    cancel that many cancellable ones, and drain a full queue of them.
    A point is an operation name and a size. *)
val entry : (string * int, sample) Entry.spec
