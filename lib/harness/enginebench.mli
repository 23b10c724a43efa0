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

type preset =
  | Full  (** 1K / 100K / 1M pending events *)
  | Smoke  (** 1K / 10K, for the [@engine-smoke] test *)

(** Run the preset's measurements: for every size, schedule that many
    events, cancel that many cancellable ones, and drain a full queue
    of them. *)
val samples : ?preset:preset -> unit -> sample list

(** Deterministically ordered JSON document for a measured run. *)
val json : sample list -> Semper_obs.Obs.Json.t

(** Render the samples as a table on stdout. *)
val print : sample list -> unit

(** [samples] + [print] + write JSON to [path]
    (default ["BENCH_engine.json"]). *)
val run : ?preset:preset -> ?path:string -> unit -> unit
