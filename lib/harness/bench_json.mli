(** The headline-number deliverables, BENCH_micro.json and
    BENCH_apps.json, and the writer every BENCH file goes through.

    Built with the deterministic {!Semper_obs.Obs.Json} emitter: keys
    are emitted in a fixed order and the simulator is seeded, so
    repeated runs produce byte-identical files that CI can diff against
    the committed baselines, at any job count. *)

(** Table 3 + Figure 4 headline numbers. [lens] are the chain lengths
    sampled for Figure 4 (default [0; 20; 40; 60; 80; 100]). *)
val micro : ?jobs:int -> ?lens:int list -> unit -> Semper_obs.Obs.Json.t

(** Single-instance application runs — the left half of Table 4
    (default: every workload). The 512-instance column is deliberately
    omitted: it takes minutes, and the JSON export is meant to be cheap
    enough for CI. *)
val apps :
  ?jobs:int -> ?workloads:Semper_trace.Workloads.spec list -> unit -> Semper_obs.Obs.Json.t

(** The [micro] and [apps] registry entries ({!micro} and {!apps} at
    their defaults for [Full]). *)
val entries : Entry.t list

(** Write a JSON document to [path] with a trailing newline and print
    "wrote [path]". *)
val write : path:string -> Semper_obs.Obs.Json.t -> unit
