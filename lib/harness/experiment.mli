(** Application-benchmark harness (paper §5.3).

    Builds a system with K kernels and S m3fs service instances, spawns
    N benchmark instances each replaying the workload's trace against a
    private file namespace, runs them all in parallel, and reports the
    metrics the paper's figures plot.

    Placement follows the paper: instances are spread evenly over PE
    groups; each of the first S groups hosts one service instance; a
    kernel whose group hosts a service connects its applications to
    that service, others round-robin over the remaining services
    ("Kernels which host a service in their PE group prefer to connect
    their applications to the service in their PE group", §5.3.2). *)

type config = {
  kernels : int;
  services : int;
  instances : int;
  workload : Semper_trace.Workloads.spec;
  mode : Semper_kernel.Cost.mode;
  mem_contention : float;
      (** memory-system contention coefficient: every instance's compute
          and data access is stretched by
          [1 + mem_contention * instances / 640] — the uniform slowdown
          gem5's shared memory system imposes as more of the 640 cores
          become active (the paper attributes exactly this to
          "contention for hardware resources like the interconnect and
          the memory controller", §5.3.1) *)
}

val config :
  ?mode:Semper_kernel.Cost.mode ->
  ?mem_contention:float ->
  kernels:int ->
  services:int ->
  instances:int ->
  Semper_trace.Workloads.spec ->
  config

(** Calibrated default for [mem_contention]. *)
val default_mem_contention : float

type outcome = {
  cfg : config;
  runtimes : int64 list;        (** per-instance runtimes, cycles *)
  mean_runtime : float;
  max_runtime : int64;          (** makespan *)
  cap_ops : int;                (** kernel-side capability operations *)
  cap_ops_per_s : float;        (** aggregate rate over the makespan at 2 GHz *)
  exchanges_spanning : int;
  revokes_spanning : int;
  replay_wall_s : float;
      (** host wall-clock of the event loop alone (excludes building
          traces, images, and VPEs) — the simulator-throughput
          denominator, host-dependent by nature *)
  replay_errors : string list;
  kernel_utilisation : float;   (** mean kernel-PE busy fraction over makespan *)
  service_utilisation : float;
  total_pes : int;              (** instances + kernels + services *)
  dedup_peak : int;
      (** most idempotency-cache entries any one kernel held at once
          ({!Semper_kernel.Kernel.idempotency_cache_peak}) *)
  snapshot : Semper_obs.Obs.Json.t;
      (** end-of-run {!Semper_obs.Obs.Registry} snapshot (every kernel,
          fabric, and DTU instrument of this run's private system) *)
}

(** Largest {!Semper_kernel.Kernel.idempotency_cache_peak} among the
    system's kernels. *)
val dedup_peak : Semper_kernel.System.t -> int

(** Run the experiment to completion. Raises [Failure] if any replay
    reports errors — the trace player "checks for correct execution". *)
val run : config -> outcome

(** [parallel_efficiency ~single ~parallel] is T1 / mean(TN), the
    paper's scalability metric (§5.3.1). *)
val parallel_efficiency : single:outcome -> parallel:outcome -> float

(** [system_efficiency ~single ~parallel] additionally counts OS PEs
    (kernels and services) at zero efficiency and relates the result to
    the total PE count (Figure 9). *)
val system_efficiency : single:outcome -> parallel:outcome -> float

(** Cycles per second of the modelled cores (2 GHz, §5.1). *)
val clock_hz : float

(** Placement rule shared with the Nginx benchmark: which service an
    instance connects to (group-local preferred, §5.3.2). *)
val service_of_instance : kernels:int -> services:int -> instance:int -> int
