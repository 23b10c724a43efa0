(** Skewed-workload benchmark for the autonomic load balancer.

    Builds a multi-kernel system whose clients are all pinned to one PE
    group (the hotspot) while the other groups idle, runs a mixed
    workload per client — capability churn (alloc → derive× → revoke),
    periodic m3fs file traffic against a service pinned at kernel 0,
    and compute gaps between rounds — and measures how the balancer's
    occupancy-driven migrations change per-kernel occupancy and
    completion time against the {!Semper_balance.Balance.Policy.Static}
    baseline.

    The compute gaps are what give the balancer its windows: between
    rounds a client holds only its session capability, which the
    candidate gate accepts; mid-round it has a syscall in flight or
    holds derived capabilities, and is skipped. *)

type config = {
  kernels : int;
  pes_per_kernel : int;  (** user PEs per group; the hotspot group must fit all clients *)
  clients : int;
  rounds : int;  (** capability-churn rounds per client *)
  derives : int;  (** derives per round (children of the round's alloc root) *)
  fs_every : int;  (** file-traffic burst every N rounds (0 = never) *)
  fs_bytes : int;  (** bytes written per burst *)
  compute : int64;  (** compute gap between rounds, cycles *)
  spread : bool;  (** [false]: all clients in group 0 (hotspot); [true]: round-robin *)
  policy : Semper_balance.Balance.Policy.t;
  interval : int64;  (** balancer control-tick period, cycles *)
  fault : Semper_fault.Fault.profile option;
}

val default_config : config

type result = {
  completion : int64;  (** cycles until the last client finished *)
  occupancy : float array;  (** per-kernel busy fraction over [0, completion] *)
  max_occupancy : float;
  migrations : Semper_balance.Balance.migration list;
  cap_ops : int;
  audit_errors : string list;  (** post-run capability-forest violations (must be []) *)
}

(** Run one configuration to completion (drains the engine, audits the
    capability forest). Raises [Failure] on any client error. *)
val run : config -> result

(** The static baseline and the threshold policy, on the same
    hotspot configuration. *)
type point

(** The [balance] deliverable: runs both sides, prints a comparison
    table, fails on any capability-audit violation, and renders
    [BENCH_balance.json] (schema [semperos-balance-1]) with both sides
    plus the migration sequence. *)
val entry : (point, result) Entry.spec
