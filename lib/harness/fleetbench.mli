(** Elastic-fleet benchmark: an overloaded two-kernel system
    autoscaling out to absorb a load surge and back once it recedes.

    A pool of long-lived base clients plus a pool of short-lived surge
    clients hammer the two boot kernels with the skew benchmark's
    capability-churn loop (alloc → derive → revoke → file burst). The
    {!Semper_fleet.Fleet.Auto} autoscaler watches mean Active
    occupancy: the surge pushes it over the high-water mark (spare
    kernels join and absorb partitions), and once the surge clients
    exit it falls below the low-water mark (the emptiest kernels drain
    and retire, back to the boot fleet). A fixed run with the
    autoscaler off is the baseline.

    Safety is asserted, not assumed: per-transition checks (retired
    kernels hold nothing; joined kernels own their home partitions;
    every membership replica agrees on lifecycle states) plus a full
    cross-kernel capability audit at the end — zero lost capabilities.
    The longest handoff wave is reported as the syscall-stall bound. *)

type config = {
  boot : int;  (** kernels Active at boot *)
  spares : int;  (** kernels provisioned Spare, available to join *)
  pes_per_kernel : int;
  base_clients : int;  (** run the full [base_rounds] *)
  surge_clients : int;  (** run [surge_rounds], then exit — the load spike *)
  base_rounds : int;
  surge_rounds : int;
  derives : int;
  fs_every : int;
  fs_bytes : int;
  compute : int64;  (** base clients' inter-round compute gap *)
  surge_compute : int64;  (** surge clients' gap — small, so the surge saturates *)
  policy : Semper_balance.Balance.Fleet_policy.t;
  interval : int64;
  fault : Semper_fault.Fault.profile option;
}

val default_config : config

type result = {
  completion : int64;  (** cycle the last client finished *)
  surge_done : int64;  (** cycle the last surge client exited — the loaded phase *)
  settled : int64;  (** cycle the fleet was back at [boot] Active kernels *)
  transitions : Semper_fleet.Fleet.Auto.transition list;
  peak_active : int;
  final_active : int;
  max_wave : int64;  (** longest handoff wave — the syscall-stall bound *)
  transition_errors : string list;  (** per-transition safety violations *)
  occupancy : float array;
  cap_ops : int;
  audit_errors : string list;
}

(** One run. [elastic = false] leaves the autoscaler off (the fixed
    baseline; spares stay idle). Deterministic for a given config. *)
val run : ?elastic:bool -> config -> result

val config_of_preset : Entry.preset -> config

(** The fixed baseline and the elastic run, on one configuration. *)
type point

(** The [fleet] deliverable: runs fixed and elastic, prints the
    comparison, fails on any audit or transition-check violation (or if
    the fleet does not settle back at the boot size), and renders
    [BENCH_fleet.json] (schema [semperos-fleet-1]). *)
val entry : (point, result) Entry.spec
