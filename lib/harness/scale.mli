(** Scale-ceiling benchmark: the simulator and kernel data structures
    at 1K, 2K and 4K PEs.

    Each row builds a system of the given size, replays an application
    mix over it (serially), and reports host-side
    throughput — capability operations and engine events per wall-clock
    second — together with the engine heap high-water mark and GC
    counters. A second phase at the same scale populates a capability
    forest spanning every PE partition, performs a small steady-state
    churn, and times a full {!Audit.run} against an
    {!Audit.Incremental.run} over the same churn, demonstrating that
    auditing no longer dominates wall-clock at 4K PEs.

    A final session row replaces the application mix with a
    trace-driven open-session generator: a fixed-seed exponential
    arrival trace is scheduled up front (so the engine starts with the
    whole trace pending — the regime that motivated the timer-wheel
    queue), and every arrival is a cross-kernel
    [Sys_open_session] + [Sys_revoke] pair against a minimal session
    service. The [Full] preset drives one million sessions.

    Like [BENCH_wallclock.json], the output measures the {e host} and
    is excluded from the byte-identity contract. *)

type row = {
  r_name : string;
  r_total_pes : int;  (** instances + services + kernels *)
  r_kernels : int;
  r_services : int;
  r_instances : int;
  r_sessions : int;
      (** sessions opened by the trace generator; 0 for the
          application-mix rows *)
  r_wall_s : float;
      (** wall-clock of the event loop alone, seconds — setup work
          (trace/image building, VPE spawning) processes no events and
          is excluded, so [r_events_per_s] measures the simulator.
          Application rows report the best (minimum) of three
          repetitions; the simulated counts are identical across them *)
  r_events : int;  (** engine events executed by the mix *)
  r_events_per_s : float;
  r_cap_ops : int;  (** kernel-side capability operations of the mix *)
  r_cap_ops_per_s : float;  (** [r_cap_ops / r_wall_s], host-side rate *)
  r_heap_peak : int;
      (** engine-queue high-water mark of this row (the mark is reset
          at each row boundary, see {!Engine.Totals.reset_heap_peak}) *)
  r_dedup_peak : int;
      (** most idempotency-cache entries one kernel held at once
          ({!Experiment.dedup_peak}), the largest over the row's
          systems *)
  r_minor_collections : int;  (** minor GCs during the mix *)
  r_major_collections : int;  (** major GC cycles during the mix *)
  r_promoted_words : float;  (** words promoted minor -> major *)
  r_audit_caps : int;  (** live capabilities in the churn forest *)
  r_audit_full_s : float;  (** one full {!Audit.run} after the churn *)
  r_audit_incremental_s : float;
      (** one {!Audit.Incremental.run} over the same churn *)
}

(** The preset's rows: [Full] measures 1K / 2K / 4K PE application
    rows and a 1M-session row, [Smoke] one tiny row of each kind. *)
type sweep

(** The [scale] deliverable. It has a single point, because one
    unmeasured warm-up at the largest row's scale must run before the
    rows it warms. *)
val entry : (sweep, row list) Entry.spec
