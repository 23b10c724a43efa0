(** Wall-clock throughput benchmark for the simulator core
    (BENCH_wallclock.json).

    Unlike every other deliverable, this measures the {e host}: real
    seconds and events/sec to compute the registry's own [table3],
    [fig4] and [fig6] points, plus the engine-wide cancellation counter
    and heap high-water mark from {!Semper_sim.Engine.Totals}. Figure 6
    is joined by a sweep with fewer services than kernels, which forces
    cross-group sessions and so the retry timers. The numbers are
    host-dependent by construction, so the file is excluded from the
    byte-identity contract that covers the other outputs; the
    simulated-cycle results of the workloads it runs are unchanged and
    still covered. Workloads run serially so the timings are not folded
    together with domain-scheduler noise. *)

type sample = {
  s_name : string;
  s_wall_s : float;
  s_events : int;  (** events executed by the engines of this workload *)
  s_events_per_s : float;
  s_cancelled : int;
  s_heap_peak : int;
      (** process-wide monotone high-water mark as of the end of this
          workload, not a per-workload delta *)
  s_minor_collections : int;  (** minor GCs during this workload *)
  s_major_collections : int;  (** major GC cycles during this workload *)
  s_promoted_words : float;  (** words promoted minor -> major *)
}

(** One timed workload: a paper entry's points at a preset. *)
type point

val entry : (point, sample) Entry.spec
