(** IKC batching benchmark (BENCH_batch.json): the Figure 4 spanning
    chain, a Figure 5-shaped tree, and a burst of concurrent spanning
    obtains, each run with slot-window coalescing off and on. Reports
    simulated cycles and inter-kernel message counts side by side.

    Every workload runs on private systems and the simulator is
    seeded, so the emitted JSON is byte-identical across runs and
    [--jobs] values. *)

type sample = {
  b_name : string;
  b_off_cycles : int64;
  b_on_cycles : int64;
  b_off_ikc : int;  (** Ik_* messages put on the fabric, batching off *)
  b_on_ikc : int;   (** same workload phase, batching on (frames count as one) *)
  b_batches : int;  (** framed multi-messages shipped, batching on *)
  b_batched_msgs : int;  (** inner messages those frames carried *)
}

(** One workload, run once with batching off and once on. *)
type point

(** The [batch] deliverable ([BENCH_batch.json], schema
    [semperos-batch-1]). *)
val entry : (point, sample) Entry.spec
