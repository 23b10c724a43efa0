(** Inter-kernel transport: how one kernel's messages reach its peers.

    - {b Credits} (paper §5.1): at most {!Cost.max_inflight} messages
      in flight toward each peer; a send without a credit parks in a
      FIFO until the peer returns one.
    - {b Batching} (batching mode): messages to one peer issued within
      a DTU slot window leave as one framed [Ik_batch].
    - {b Retransmission} (§4.1): op-tagged messages registered with
      {!register_retry} are resent with exponential backoff until
      {!clear_retry}, or until the budget runs out and the owning
      kernel's [on_exhausted] callback fails the operation.
    - {b Duplicate detection}: the responder's cache of op-tagged
      requests ({!remote_dup}, {!finish_remote}) and the delegate
      source's cache of sent acks ({!cache_ack}, {!cached_ack}).
    - {b Closes}: the kernel that retransmits an op knows when no
      further copy of it will leave — its reply or ack arrived, or its
      retry budget ran out ({!clear_retry}, {!close}). It then names
      the op on its next credit return to the peer, once no copy waits
      in its own credit-stall or batch queue, and the peer drops the
      op's cache entries after handling that message. The fabric keeps
      each channel FIFO, so every copy reaches the peer before the
      close does, and the caches hold about one entry per peer and
      direction instead of one per request of the run.

    The protocol handlers live in {!Kernel}; they reach the transport
    only through this interface, and the transport reaches them only
    through the [deliver] and [on_exhausted] callbacks given to
    {!create}. *)

(** The transport's instruments, registered as [kernel<id>.<field>]. *)
type counters = {
  ikc_sent : Semper_obs.Obs.Registry.counter;
  credit_stalls : Semper_obs.Obs.Registry.counter;
  credit_overrefund : Semper_obs.Obs.Registry.counter;
  retries : Semper_obs.Obs.Registry.counter;
  retry_exhausted : Semper_obs.Obs.Registry.counter;
  dup_ikc : Semper_obs.Obs.Registry.counter;
  batches_sent : Semper_obs.Obs.Registry.counter;
  batched_msgs : Semper_obs.Obs.Registry.counter;
}

type t

(** [create ... ~peer ~deliver ~on_exhausted] is kernel [id]'s
    transport, on kernel PE [pe], among [kernel_count] kernel ids.
    [peer k] is kernel [k]'s transport and raises [Not_found] when no
    kernel has id [k]. [deliver ~src_kernel ikc] hands an arriving
    message to the owning kernel. [on_exhausted op] runs when the
    retry budget of [op] runs out. *)
val create :
  obs:Semper_obs.Obs.Registry.t ->
  trace:Semper_obs.Obs.Trace.t ->
  engine:Semper_sim.Engine.t ->
  fabric:Semper_noc.Fabric.t ->
  cost:Cost.t ->
  id:int ->
  pe:int ->
  kernel_count:int ->
  peer:(int -> t) ->
  deliver:(src_kernel:int -> Protocol.ikc -> unit) ->
  on_exhausted:(int -> unit) ->
  t

val counters : t -> counters

(** Wait before retransmission attempt [i]: [retry_timeout * 2^i],
    capped at 64 timeouts. *)
val retry_interval : Cost.t -> int -> int64

(** Bucket bounds (cycles) of the latency histograms. *)
val latency_buckets : float array

(** Send [ikc] to kernel [dst]: batched (batching mode), then gated by
    [dst]'s credit window. Toward an id with no kernel the message is
    logged and dropped. Raises [Invalid_argument] when [dst] is this
    kernel. *)
val send : t -> dst:int -> Protocol.ikc -> unit

(** One credit came back from [peer] (or a retransmission refunds one):
    the oldest parked message leaves, or the window widens, clamped at
    {!Cost.max_inflight}. *)
val receive_credit : t -> peer:int -> unit

(** The kernel fetched a message from [src_kernel]: return its credit,
    piggybacking [ack_op] as a delivery acknowledgement that clears
    the sender's retransmission of that op. *)
val return_credit : ?ack_op:int -> t -> src_kernel:int -> unit

(** An [Ik_batch] frame of [size] messages arrived from [src_kernel];
    all but one of their credit returns are absorbed. *)
val frame_received : t -> src_kernel:int -> size:int -> unit

(** [register_retry t op ~dst msg] retransmits [msg] until
    [clear_retry t op]. *)
val register_retry : t -> int -> dst:int -> Protocol.ikc -> unit

(** Stop retransmitting [op] (its reply or ack arrived) and close it
    toward its destination, unless it is a [notification] acked on a
    credit return, which the peer never caches. *)
val clear_retry : ?notification:bool -> t -> int -> unit

(** [close t ~peer op]: this kernel sends no further copy of [op] to
    [peer]; see the module description. For broadcast ops, which
    retransmit outside {!register_retry}. *)
val close : t -> peer:int -> int -> unit

(** [remote_dup t ~src_kernel ~op] is [true] when request [op] was seen
    before: its credit is returned, and a finished op resends its
    cached reply. On [false] the request is recorded as in progress. *)
val remote_dup : t -> src_kernel:int -> op:int -> bool

(** Send the final reply for request [op] and cache it for
    redeliveries, unless the requester closed [op] while it was in
    progress. *)
val finish_remote : t -> op:int -> dst:int -> Protocol.ikc -> unit

(** [cache_ack t ~op ~dst ack]: remember the ack of a completed
    delegate handshake, so a redelivered reply can resend it. *)
val cache_ack : t -> op:int -> dst:int -> Protocol.ikc -> unit

(** The cached ack of [op] and its destination. *)
val cached_ack : t -> int -> (int * Protocol.ikc) option

(** Sizes of the two idempotency caches, [(remote ops, completed acks)]. *)
val idempotency_cache_sizes : t -> int * int

(** Most entries the two caches have held together since creation. *)
val idempotency_cache_peak : t -> int

(** Per-peer send-credit windows as [(peer kernel, credits)], sorted by
    peer id. *)
val credit_windows : t -> (int * int) list

(** Closure-free image: op ids of the retry table, both caches and the
    pending closes, and per-peer credit, batch and owed state. *)
type snapshot

val snapshot : t -> snapshot

(** Whether the live retry table, caches and pending closes are the
    snapshot's. *)
val matches : t -> snapshot -> bool

(** Restore credit windows and owed returns in place; raises
    [Invalid_argument] when queued sends differ from the snapshot. *)
val restore : t -> snapshot -> unit

(** Nothing awaiting retransmission, no batched sends parked, no
    absorbed credit returns owed, every window back at the bound. *)
val quiescent : t -> bool

(** One clause per obstacle to {!quiescent}, unsorted. *)
val quiescence_report : t -> string list

(** Violations of the idle-system invariants: batched sends still
    queued, credit returns still owed. *)
val check_invariants : t -> string list
