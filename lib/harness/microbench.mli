(** Microbenchmark drivers for the paper's Table 3, Figure 4, and
    Figure 5. All times are simulated cycles measured at syscall-reply
    delivery, exactly like the paper's cycle counts. *)

(** [exchange_revoke ~mode ~spanning] runs the Table 3 microbenchmark:
    one obtain followed by one children-revoke, group-local or
    group-spanning. Returns [(exchange_cycles, revoke_cycles)]. *)
val exchange_revoke : mode:Semper_kernel.Cost.mode -> spanning:bool -> int64 * int64

(** [chain_revocation ~mode ~spanning ~len ()] builds a capability
    chain of [len] exchanges bounced between two VPEs and times
    revoking it from the root (Figure 4). [batching] enables
    slot-window coalescing plus the requester-handoff revoke wave (the
    Figure 4 ablation). *)
val chain_revocation :
  ?batching:bool -> mode:Semper_kernel.Cost.mode -> spanning:bool -> len:int -> unit -> int64

(** [tree_revocation ~extra_kernels ~children ()] builds a flat tree of
    [children] copies spread over [extra_kernels] other kernels and
    times the revoke (Figure 5). [batching] enables the paper's
    proposed message-batching improvement; [broadcast] switches to the
    Barrelfish-style broadcast scheme (paper §6) for comparison.
    [background_caps] pre-populates every kernel's mapping database with
    that many unrelated capabilities — a live system is never empty, and
    the broadcast baseline pays a scan proportional to database size. *)
val tree_revocation :
  ?batching:bool ->
  ?broadcast:bool ->
  ?background_caps:int ->
  extra_kernels:int ->
  children:int ->
  unit ->
  int64

(** [obtain_burst n] times [n] concurrent group-spanning obtains of one
    capability (the makespan, in cycles): exchange throughput under the
    4-message in-flight IKC credit limit (the in-flight ablation). *)
val obtain_burst : int -> int64

(** {2 Run specs}

    Pure-data descriptions of one run, used as the points of the
    registry's sweeps. *)

type chain_spec = {
  c_mode : Semper_kernel.Cost.mode;
  c_spanning : bool;
  c_len : int;
  c_batching : bool;
}

val chain_spec :
  ?batching:bool ->
  mode:Semper_kernel.Cost.mode ->
  spanning:bool ->
  len:int ->
  unit ->
  chain_spec

(** {!chain_revocation} of a spec. *)
val chain : chain_spec -> int64

type tree_spec = {
  t_batching : bool;
  t_broadcast : bool;
  t_background_caps : int;
  t_extra_kernels : int;
  t_children : int;
}

val tree_spec :
  ?batching:bool ->
  ?broadcast:bool ->
  ?background_caps:int ->
  extra_kernels:int ->
  children:int ->
  unit ->
  tree_spec

(** {!tree_revocation} of a spec. *)
val tree : tree_spec -> int64
