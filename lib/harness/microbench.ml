(** Microbenchmark drivers for the paper's Table 3, Figure 4, and
    Figure 5: shared by the experiment registry and the CLI. All times are
    simulated cycles measured at syscall-reply delivery, exactly like
    the paper's cycle counts. *)

module System = Semper_kernel.System
module Protocol = Semper_kernel.Protocol
module Vpe = Semper_kernel.Vpe
module Cost = Semper_kernel.Cost
module Perms = Semper_caps.Perms

let await sys result =
  ignore (System.run sys);
  match !result with
  | Some r -> r
  | None -> failwith "bench: syscall did not complete"

let timed_syscall sys vpe call =
  let result = ref None in
  let t0 = System.now sys in
  System.syscall sys vpe call (fun r -> result := Some (r, System.now sys));
  match await sys result with
  | Protocol.R_err e, _ -> failwith ("bench: " ^ Protocol.error_to_string e)
  | r, t1 -> (r, Int64.sub t1 t0)

let sel_of = function
  | Protocol.R_sel s -> s
  | r -> Format.kasprintf failwith "bench: expected selector, got %a" Protocol.pp_reply r

(* Two-VPE system for the Table 3 / Figure 4 microbenchmarks. *)
let micro_system ?(batching = false) mode =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:4 ~mode ~batching ()) in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:0 in
  let v3 = System.spawn_vpe sys ~kernel:1 in
  (sys, v1, v2, v3)

(* Table 3: one obtain followed by one revoke, group-local or
   group-spanning. Returns (exchange_cycles, revoke_cycles). *)
let exchange_revoke ~mode ~spanning =
  let sys, v1, v2, v3 = micro_system mode in
  let other = if spanning then v3 else v2 in
  let r, _ = timed_syscall sys v1 (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }) in
  let sel = sel_of r in
  let _, exchange =
    timed_syscall sys other (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = sel })
  in
  let _, revoke = timed_syscall sys v1 (Protocol.Sys_revoke { sel; own = false }) in
  (exchange, revoke)

(* Figure 4: revoke a chain built by bouncing a capability between two
   VPEs [len] times. [batching] enables slot-window coalescing plus the
   requester-handoff revoke wave (the Figure 4 ablation). *)
let chain_revocation ?(batching = false) ~mode ~spanning ~len () =
  let sys, v1, v2, v3 = micro_system ~batching mode in
  let other = if spanning then v3 else v2 in
  let r, _ = timed_syscall sys v1 (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }) in
  let root = sel_of r in
  let rec build i owner peer sel =
    if i < len then begin
      let r, _ =
        timed_syscall sys peer
          (Protocol.Sys_obtain_from { donor_vpe = owner.Vpe.id; donor_sel = sel })
      in
      build (i + 1) peer owner (sel_of r)
    end
  in
  build 0 v1 other root;
  let _, cycles = timed_syscall sys v1 (Protocol.Sys_revoke { sel = root; own = true }) in
  cycles

(* Figure 5: a root capability with [children] copies spread over
   [extra_kernels] other kernels (0 = all local), then revoked.
   [batching] enables the paper's proposed message-batching improvement
   (the Figure 5 ablation). *)
let tree_revocation ?(batching = false) ?(broadcast = false) ?(background_caps = 0) ~extra_kernels
    ~children () =
  let kernels = 1 + max extra_kernels 0 in
  let cfg =
    System.config ~kernels ~user_pes_per_kernel:(min 190 (children + 4)) ~mode:Cost.Semperos
      ~batching ~broadcast ()
  in
  let sys = System.create cfg in
  (* Fill the mapping databases with unrelated capabilities: a live
     system is never empty, and the broadcast baseline must scan all of
     this on every revoke. *)
  if background_caps > 0 then
    for k = 0 to kernels - 1 do
      let filler = System.spawn_vpe sys ~kernel:k in
      let kernel = System.kernel sys k in
      for _ = 1 to background_caps do
        ignore
          (Semper_kernel.Kernel.install_new_cap kernel ~owner:filler
             ~kind:(Semper_caps.Cap.Mem_cap
                      { host_pe = filler.Vpe.pe; addr = 0L; size = 64L; perms = Perms.r })
             ())
      done
    done;
  let root_vpe = System.spawn_vpe sys ~kernel:0 in
  let r, _ = timed_syscall sys root_vpe (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }) in
  let root = sel_of r in
  for i = 0 to children - 1 do
    let k = if extra_kernels = 0 then 0 else 1 + (i mod extra_kernels) in
    let v = System.spawn_vpe sys ~kernel:k in
    let r, _ =
      timed_syscall sys v (Protocol.Sys_obtain_from { donor_vpe = root_vpe.Vpe.id; donor_sel = root })
    in
    ignore (sel_of r)
  done;
  let _, cycles = timed_syscall sys root_vpe (Protocol.Sys_revoke { sel = root; own = true }) in
  cycles

(* Burst of spanning obtains under the 4-message in-flight IKC limit:
   the makespan of [n] concurrent obtains of one capability. *)
let obtain_burst n =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:(n + 2) ()) in
  let donor = System.spawn_vpe sys ~kernel:0 in
  let sel =
    sel_of (System.syscall_sync sys donor (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
  in
  let vpes = List.init n (fun _ -> System.spawn_vpe sys ~kernel:1) in
  let t0 = System.now sys in
  List.iter
    (fun v ->
      System.syscall sys v (Protocol.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel = sel })
        (fun _ -> ()))
    vpes;
  ignore (System.run sys);
  Int64.sub (System.now sys) t0

type chain_spec = {
  c_mode : Cost.mode;
  c_spanning : bool;
  c_len : int;
  c_batching : bool;
}

let chain_spec ?(batching = false) ~mode ~spanning ~len () =
  { c_mode = mode; c_spanning = spanning; c_len = len; c_batching = batching }

let chain s =
  chain_revocation ~batching:s.c_batching ~mode:s.c_mode ~spanning:s.c_spanning ~len:s.c_len ()

type tree_spec = {
  t_batching : bool;
  t_broadcast : bool;
  t_background_caps : int;
  t_extra_kernels : int;
  t_children : int;
}

let tree_spec ?(batching = false) ?(broadcast = false) ?(background_caps = 0) ~extra_kernels
    ~children () =
  { t_batching = batching; t_broadcast = broadcast; t_background_caps = background_caps;
    t_extra_kernels = extra_kernels; t_children = children }

let tree s =
  tree_revocation ~batching:s.t_batching ~broadcast:s.t_broadcast
    ~background_caps:s.t_background_caps ~extra_kernels:s.t_extra_kernels ~children:s.t_children ()
