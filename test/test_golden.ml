(* Golden bytes: the exported trace, the metric snapshot and the
   system fingerprint of one fixed two-kernel workload, pinned in
   [golden/]. The determinism tests compare two runs of the same build;
   these compare against files written by an earlier build, so a change
   to how instruments or the trace ring are stored that alters a single
   exported byte fails here.

   Regenerate a file only when its content is meant to change: run the
   workload, write [to_jsonl], the snapshot JSON and the fingerprint,
   and say in the change why the bytes moved.

   Moved so far: [k4_trace.jsonl] and [k4_fingerprint.txt] were
   rewritten when broadcasts switched from hash-table order to
   kernel-id order. Kernel 1 used to announce its service to kernels
   2, 3, 0 and kernel 3 to 2, 0, 1; both now go in id order. The
   same-cycle [ikc_send]/[ikc_recv] records of each announce reorder,
   and since each peer's announce gets the next op id in visit order,
   the op id a peer's announce carries moves with it. Sorted by
   (ts, src, dst, kind) the two traces differ only in those op ids.
   The fingerprint moved only because it digests the trace ring: every
   other part of the system snapshot, and [k4_snapshot.json], kept
   their bytes.

   When the always-zero [engine.events_skipped] counter was deleted,
   [snapshot.json] and [k4_snapshot.json] each lost exactly that
   member and nothing else. Both fingerprints moved because they
   digest the registry and the engine snapshot, which lost its
   skipped field too. Both traces kept their bytes.

   When idempotency-cache entries started to leave on the peer's close
   instead of after a 25.6M-cycle retention, both fingerprints moved
   and nothing else did. A kernel's snapshot now nests its transport's
   image, which lists the cache keys still held and the closes still
   pending, and no longer counts an eviction queue. Digested one by one,
   the engine, fabric, DTU, membership, registry, trace and mapping
   database images of both workloads are identical to the earlier
   build's. *)

open Semperos

let expect what = function
  | Protocol.R_sel s -> s
  | r -> Alcotest.failf "%s: %a" what Protocol.pp_reply r

(* VPE [a] on kernel 0 allocates memory; [b] on kernel 1 obtains it (a
   spanning exchange); [a] opens a session with a service on kernel 1
   (a cross-kernel open) and then revokes the memory, which reaches
   [b]'s copy on kernel 1 (a spanning revoke). *)
let run_workload () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:3 ~trace_capacity:8192 ()) in
  let a = System.spawn_vpe sys ~kernel:0 in
  let b = System.spawn_vpe sys ~kernel:1 in
  let srv = System.spawn_vpe sys ~kernel:1 in
  Kernel.register_service_handler (System.kernel sys 1) ~name:"golden" (fun _req k ->
      k (Protocol.Srs_session { ident = 7 }));
  ignore (expect "create_srv" (System.syscall_sync sys srv (Protocol.Sys_create_srv { name = "golden" })));
  ignore (System.run sys);
  let sel =
    expect "alloc" (System.syscall_sync sys a (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
  in
  ignore
    (expect "obtain_from"
       (System.syscall_sync sys b (Protocol.Sys_obtain_from { donor_vpe = a.Vpe.id; donor_sel = sel })));
  (match System.syscall_sync sys a (Protocol.Sys_open_session { service = "golden" }) with
  | Protocol.R_sess _ -> ()
  | r -> Alcotest.failf "open_session: %a" Protocol.pp_reply r);
  (match System.syscall_sync sys a (Protocol.Sys_revoke { sel; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke: %a" Protocol.pp_reply r);
  ignore (System.run sys);
  sys

(* Four kernels in broadcast mode, so the order in which a kernel
   visits its peers reaches the trace (with two kernels every
   broadcast has a single peer). Services announced from kernels 1 and
   3 each reach three peers; [a] on kernel 0 opens a session with the
   service on kernel 3 (a cross-kernel open), [b] on kernel 2 obtains
   [a]'s memory, and [a]'s revoke of it messages every other kernel
   (a broadcast-mode revoke). *)
let run_broadcast_workload () =
  let sys =
    System.create
      (System.config ~kernels:4 ~user_pes_per_kernel:3 ~broadcast:true ~trace_capacity:8192 ())
  in
  let a = System.spawn_vpe sys ~kernel:0 in
  let b = System.spawn_vpe sys ~kernel:2 in
  List.iter
    (fun (kid, name) ->
      let srv = System.spawn_vpe sys ~kernel:kid in
      Kernel.register_service_handler (System.kernel sys kid) ~name (fun _req k ->
          k (Protocol.Srs_session { ident = kid }));
      ignore (expect "create_srv" (System.syscall_sync sys srv (Protocol.Sys_create_srv { name }))))
    [ (1, "golden1"); (3, "golden3") ];
  ignore (System.run sys);
  let sel =
    expect "alloc" (System.syscall_sync sys a (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
  in
  ignore
    (expect "obtain_from"
       (System.syscall_sync sys b (Protocol.Sys_obtain_from { donor_vpe = a.Vpe.id; donor_sel = sel })));
  (match System.syscall_sync sys a (Protocol.Sys_open_session { service = "golden3" }) with
  | Protocol.R_sess _ -> ()
  | r -> Alcotest.failf "open_session: %a" Protocol.pp_reply r);
  (match System.syscall_sync sys a (Protocol.Sys_revoke { sel; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke: %a" Protocol.pp_reply r);
  ignore (System.run sys);
  sys

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check_golden ~prefix sys =
  Alcotest.check Alcotest.string "trace JSONL" (read_file (prefix ^ "trace.jsonl"))
    (Obs.Trace.to_jsonl (System.trace_buffer sys));
  Alcotest.check Alcotest.string "registry snapshot" (read_file (prefix ^ "snapshot.json"))
    (Obs.Json.to_string (Obs.Registry.snapshot (System.obs sys)) ^ "\n");
  Alcotest.check Alcotest.string "fingerprint" (read_file (prefix ^ "fingerprint.txt"))
    (System.fingerprint sys ^ "\n")

let test_golden_outputs () = check_golden ~prefix:"golden/" (run_workload ())
let test_golden_broadcast () = check_golden ~prefix:"golden/k4_" (run_broadcast_workload ())

let suite =
  [
    Alcotest.test_case "golden trace, snapshot and fingerprint" `Quick test_golden_outputs;
    Alcotest.test_case "golden four-kernel broadcast" `Quick test_golden_broadcast;
  ]
