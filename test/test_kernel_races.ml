(* Race and failure-injection tests for the distributed protocols:
   the remaining Table 2 interference cases, mid-flight deaths,
   delegate aborts, and determinism. *)

open Semperos

let check = Alcotest.check

let reply_t = Alcotest.testable Protocol.pp_reply ( = )

let sel_of = function
  | Protocol.R_sel s -> s
  | r -> Alcotest.failf "expected selector, got %a" Protocol.pp_reply r

let make ?(kernels = 2) ?(pes = 6) () =
  System.create (System.config ~kernels ~user_pes_per_kernel:pes ())

let alloc sys vpe =
  sel_of (System.syscall_sync sys vpe (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))

let total_caps sys =
  List.fold_left (fun acc k -> acc + Mapdb.count (Kernel.mapdb k)) 0 (System.kernels sys)

let run_for sys cycles = ignore (System.run ~until:(Int64.add (System.now sys) cycles) sys)

(* Table 2 "Invalid": the delegated capability is revoked while the
   two-way handshake is in flight. The receiver must never end up with
   a live capability. *)
let test_delegate_aborted_by_revoke () =
  (* Try a range of revoke injection times so every handshake stage is
     hit at least once. *)
  List.iter
    (fun inject_after ->
      let sys = make () in
      let owner = System.spawn_vpe sys ~kernel:0 in
      let middle = System.spawn_vpe sys ~kernel:0 in
      let receiver = System.spawn_vpe sys ~kernel:1 in
      let root = alloc sys owner in
      let mid_sel =
        sel_of
          (System.syscall_sync sys middle
             (Protocol.Sys_obtain_from { donor_vpe = owner.Vpe.id; donor_sel = root }))
      in
      (* [middle] starts delegating its capability across kernels... *)
      let delegate_result = ref None in
      System.syscall sys middle
        (Protocol.Sys_delegate_to { recv_vpe = receiver.Vpe.id; sel = mid_sel })
        (fun r -> delegate_result := Some r);
      run_for sys inject_after;
      (* ... while [owner] revokes the whole tree. *)
      let revoke_result = ref None in
      System.syscall sys owner (Protocol.Sys_revoke { sel = root; own = true }) (fun r ->
          revoke_result := Some r);
      ignore (System.run sys);
      check (Alcotest.option reply_t)
        (Printf.sprintf "revoke completes (inject %Ld)" inject_after)
        (Some Protocol.R_ok) !revoke_result;
      (match !delegate_result with
      | Some (Protocol.R_ok | Protocol.R_err (Protocol.E_in_revocation | Protocol.E_no_such_cap))
        ->
        (* Either the delegate won the race (and the revoke then swept
           the receiver's copy too) or it was aborted. *)
        ()
      | Some r -> Alcotest.failf "delegate (inject %Ld): %a" inject_after Protocol.pp_reply r
      | None -> Alcotest.fail "delegate never completed");
      check Alcotest.int
        (Printf.sprintf "nothing survives (inject %Ld)" inject_after)
        0 (total_caps sys);
      check Alcotest.int "receiver holds nothing" 0 (Capspace.count receiver.Vpe.capspace);
      Audit.check sys)
    [ 0L; 700L; 1400L; 2100L; 2800L; 3500L; 4200L; 6000L ]

(* The receiver dies while the delegate handshake is parked between
   reply and ack: the orphan record at its kernel must be dropped. *)
let test_delegate_receiver_dies () =
  List.iter
    (fun inject_after ->
      let sys = make () in
      let sender = System.spawn_vpe sys ~kernel:0 in
      let receiver = System.spawn_vpe sys ~kernel:1 in
      let sel = alloc sys sender in
      let delegate_result = ref None in
      System.syscall sys sender
        (Protocol.Sys_delegate_to { recv_vpe = receiver.Vpe.id; sel })
        (fun r -> delegate_result := Some r);
      run_for sys inject_after;
      receiver.Vpe.state <- Vpe.Exited;
      ignore (System.run sys);
      (* Whatever the outcome, only the sender's capability lives, with
         no children, and the links are globally consistent. *)
      check Alcotest.int
        (Printf.sprintf "one live cap (inject %Ld)" inject_after)
        1 (total_caps sys);
      let key = Option.get (Capspace.find sender.Vpe.capspace sel) in
      check Alcotest.int "no dangling child" 0
        (Mapdb.child_count (Kernel.mapdb (System.kernel sys 0)) key);
      Audit.check sys)
    [ 0L; 900L; 1800L; 2700L; 3600L; 4500L ]

(* The client dies while a cross-group session open is in flight: the
   service capability must not keep an orphaned session child. *)
let test_session_client_dies () =
  let sys = make () in
  let srv_vpe = System.spawn_vpe sys ~kernel:0 in
  Kernel.register_service_handler (System.kernel sys 0) ~name:"svc" (fun req k ->
      match req with
      | Protocol.Srq_open_session _ -> k (Protocol.Srs_session { ident = 0 })
      | Protocol.Srq_obtain _ | Protocol.Srq_delegate _ ->
        k (Protocol.Srs_reject Protocol.E_invalid));
  (match System.syscall_sync sys srv_vpe (Protocol.Sys_create_srv { name = "svc" }) with
  | Protocol.R_sel _ -> ()
  | r -> Alcotest.failf "create_srv: %a" Protocol.pp_reply r);
  ignore (System.run sys);
  let client = System.spawn_vpe sys ~kernel:1 in
  System.syscall sys client (Protocol.Sys_open_session { service = "svc" }) (fun _ -> ());
  run_for sys 2_500L;
  client.Vpe.state <- Vpe.Exited;
  ignore (System.run sys);
  (* Only the service capability lives; its child list is clean. *)
  let srv_key = Option.get (Kernel.lookup_service (System.kernel sys 0) "svc") in
  check Alcotest.int "no orphan session" 0
    (Mapdb.child_count (Kernel.mapdb (System.kernel sys 0)) srv_key);
  Audit.check sys

(* Concurrent revokes racing from both ends of a spanning chain. *)
let test_race_revokes_both_ends () =
  let sys = make () in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let a = alloc sys v1 in
  let b =
    sel_of
      (System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = a }))
  in
  let c =
    sel_of
      (System.syscall_sync sys v1 (Protocol.Sys_obtain_from { donor_vpe = v2.Vpe.id; donor_sel = b }))
  in
  ignore c;
  let r1 = ref None and r2 = ref None in
  System.syscall sys v1 (Protocol.Sys_revoke { sel = a; own = true }) (fun r -> r1 := Some r);
  System.syscall sys v2 (Protocol.Sys_revoke { sel = b; own = true }) (fun r -> r2 := Some r);
  ignore (System.run sys);
  check Alcotest.bool "both acknowledged" true (!r1 <> None && !r2 <> None);
  check Alcotest.int "chain gone" 0 (total_caps sys);
  Audit.check sys

(* Exchange arriving for a VPE that exits in the same instant. *)
let test_exchange_vs_exit () =
  let sys = make () in
  let donor = System.spawn_vpe sys ~kernel:0 in
  let taker = System.spawn_vpe sys ~kernel:1 in
  let sel = alloc sys donor in
  let obtain_result = ref None in
  System.syscall sys taker (Protocol.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel = sel })
    (fun r -> obtain_result := Some r);
  run_for sys 1_000L;
  (* The donor exits while the obtain request is in flight. *)
  let exit_result = ref None in
  System.syscall sys donor Protocol.Sys_exit (fun r -> exit_result := Some r);
  ignore (System.run sys);
  check (Alcotest.option reply_t) "exit completes" (Some Protocol.R_ok) !exit_result;
  (* The obtain either failed cleanly or its result was swept by the
     exit's revocation. *)
  check Alcotest.int "no capability leaked" 0 (total_caps sys);
  Audit.check sys

(* Determinism: identical configurations produce bit-identical results. *)
let test_determinism () =
  let run () =
    let o = Experiment.run (Experiment.config ~kernels:4 ~services:4 ~instances:16 Workloads.leveldb) in
    (o.Experiment.runtimes, o.Experiment.cap_ops, o.Experiment.max_runtime)
  in
  let a = run () and b = run () in
  check Alcotest.bool "bit-identical reruns" true (a = b)

(* Obtain of an obtained capability: grandchildren across three kernels
   with interleaved partial revocation. *)
let test_partial_revoke_deep_tree () =
  let sys = make ~kernels:3 ~pes:8 () in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let v3 = System.spawn_vpe sys ~kernel:2 in
  let a = alloc sys v1 in
  let b =
    sel_of
      (System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = a }))
  in
  let _c =
    sel_of
      (System.syscall_sync sys v3 (Protocol.Sys_obtain_from { donor_vpe = v2.Vpe.id; donor_sel = b }))
  in
  (* Revoke only the middle VPE's subtree, children-only: v2 keeps its
     capability, v3 loses its copy, v1 untouched. *)
  (match System.syscall_sync sys v2 (Protocol.Sys_revoke { sel = b; own = false }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke: %a" Protocol.pp_reply r);
  check Alcotest.int "v3 lost its copy" 0 (Capspace.count v3.Vpe.capspace);
  check Alcotest.int "v2 keeps its capability" 1 (Capspace.count v2.Vpe.capspace);
  check Alcotest.int "v1 untouched" 1 (Capspace.count v1.Vpe.capspace);
  check Alcotest.int "two caps remain" 2 (total_caps sys);
  Audit.check sys;
  (* Now the full revoke sweeps the remains. *)
  (match System.syscall_sync sys v1 (Protocol.Sys_revoke { sel = a; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke: %a" Protocol.pp_reply r);
  check Alcotest.int "all gone" 0 (total_caps sys);
  Audit.check sys

(* ------------------------------------------------------------------ *)
(* Redelivery regressions: the fault injector can deliver any op-tagged
   inter-kernel message twice, so a duplicate must be detected and
   absorbed — never re-executed. These tests replay the duplicate by
   hand. Requester kernels allocate ops as [kernel_id * 0x1000000 + n]
   from a single counter that also numbers syscall trace spans, so every
   syscall consumes one op before any remote op it triggers. *)

let dup_ikc sys k = (Kernel.stats (System.kernel sys k)).Kernel.dup_ikc

(* A redelivered obtain request must not create a second child
   capability (Mapdb.add_child would raise on the duplicate). *)
let test_redelivered_obtain_req () =
  let sys = make () in
  let donor = System.spawn_vpe sys ~kernel:0 in
  let taker = System.spawn_vpe sys ~kernel:1 in
  let donor_sel = alloc sys donor in
  (match
     System.syscall_sync sys taker
       (Protocol.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel })
   with
  | Protocol.R_sel _ -> ()
  | r -> Alcotest.failf "obtain: %a" Protocol.pp_reply r);
  check Alcotest.int "parent + child" 2 (total_caps sys);
  (* Kernel 1's obtain syscall consumed op 0x1000000 for its span and
     op 0x1000001 for the remote obtain; replay the request at the
     donor's kernel as the fault injector's duplicate would. *)
  Kernel.deliver_ikc (System.kernel sys 0) ~src_kernel:1
    (Protocol.Ik_obtain_req
       {
         op = 0x1000001;
         src_kernel = 1;
         obj_reserved = 999;
         client_pe = taker.Vpe.pe;
         client_vpe = taker.Vpe.id;
         donor = Protocol.Direct { donor_vpe = donor.Vpe.id; donor_sel };
       });
  ignore (System.run sys);
  check Alcotest.bool "duplicate detected" true (dup_ikc sys 0 >= 1);
  check Alcotest.int "still one child" 2 (total_caps sys);
  check Alcotest.int "taker still holds one selector" 1 (Capspace.count taker.Vpe.capspace);
  let key = Option.get (Capspace.find donor.Vpe.capspace donor_sel) in
  check Alcotest.int "donor cap has one child" 1
    (Mapdb.child_count (Kernel.mapdb (System.kernel sys 0)) key);
  Audit.check sys

(* A redelivered delegate ack must not double-insert the child or
   release a second protocol thread. *)
let test_redelivered_delegate_ack () =
  let sys = make () in
  let sender = System.spawn_vpe sys ~kernel:0 in
  let receiver = System.spawn_vpe sys ~kernel:1 in
  let sel = alloc sys sender in
  (match
     System.syscall_sync sys sender
       (Protocol.Sys_delegate_to { recv_vpe = receiver.Vpe.id; sel })
   with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "delegate: %a" Protocol.pp_reply r);
  ignore (System.run sys);
  check Alcotest.int "parent + delegated child" 2 (total_caps sys);
  let child_key =
    let keys = ref [] in
    Capspace.iter (fun _ key -> keys := key :: !keys) receiver.Vpe.capspace;
    match !keys with
    | [ k ] -> k
    | l -> Alcotest.failf "receiver holds %d capabilities" (List.length l)
  in
  let idle_threads = Thread_pool.in_use (Kernel.threads (System.kernel sys 1)) in
  (* Kernel 0 drove the delegate with op 2 (after the two syscall
     spans); replay the commit ack at the receiver's kernel. *)
  Kernel.deliver_ikc (System.kernel sys 1) ~src_kernel:0
    (Protocol.Ik_delegate_ack { op = 2; child_key; commit = true });
  ignore (System.run sys);
  check Alcotest.bool "duplicate detected" true (dup_ikc sys 1 >= 1);
  check Alcotest.int "no double insert" 2 (total_caps sys);
  check Alcotest.int "receiver still holds one selector" 1 (Capspace.count receiver.Vpe.capspace);
  check Alcotest.int "thread pool untouched" idle_threads
    (Thread_pool.in_use (Kernel.threads (System.kernel sys 1)));
  Audit.check sys;
  (* The machinery still works after the duplicate: a fresh exchange and
     a full revoke complete normally. *)
  (match System.syscall_sync sys sender (Protocol.Sys_revoke { sel; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke after dup ack: %a" Protocol.pp_reply r);
  check Alcotest.int "revoke sweeps both" 0 (total_caps sys);
  Audit.check sys

(* A redelivered revoke request must not resurrect or double-free
   anything: the responder answers from its completed-op cache. *)
let test_redelivered_revoke_req () =
  let sys = make () in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let a = alloc sys v1 in
  let root_key = Option.get (Capspace.find v1.Vpe.capspace a) in
  (match
     System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = a })
   with
  | Protocol.R_sel _ -> ()
  | r -> Alcotest.failf "obtain: %a" Protocol.pp_reply r);
  (match System.syscall_sync sys v1 (Protocol.Sys_revoke { sel = a; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke: %a" Protocol.pp_reply r);
  check Alcotest.int "all revoked" 0 (total_caps sys);
  (* Kernel 0 consumed op 0 for the alloc syscall span, op 1 for the
     revoke syscall span, op 2 for the revoke operation itself, and op 3
     for the revoke message; replay the message at kernel 1. *)
  Kernel.deliver_ikc (System.kernel sys 1) ~src_kernel:0
    (Protocol.Ik_revoke_req { op = 3; src_kernel = 0; keys = [ root_key ] });
  ignore (System.run sys);
  check Alcotest.bool "duplicate detected" true (dup_ikc sys 1 >= 1);
  check Alcotest.int "nothing resurrected" 0 (total_caps sys);
  check Alcotest.int "both capspaces empty" 0
    (Capspace.count v1.Vpe.capspace + Capspace.count v2.Vpe.capspace);
  Audit.check sys

(* A retransmission parked behind exhausted send credits can leave its
   sender after the reply to the original has already arrived. Sixteen
   spanning obtains from kernel 0 share its four credits toward kernel
   1, and everything kernel 1 sends back (credit returns and replies
   alike) is held until cycle [hold], past the first retry timeout, so
   the retransmissions queue behind the stalled originals. The late
   copy must be answered from the responder's cache: counted as a
   duplicate, never executed a second time. *)
let test_stalled_retransmission_after_reply () =
  let sys =
    System.create (System.config ~kernels:2 ~user_pes_per_kernel:18 ~trace_capacity:100_000 ())
  in
  let donor = System.spawn_vpe sys ~kernel:1 in
  let root = alloc sys donor in
  let root_key = Option.get (Capspace.find donor.Vpe.capspace root) in
  let clients = List.init 16 (fun _ -> System.spawn_vpe sys ~kernel:0) in
  let a_pe = Kernel.pe (System.kernel sys 0) and b_pe = Kernel.pe (System.kernel sys 1) in
  let hold = Int64.add (System.now sys) 30_000L in
  Fabric.set_injector (System.fabric sys)
    (Some
       (fun ~src ~dst ~tag:_ ~now ~arrival ->
         if src = b_pe && dst = a_pe && Int64.compare now hold < 0 then
           [ Some (if Int64.compare arrival hold < 0 then hold else arrival) ]
         else [ Some arrival ]));
  let results = ref [] in
  List.iter
    (fun (c : Vpe.t) ->
      System.syscall sys c
        (Protocol.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel = root })
        (fun r -> results := r :: !results))
    clients;
  ignore (System.run sys);
  check Alcotest.int "every obtain answered" 16 (List.length !results);
  List.iter (fun r -> ignore (sel_of r)) !results;
  (* Witness the ordering from kernel 0's side of the trace: a copy of
     request [op] stalled for credit, the reply to [op] arrived, and
     only then did the copy leave. *)
  let events = Obs.Trace.events (System.trace_buffer sys) in
  let stalled_then_replied op =
    let rec scan stalled replied = function
      | [] -> false
      | (e : Obs.Trace.event) :: rest ->
        if e.op <> op then scan stalled replied rest
        else if e.kind = "credit_stall" && e.src = 0 then scan true replied rest
        else if e.kind = "ikc_recv" && e.dst = 0 && e.detail = "obtain_reply" then
          scan stalled stalled rest
        else if e.kind = "ikc_send" && e.src = 0 && stalled && replied then true
        else scan stalled replied rest
    in
    scan false false events
  in
  let retried =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        if e.kind = "ikc_retry" && e.src = 0 then Some e.op else None)
      events
  in
  let late = List.filter stalled_then_replied retried in
  check Alcotest.bool "a stalled copy left after its reply" true (late <> []);
  check Alcotest.bool "responder counted the duplicate" true (dup_ikc sys 1 >= 1);
  check Alcotest.int "one child per obtain" 16
    (Mapdb.child_count (Kernel.mapdb (System.kernel sys 1)) root_key);
  check Alcotest.int "no second child capability" 17 (total_caps sys);
  Audit.check sys;
  (* Kernel 0 closed each late op only once its copy had left; the
     closes ride kernel 0's next credit return to kernel 1, here the
     one for a request kernel 1 sends it, after which kernel 1 holds
     none of kernel 0's requests. *)
  let donor0 = List.hd clients in
  let taker1 = System.spawn_vpe sys ~kernel:1 in
  let a = alloc sys donor0 in
  ignore
    (sel_of
       (System.syscall_sync sys taker1
          (Protocol.Sys_obtain_from { donor_vpe = donor0.Vpe.id; donor_sel = a })));
  ignore (System.run sys);
  check Alcotest.int "responder forgot every closed op" 0
    (fst (Kernel.idempotency_cache_sizes (System.kernel sys 1)));
  Audit.check sys

(* The requester's retry budget runs out while the responder is still
   working on the request: the service on kernel 1 sits on the open
   until kernel 0 has given up and its close has reached kernel 1. The
   responder then forgets the op at once, and finishing the request
   afterwards must not leave a cached reply behind, which no kernel
   would ever close. *)
let test_close_while_in_progress () =
  let sys = make () in
  let parked = ref None in
  let srv = System.spawn_vpe sys ~kernel:1 in
  Kernel.register_service_handler (System.kernel sys 1) ~name:"slow" (fun req k ->
      match req with
      | Protocol.Srq_open_session _ -> parked := Some k
      | Protocol.Srq_obtain _ | Protocol.Srq_delegate _ -> k (Protocol.Srs_reject Protocol.E_invalid));
  ignore (sel_of (System.syscall_sync sys srv (Protocol.Sys_create_srv { name = "slow" })));
  ignore (System.run sys);
  let client = System.spawn_vpe sys ~kernel:0 in
  let result = ref None in
  System.syscall sys client (Protocol.Sys_open_session { service = "slow" }) (fun r ->
      result := Some r);
  ignore (System.run sys);
  check (Alcotest.option reply_t) "requester gave up"
    (Some (Protocol.R_err Protocol.E_timeout))
    !result;
  let k1 = System.kernel sys 1 in
  check Alcotest.int "responder still holds the op" 1 (fst (Kernel.idempotency_cache_sizes k1));
  (* Any request from kernel 1 makes kernel 0 return a credit, which
     carries the close. *)
  let donor = System.spawn_vpe sys ~kernel:0 in
  let taker = System.spawn_vpe sys ~kernel:1 in
  let a = alloc sys donor in
  ignore
    (sel_of
       (System.syscall_sync sys taker
          (Protocol.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel = a })));
  ignore (System.run sys);
  check Alcotest.int "closed while in progress" 0 (fst (Kernel.idempotency_cache_sizes k1));
  (match !parked with
  | Some k -> k (Protocol.Srs_reject Protocol.E_denied)
  | None -> Alcotest.fail "service never saw the open");
  ignore (System.run sys);
  check Alcotest.int "no reply cached after the close" 0 (fst (Kernel.idempotency_cache_sizes k1));
  Audit.check sys;
  ignore (System.shutdown sys);
  List.iter
    (fun k -> check Alcotest.(pair int int) "empty after shutdown" (0, 0) (Kernel.idempotency_cache_sizes k))
    (System.kernels sys)

(* The idempotency caches (remote op results, delegate acks) hold an
   entry only until the kernel that retransmits its op closes it, so
   their size follows the ops in flight, not the length of the run.
   Three kernels each host a client and a service; every round runs
   obtain, delegate, open-session and revoke traffic across every
   ordered pair of kernels. *)
let cache_traffic ~batching ~broadcast ~rounds =
  let kernels = 3 in
  let sys =
    System.create (System.config ~kernels ~user_pes_per_kernel:4 ~batching ~broadcast ())
  in
  let client = Array.init kernels (fun k -> System.spawn_vpe sys ~kernel:k) in
  let service k = Printf.sprintf "svc%d" k in
  for k = 0 to kernels - 1 do
    let srv = System.spawn_vpe sys ~kernel:k in
    Kernel.register_service_handler (System.kernel sys k) ~name:(service k) (fun req reply ->
        match req with
        | Protocol.Srq_open_session _ -> reply (Protocol.Srs_session { ident = k })
        | Protocol.Srq_obtain _ | Protocol.Srq_delegate _ ->
          reply (Protocol.Srs_reject Protocol.E_invalid));
    ignore (sel_of (System.syscall_sync sys srv (Protocol.Sys_create_srv { name = service k })))
  done;
  ignore (System.run sys);
  let ok what = function
    | Protocol.R_ok -> ()
    | r -> Alcotest.failf "%s: %a" what Protocol.pp_reply r
  in
  let obtain ~by ~from =
    let a = alloc sys client.(from) in
    ignore
      (sel_of
         (System.syscall_sync sys client.(by)
            (Protocol.Sys_obtain_from { donor_vpe = client.(from).Vpe.id; donor_sel = a })));
    a
  in
  let pairs =
    List.concat_map
      (fun i -> List.filter_map (fun j -> if i = j then None else Some (i, j)) [ 0; 1; 2 ])
      [ 0; 1; 2 ]
  in
  for _ = 1 to rounds do
    List.iter
      (fun (i, j) ->
        let a = obtain ~by:j ~from:i in
        ok "delegate"
          (System.syscall_sync sys client.(i)
             (Protocol.Sys_delegate_to { recv_vpe = client.(j).Vpe.id; sel = a }));
        (match System.syscall_sync sys client.(j) (Protocol.Sys_open_session { service = service i }) with
        | Protocol.R_sess { sel; _ } ->
          ok "revoke session" (System.syscall_sync sys client.(j) (Protocol.Sys_revoke { sel; own = true }))
        | r -> Alcotest.failf "open_session: %a" Protocol.pp_reply r);
        ok "revoke" (System.syscall_sync sys client.(i) (Protocol.Sys_revoke { sel = a; own = true })))
      pairs
  done;
  ignore (System.run sys);
  let peaks = List.map Kernel.idempotency_cache_peak (System.kernels sys) in
  (* One more message each way: an obtain across every pair carries a
     credit return in both directions, and with it the closes of every
     op the round left cached. *)
  List.iter (fun (i, j) -> ignore (obtain ~by:j ~from:i)) pairs;
  ignore (System.run sys);
  let residue =
    List.map
      (fun k ->
        let r, a = Kernel.idempotency_cache_sizes k in
        r + a)
      (System.kernels sys)
  in
  Audit.check sys;
  ignore (System.shutdown sys);
  let after_shutdown =
    List.map
      (fun k ->
        let r, a = Kernel.idempotency_cache_sizes k in
        r + a)
      (System.kernels sys)
  in
  (peaks, residue, after_shutdown)

let test_idempotency_caches_bounded () =
  List.iter
    (fun (mode, batching, broadcast) ->
      let peaks4, residue, empty = cache_traffic ~batching ~broadcast ~rounds:4 in
      let peaks64, residue64, empty64 = cache_traffic ~batching ~broadcast ~rounds:64 in
      let ints = Alcotest.(list int) in
      check Alcotest.bool (mode ^ ": caches were used") true (List.for_all (fun p -> p > 0) peaks4);
      check ints (mode ^ ": peak independent of run length") peaks4 peaks64;
      List.iter
        (fun r -> check Alcotest.bool (mode ^ ": at most one entry per peer") true (r <= 2))
        (residue @ residue64);
      check ints (mode ^ ": empty after shutdown") [ 0; 0; 0 ] empty;
      check ints (mode ^ ": empty after shutdown (64 rounds)") [ 0; 0; 0 ] empty64)
    [ ("default", false, false); ("batching", true, false); ("broadcast", false, true) ]

(* When every retransmission is lost, the retry loop must give up after
   retry_max attempts and fail the syscall with E_timeout instead of
   leaving it pending forever. *)
let test_retry_exhaustion_times_out () =
  let drop_everything =
    {
      Fault.seed = 7L;
      delay_prob = 0.0;
      max_delay = 0;
      dup_prob = 0.0;
      max_dup_delay = 0;
      drop_prob = 1.0;
      max_drops_per_pair = max_int;
      max_drops_total = max_int;
      stall_prob = 0.0;
      max_stall = 0;
    }
  in
  let sys =
    System.create
      (System.config ~kernels:2 ~user_pes_per_kernel:4 ~fault:drop_everything ())
  in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let a = alloc sys v1 in
  let result = ref None in
  System.syscall sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = a })
    (fun r -> result := Some r);
  ignore (System.run sys);
  check (Alcotest.option reply_t) "syscall fails explicitly"
    (Some (Protocol.R_err Protocol.E_timeout))
    !result;
  let exhausted =
    List.fold_left
      (fun acc k -> acc + (Kernel.stats k).Kernel.retry_exhausted)
      0 (System.kernels sys)
  in
  check Alcotest.bool "exhaustion counted" true (exhausted >= 1)

let suite =
  [
    Alcotest.test_case "delegate aborted by revoke (Invalid)" `Quick
      test_delegate_aborted_by_revoke;
    Alcotest.test_case "delegate receiver dies (orphan)" `Quick test_delegate_receiver_dies;
    Alcotest.test_case "session client dies (orphan)" `Quick test_session_client_dies;
    Alcotest.test_case "revokes race from both ends" `Quick test_race_revokes_both_ends;
    Alcotest.test_case "exchange vs exit" `Quick test_exchange_vs_exit;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "partial revoke of a deep tree" `Quick test_partial_revoke_deep_tree;
    Alcotest.test_case "redelivered obtain request" `Quick test_redelivered_obtain_req;
    Alcotest.test_case "redelivered delegate ack" `Quick test_redelivered_delegate_ack;
    Alcotest.test_case "redelivered revoke request" `Quick test_redelivered_revoke_req;
    Alcotest.test_case "stalled retransmission after its reply" `Quick
      test_stalled_retransmission_after_reply;
    Alcotest.test_case "requester gives up while the responder works" `Quick
      test_close_while_in_progress;
    Alcotest.test_case "idempotency caches are bounded by in-flight ops" `Quick
      test_idempotency_caches_bounded;
    Alcotest.test_case "retry exhaustion fails with E_timeout" `Quick
      test_retry_exhaustion_times_out;
  ]
