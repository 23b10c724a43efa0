(* Fault-injection properties: the distributed capability protocols
   must give the same answers under message delay, duplication, bounded
   drops, and kernel stalls as they do on a perfect fabric. Each fault
   class gets its own property, then the chaos profile combines them,
   then the fuzzer's own oracles run as a property. Finally a "teeth"
   test disables retransmission and checks the oracles really can
   fail. *)

open Semperos

let qcheck = QCheck_alcotest.to_alcotest

let sel_of = function
  | Protocol.R_sel s -> s
  | r -> Alcotest.failf "expected selector, got %a" Protocol.pp_reply r

(* Build a cross-kernel sharing tree under an injected fault plan, then
   revoke the root. Whatever the plan did to the messages, the revoke
   must report R_ok, the audit must pass, and shutdown must reclaim
   every capability. [post] runs on the drained system just before
   shutdown, for tests that inspect kernel counters. *)
let exercise ?(post = fun _ -> ()) profile seed =
  let sys =
    System.create (System.config ~kernels:3 ~user_pes_per_kernel:5 ~fault:profile ())
  in
  let rng = Rng.create (Int64.of_int seed) in
  let root = System.spawn_vpe sys ~kernel:0 in
  let sel =
    sel_of
      (System.syscall_sync sys root (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
  in
  let holders = ref [ (root, sel) ] in
  for _ = 1 to 12 do
    let donor, donor_sel = List.nth !holders (Rng.int rng (List.length !holders)) in
    let kernel =
      let open_groups = List.filter (fun k -> System.free_pes sys ~kernel:k > 0) [ 0; 1; 2 ] in
      List.nth open_groups (Rng.int rng (List.length open_groups))
    in
    let v = System.spawn_vpe sys ~kernel in
    match
      System.syscall_sync sys v (Protocol.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel })
    with
    | Protocol.R_sel s -> holders := (v, s) :: !holders
    | Protocol.R_err e -> Alcotest.failf "obtain failed under faults: %a" Protocol.pp_error e
    | r -> Alcotest.failf "obtain: unexpected %a" Protocol.pp_reply r
  done;
  (match System.syscall_sync sys root (Protocol.Sys_revoke { sel; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke under faults: %a" Protocol.pp_reply r);
  ignore (System.run sys);
  Audit.check sys;
  post sys;
  Alcotest.(check int) "clean shutdown" 0 (System.shutdown sys);
  true

let per_class name profile_of =
  QCheck.Test.make ~name ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed -> exercise (profile_of ~seed:(Int64.of_int seed)) seed)

let prop_delay = per_class "revoke ok under delays" Fault.delay_only
let prop_dup = per_class "revoke ok under duplicates" Fault.duplicate_only
let prop_drop = per_class "revoke ok under drops" Fault.drop_only
let prop_stall = per_class "revoke ok under stalls" Fault.stall_only
let prop_chaos = per_class "revoke ok under all fault classes" Fault.chaos

(* Regression for the §5.1 over-refund clamp: under a duplicate-heavy
   plan, receivers return credit for redelivered requests, so the
   sender banks more refunds than it spent. The clamp must hold every
   window inside [0, max_inflight] and count the discarded refunds —
   before it, the windows grew without bound. *)
let test_overrefund_clamped () =
  let discarded = ref 0 in
  List.iter
    (fun seed ->
      ignore
        (exercise
           ~post:(fun sys ->
             List.iter
               (fun k ->
                 List.iter
                   (fun (peer, credits) ->
                     if credits < 0 || credits > Cost.max_inflight then
                       Alcotest.failf "kernel %d credit window to peer %d is %d, outside [0, %d]"
                         (Kernel.id k) peer credits Cost.max_inflight)
                   (Kernel.credit_windows k);
                 discarded := !discarded + (Kernel.stats k).Kernel.credit_overrefund)
               (System.kernels sys))
           (Fault.duplicate_only ~seed:(Int64.of_int seed))
           seed))
    [ 3; 7; 19; 31; 57; 91 ];
  Alcotest.(check bool) "duplicate refunds were discarded at the cap" true (!discarded > 0)

(* Children-only spanning revokes unlink the surviving root's remote
   children via [Ik_remove_child]. Now that the unlink is op-tagged and
   retried, drop plans may target it; the audit must stay clean anyway.
   The phase-delta drop count proves the sweep traffic really was
   lost (the revoke phase is mostly unlink messages). *)
let test_remove_child_drop_recovery () =
  let sweep_drops = ref 0 in
  List.iter
    (fun seed ->
      let profile =
        {
          Fault.quiet with
          seed = Int64.of_int seed;
          drop_prob = 0.3;
          max_drops_per_pair = 8;
          max_drops_total = 64;
        }
      in
      let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:6 ~fault:profile ()) in
      let donor = System.spawn_vpe sys ~kernel:0 in
      let sel =
        sel_of
          (System.syscall_sync sys donor
             (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
      in
      for _ = 1 to 4 do
        let v = System.spawn_vpe sys ~kernel:1 in
        match
          System.syscall_sync sys v
            (Protocol.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel = sel })
        with
        | Protocol.R_sel _ -> ()
        | r -> Alcotest.failf "obtain under drops: %a" Protocol.pp_reply r
      done;
      let drops () =
        match System.fault_plan sys with
        | Some p -> (Fault.stats p).Fault.drops
        | None -> 0
      in
      let before = drops () in
      (match System.syscall_sync sys donor (Protocol.Sys_revoke { sel; own = false }) with
      | Protocol.R_ok -> ()
      | r -> Alcotest.failf "children-only revoke under drops: %a" Protocol.pp_reply r);
      ignore (System.run sys);
      sweep_drops := !sweep_drops + (drops () - before);
      Audit.check sys;
      (match System.syscall_sync sys donor (Protocol.Sys_revoke { sel; own = true }) with
      | Protocol.R_ok -> ()
      | r -> Alcotest.failf "final revoke: %a" Protocol.pp_reply r);
      ignore (System.run sys);
      Audit.check sys;
      Alcotest.(check int) "clean shutdown" 0 (System.shutdown sys))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Alcotest.(check bool) "revoke-phase messages were actually dropped" true (!sweep_drops > 0)

(* Service announcements are the first droppable traffic each fresh
   kernel pair sees, so a drop-everything plan deterministically kills
   every announcement (twice, with the retries). They must be
   retransmitted until acked: the directory still converges on every
   kernel and a remote client can open a session. *)
let test_srv_announce_drop_recovery () =
  List.iter
    (fun seed ->
      let profile =
        {
          Fault.quiet with
          seed = Int64.of_int seed;
          drop_prob = 1.0;
          max_drops_per_pair = 2;
          max_drops_total = 12;
        }
      in
      let sys = System.create (System.config ~kernels:4 ~user_pes_per_kernel:3 ~fault:profile ()) in
      let srv_vpe = System.spawn_vpe sys ~kernel:0 in
      Kernel.register_service_handler (System.kernel sys 0) ~name:"echo" (fun _req k ->
          k (Protocol.Srs_session { ident = 7 }));
      (match System.syscall_sync sys srv_vpe (Protocol.Sys_create_srv { name = "echo" }) with
      | Protocol.R_sel _ -> ()
      | r -> Alcotest.failf "create_srv under drops: %a" Protocol.pp_reply r);
      ignore (System.run sys);
      (match System.fault_plan sys with
      | Some p ->
        Alcotest.(check bool) "announcements were dropped" true ((Fault.stats p).Fault.drops > 0)
      | None -> Alcotest.fail "fault plan missing");
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "kernel %d directory converged" (Kernel.id k))
            true
            (Kernel.lookup_service k "echo" <> None))
        (System.kernels sys);
      let client = System.spawn_vpe sys ~kernel:3 in
      (match System.syscall_sync sys client (Protocol.Sys_open_session { service = "echo" }) with
      | Protocol.R_sess { ident; _ } -> Alcotest.(check int) "session ident" 7 ident
      | r -> Alcotest.failf "open_session after dropped announcements: %a" Protocol.pp_reply r);
      ignore (System.run sys);
      Alcotest.(check int) "clean shutdown" 0 (System.shutdown sys))
    [ 5; 6 ]

(* The fuzzer's full workload (delegates, migrations, exits, partial
   runs) passes its liveness / audit / teardown oracles on random seed
   pairs. *)
let prop_fuzz_oracles =
  QCheck.Test.make ~name:"fuzz oracles pass on random seed pairs" ~count:8
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (workload_seed, fault_seed) ->
      let o = Fuzz.run_one ~workload_seed ~fault_seed () in
      if o.Fuzz.failures <> [] then
        Alcotest.failf "seed pair (%d, %d) failed:@.%a" workload_seed fault_seed Fuzz.pp_outcome o;
      true)

(* Identical seeds must replay bit-identically. *)
let test_determinism () =
  let line () = Fuzz.outcome_line (Fuzz.run_one ~workload_seed:42 ~fault_seed:4242 ()) in
  Alcotest.(check string) "byte-identical replay" (line ()) (line ())

(* Teeth: with retransmission off and drops on, the oracles must catch
   at least one lost message — otherwise they are vacuous. *)
let test_oracles_have_teeth () =
  let spec = Fuzz.spec ~delay:false ~dup:false ~stall:false ~drop:true ~retry:false () in
  let outcomes = Fuzz.run_many ~spec ~workload_seed:1 ~fault_seed:1_001 ~runs:10 () in
  Alcotest.(check bool) "some run fails without retries" true
    (List.exists (fun o -> o.Fuzz.failures <> []) outcomes)

(* The same seeds with retries restored all pass — the teeth failure is
   the missing retransmission, not the workload. *)
let test_retries_repair () =
  let spec = Fuzz.spec ~delay:false ~dup:false ~stall:false ~drop:true ~retry:true () in
  let outcomes = Fuzz.run_many ~spec ~workload_seed:1 ~fault_seed:1_001 ~runs:10 () in
  List.iter
    (fun o ->
      if o.Fuzz.failures <> [] then Alcotest.failf "retry-enabled run failed:@.%a" Fuzz.pp_outcome o)
    outcomes

(* Fifty consecutive seed pairs under the full chaos profile all pass
   the liveness, audit and teardown oracles, and actually exercise the
   fault and retransmission machinery; a pair run twice reports
   byte-identical outcomes. *)
let test_chaos_sweep () =
  let runs = 50 in
  let outcomes = Fuzz.run_many ~workload_seed:1 ~fault_seed:1_001 ~runs () in
  List.iter
    (fun o -> if o.Fuzz.failures <> [] then Alcotest.failf "%a" Fuzz.pp_outcome o)
    outcomes;
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  Alcotest.(check bool) "fault plan injected faults" true
    (sum (fun o ->
         o.Fuzz.injected_delays + o.Fuzz.injected_dups + o.Fuzz.injected_drops
         + o.Fuzz.injected_stalls)
    > 0);
  Alcotest.(check bool) "kernels retransmitted at least once" true (sum (fun o -> o.Fuzz.retries) > 0);
  let line () = Fuzz.outcome_line (Fuzz.run_one ~workload_seed:7 ~fault_seed:1_007 ()) in
  Alcotest.(check string) "identical seeds give byte-identical reports" (line ()) (line ())

let suite =
  [
    qcheck prop_delay;
    qcheck prop_dup;
    qcheck prop_drop;
    qcheck prop_stall;
    qcheck prop_chaos;
    qcheck prop_fuzz_oracles;
    Alcotest.test_case "duplicate refunds are clamped at the credit bound" `Quick
      test_overrefund_clamped;
    Alcotest.test_case "dropped remove_child unlinks are retransmitted" `Quick
      test_remove_child_drop_recovery;
    Alcotest.test_case "dropped service announcements are retransmitted" `Quick
      test_srv_announce_drop_recovery;
    Alcotest.test_case "fuzz replay is deterministic" `Quick test_determinism;
    Alcotest.test_case "oracles fail without retries" `Quick test_oracles_have_teeth;
    Alcotest.test_case "retries repair the dropped runs" `Quick test_retries_repair;
    Alcotest.test_case "chaos sweep of 50 seed pairs is clean" `Quick test_chaos_sweep;
  ]
