(* Tests for the parallel fan-out: the domain pool's ordering and
   failure contracts, the determinism guarantee (any job count produces
   identical results, hence identical bytes), and the linear-sweep
   contract of the revocation hot path. *)

open Semperos

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Domain_pool                                                         *)

let test_pool_order () =
  let xs = List.init 37 Fun.id in
  let expect = List.map (fun i -> i * i) xs in
  check Alcotest.(list int) "jobs 4 preserves submission order" expect
    (Domain_pool.map ~jobs:4 (fun i -> i * i) xs);
  check Alcotest.(list int) "jobs 1 (serial path)" expect
    (Domain_pool.map ~jobs:1 (fun i -> i * i) xs)

let test_pool_jobs_exceed_items () =
  check Alcotest.(list int) "more domains than tasks" [ 10; 11; 12 ]
    (Domain_pool.map ~jobs:8 (fun i -> i + 10) [ 0; 1; 2 ]);
  check Alcotest.(list int) "empty task list" [] (Domain_pool.map ~jobs:4 (fun i -> i) [])

let test_pool_exception_earliest () =
  (* Two tasks fail; the pool must re-raise the earliest-submitted
     failure no matter which domain hits its failure first. *)
  let got =
    try
      ignore
        (Domain_pool.map ~jobs:4
           (fun i -> if i = 3 || i = 7 then failwith (Printf.sprintf "boom%d" i) else i)
           (List.init 10 Fun.id));
      "no exception"
    with Failure msg -> msg
  in
  check Alcotest.string "earliest-submitted failure wins" "boom3" got

let test_pool_invalid_jobs () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check Alcotest.bool "jobs 0 rejected" true
    (raises (fun () -> Domain_pool.map ~jobs:0 Fun.id [ 1 ]))

(* ------------------------------------------------------------------ *)
(* Determinism: the same experiment list must produce identical        *)
(* outcomes — including metrics snapshots — at any job count.          *)

let small_configs () =
  List.map
    (fun spec -> Experiment.config ~kernels:2 ~services:2 ~instances:4 spec)
    [ Workloads.tar; Workloads.find ]

let outcome_fingerprint (o : Experiment.outcome) =
  Printf.sprintf "%d %Ld %.6f %d %d %s" o.Experiment.cap_ops o.Experiment.max_runtime
    o.Experiment.cap_ops_per_s o.Experiment.exchanges_spanning o.Experiment.revokes_spanning
    (Obs.Json.to_string o.Experiment.snapshot)

let test_experiments_jobs_invariant () =
  let serial = Domain_pool.map ~jobs:1 Experiment.run (small_configs ()) in
  let parallel = Domain_pool.map ~jobs:4 Experiment.run (small_configs ()) in
  check Alcotest.(list string) "jobs 1 == jobs 4 (outcomes and snapshots)"
    (List.map outcome_fingerprint serial)
    (List.map outcome_fingerprint parallel)

let test_microbench_jobs_invariant () =
  let specs =
    List.concat_map
      (fun len ->
        [
          { Microbench.c_mode = Cost.Semperos; c_spanning = false; c_len = len; c_batching = false };
          { Microbench.c_mode = Cost.Semperos; c_spanning = true; c_len = len; c_batching = false };
        ])
      [ 0; 5; 10 ]
  in
  check
    Alcotest.(list int64)
    "chain batch: jobs 1 == jobs 3"
    (Domain_pool.map ~jobs:1 Microbench.chain specs)
    (Domain_pool.map ~jobs:3 Microbench.chain specs)

let test_fuzz_jobs_invariant () =
  let spec = Fuzz.spec ~ops:15 () in
  let lines jobs =
    List.map Fuzz.outcome_line
      (Fuzz.run_many ~jobs ~spec ~workload_seed:7 ~fault_seed:1007 ~runs:4 ())
  in
  check Alcotest.(list string) "fuzz sweep: jobs 1 == jobs 4" (lines 1) (lines 4)

(* ------------------------------------------------------------------ *)
(* Revocation sweep: deleting a region of n capabilities must probe    *)
(* the marked set O(n) times, not O(n^2) (the kernel counts each       *)
(* membership query in kernel<i>.revoke_sweep_probes).                 *)

let sweep_probes n =
  let sys = System.create (System.config ~kernels:1 ~user_pes_per_kernel:2 ()) in
  let vpe = System.spawn_vpe sys ~kernel:0 in
  let sel =
    match System.syscall_sync sys vpe (Protocol.Sys_alloc_mem { size = 65536L; perms = Perms.rw }) with
    | Protocol.R_sel s -> s
    | r -> Alcotest.failf "alloc: %a" Protocol.pp_reply r
  in
  for _ = 1 to n do
    match
      System.syscall_sync sys vpe
        (Protocol.Sys_derive_mem { sel; offset = 0L; size = 64L; perms = Perms.r })
    with
    | Protocol.R_sel _ -> ()
    | r -> Alcotest.failf "derive: %a" Protocol.pp_reply r
  done;
  let probes () =
    Obs.Registry.value (Obs.Registry.counter (System.obs sys) "kernel0.revoke_sweep_probes")
  in
  let before = probes () in
  (match System.syscall_sync sys vpe (Protocol.Sys_revoke { sel; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke: %a" Protocol.pp_reply r);
  probes () - before

let test_revoke_sweep_linear () =
  let n = 128 in
  let small = sweep_probes n in
  let large = sweep_probes (2 * n) in
  (* Each marked capability may probe the set once for its parent: the
     region has n+1 caps, so allow a small constant slack but nothing
     resembling n^2 (which would be ~8k for n=128). *)
  check Alcotest.bool
    (Printf.sprintf "probes for %d-cap region linear (got %d)" (n + 1) small)
    true
    (small >= n && small <= 2 * (n + 1));
  (* Doubling the region must not quadruple the probe count. *)
  check Alcotest.bool
    (Printf.sprintf "probes scale linearly (n: %d, 2n: %d)" small large)
    true
    (large <= (5 * small / 2) + 4)

let suite =
  [
    Alcotest.test_case "pool: submission order" `Quick test_pool_order;
    Alcotest.test_case "pool: jobs > items" `Quick test_pool_jobs_exceed_items;
    Alcotest.test_case "pool: earliest failure" `Quick test_pool_exception_earliest;
    Alcotest.test_case "pool: invalid jobs" `Quick test_pool_invalid_jobs;
    Alcotest.test_case "determinism: experiments" `Quick test_experiments_jobs_invariant;
    Alcotest.test_case "determinism: microbench" `Quick test_microbench_jobs_invariant;
    Alcotest.test_case "determinism: fuzz" `Quick test_fuzz_jobs_invariant;
    Alcotest.test_case "revoke sweep is linear" `Quick test_revoke_sweep_linear;
  ]
