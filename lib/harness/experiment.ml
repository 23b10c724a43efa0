module System = Semper_kernel.System
module Kernel = Semper_kernel.Kernel
module Cost = Semper_kernel.Cost
module M3fs = Semper_m3fs.M3fs
module Workloads = Semper_trace.Workloads
module Trace = Semper_trace.Trace
module Replay = Semper_trace.Replay
module Server = Semper_sim.Server
module Obs = Semper_obs.Obs

let clock_hz = 2.0e9

type config = {
  kernels : int;
  services : int;
  instances : int;
  workload : Workloads.spec;
  mode : Cost.mode;
  mem_contention : float;
}

let default_mem_contention = 0.35

let config ?(mode = Cost.Semperos) ?(mem_contention = default_mem_contention) ~kernels ~services
    ~instances workload =
  if kernels <= 0 || services <= 0 || instances <= 0 then
    invalid_arg "Experiment.config: non-positive size";
  if mem_contention < 0.0 then invalid_arg "Experiment.config: negative contention";
  { kernels; services; instances; workload; mode; mem_contention }

type outcome = {
  cfg : config;
  runtimes : int64 list;
  mean_runtime : float;
  max_runtime : int64;
  cap_ops : int;
  cap_ops_per_s : float;
  exchanges_spanning : int;
  revokes_spanning : int;
  replay_wall_s : float;
  replay_errors : string list;
  kernel_utilisation : float;
  service_utilisation : float;
  total_pes : int;
  dedup_peak : int;
  snapshot : Obs.Json.t;
}

(* Service placement: service [s] lives in group [s mod kernels], so
   with more services than groups, groups host several. Instance [i]
   runs in group [i mod kernels] and prefers a group-local service
   (round-robinning among them if there are several); groups without a
   service round-robin over all services. *)
let service_of_instance ~kernels ~services ~instance =
  let group = instance mod kernels in
  let locals = services / kernels + if group < services mod kernels then 1 else 0 in
  if locals > 0 then group + (instance / kernels mod locals * kernels)
  else instance mod services

(* The largest idempotency-cache high-water mark among the kernels. *)
let dedup_peak sys =
  List.fold_left (fun acc k -> max acc (Kernel.idempotency_cache_peak k)) 0 (System.kernels sys)

let run cfg =
  let spec = cfg.workload in
  (* Shared memory-system contention: active cores stretch every
     instance's local work uniformly. *)
  let slowdown =
    1.0
    +. cfg.mem_contention *. spec.Workloads.mem_sensitivity *. float_of_int cfg.instances /. 640.0
  in
  let base_trace = Trace.scale_compute slowdown (spec.Workloads.build ()) in
  (* Per-instance private namespace, like per-instance traces in the
     paper's replay methodology. All instances share the one base
     trace; the per-instance "/i<n>" prefix is applied by [Replay.run]
     at op-issue time. Materialising a prefixed deep copy per instance
     (the previous scheme) kept instances * |trace| strings live for
     the whole run — tens of megabytes at 4K PEs, enough to push the
     replay working set past the last-level cache and visibly bend the
     events/s scale curve. *)
  let prefix i = Printf.sprintf "/i%d" i in
  let per_group_instances = (cfg.instances + cfg.kernels - 1) / cfg.kernels in
  let per_group_services = (cfg.services + cfg.kernels - 1) / cfg.kernels in
  let user_pes = per_group_instances + per_group_services in
  let sys =
    System.create (System.config ~kernels:cfg.kernels ~user_pes_per_kernel:user_pes ~mode:cfg.mode ())
  in
  (* Build each service's image from the (prefixed) files of its
     clients; the prefixed lists are transient — only the image keeps
     the strings alive. *)
  let files_of_service = Array.make cfg.services [] in
  for i = 0 to cfg.instances - 1 do
    let s = service_of_instance ~kernels:cfg.kernels ~services:cfg.services ~instance:i in
    let prefixed =
      List.map (fun (path, size) -> (prefix i ^ path, size)) base_trace.Trace.files
    in
    files_of_service.(s) <- List.rev_append prefixed files_of_service.(s)
  done;
  let services =
    Array.init cfg.services (fun s ->
        M3fs.create
          ~config:{ spec.Workloads.fs_config with M3fs.mem_slowdown = slowdown }
          sys ~kernel:(s mod cfg.kernels)
          ~name:(Printf.sprintf "m3fs%d" s)
          ~files:(List.rev files_of_service.(s))
          ())
  in
  (* Spawn instance VPEs round-robin over the groups. *)
  let vpes =
    Array.init cfg.instances (fun i -> System.spawn_vpe sys ~kernel:(i mod cfg.kernels))
  in
  let results = Array.make cfg.instances None in
  (* Stagger starts slightly: launching 512 instances is not
     instantaneous on real hardware, and lock-step convoys of identical
     syscall sequences would be an artefact, not contention. *)
  let engine = System.engine sys in
  Array.iteri
    (fun i vpe ->
      let fs = services.(service_of_instance ~kernels:cfg.kernels ~services:cfg.services ~instance:i) in
      Semper_sim.Engine.after engine (Int64.of_int (i * 1009)) (fun () ->
          Replay.run sys fs ~vpe ~prefix:(prefix i) base_trace (fun r -> results.(i) <- Some r)))
    vpes;
  (* Host wall-clock of the event loop alone: the scale bench derives
     its events/s from this, so image building and VPE spawning above
     (which process no events) cannot dilute the throughput figure. *)
  let t0 = Unix.gettimeofday () in
  ignore (System.run sys);
  let replay_wall_s = Unix.gettimeofday () -. t0 in
  let results =
    Array.map
      (function
        | Some r -> r
        | None -> failwith "Experiment.run: replay did not complete (engine drained early)")
      results
  in
  let runtimes = Array.to_list (Array.map Replay.runtime results) in
  let replay_errors =
    Array.to_list results
    |> List.concat_map (fun (r : Replay.result) ->
           List.map (Printf.sprintf "%s/vpe%d: %s" r.Replay.trace r.Replay.vpe) r.Replay.errors)
  in
  if replay_errors <> [] then
    failwith
      (Printf.sprintf "Experiment.run: %d replay errors, first: %s" (List.length replay_errors)
         (List.hd replay_errors));
  (* Every run doubles as a protocol verification pass: the global
     capability forest must be consistent across all kernels. *)
  (match (Audit.run sys).Audit.errors with
  | [] -> ()
  | errs ->
    failwith
      (Printf.sprintf "Experiment.run: capability audit failed: %s" (String.concat "; " errs)));
  let max_runtime = List.fold_left max 0L runtimes in
  let mean_runtime =
    List.fold_left (fun acc r -> acc +. Int64.to_float r) 0.0 runtimes
    /. float_of_int cfg.instances
  in
  let kstats = List.map Kernel.stats (System.kernels sys) in
  let cap_ops = List.fold_left (fun acc s -> acc + s.Kernel.cap_ops) 0 kstats in
  let exchanges_spanning =
    List.fold_left (fun acc s -> acc + s.Kernel.exchanges_spanning) 0 kstats
  in
  let revokes_spanning = List.fold_left (fun acc s -> acc + s.Kernel.revokes_spanning) 0 kstats in
  let horizon = max_runtime in
  let mean_util servers =
    match servers with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun acc s -> acc +. Server.utilisation s ~horizon) 0.0 servers
      /. float_of_int (List.length servers)
  in
  let seconds = Int64.to_float max_runtime /. clock_hz in
  {
    cfg;
    runtimes;
    mean_runtime;
    max_runtime;
    cap_ops;
    cap_ops_per_s = (if seconds > 0.0 then float_of_int cap_ops /. seconds else 0.0);
    exchanges_spanning;
    revokes_spanning;
    replay_wall_s;
    replay_errors;
    kernel_utilisation = mean_util (List.map Kernel.server (System.kernels sys));
    service_utilisation = mean_util (Array.to_list (Array.map M3fs.server services));
    total_pes = cfg.instances + cfg.kernels + cfg.services;
    dedup_peak = dedup_peak sys;
    snapshot = Obs.Registry.snapshot (System.obs sys);
  }

let parallel_efficiency ~single ~parallel =
  if parallel.mean_runtime <= 0.0 then 0.0
  else Int64.to_float single.max_runtime /. parallel.mean_runtime

let system_efficiency ~single ~parallel =
  let eff = parallel_efficiency ~single ~parallel in
  eff *. float_of_int parallel.cfg.instances /. float_of_int parallel.total_pes
