(* The benchmark's three workloads. Each builds its inputs from a seed,
   drives one or more simulated systems through the phases of
   [Probe.phases], and records every completed operation's start time
   and latency (simulated cycles) into a [run]. The simulator only ever
   receives the generated inputs. *)

open Semperos
module P = Protocol

type run = {
  probe : Probe.t;
  mutable attempted : int;
  mutable failed : int;
  (* Completed operations as (start, latency) on one timeline: systems
     run one after another, each shifted past the previous makespan. *)
  mutable ops : (int64 * int64) list;
  mutable makespan : int64;
  mutable loop_events : int;
  mutable loop_syscalls : int;
  mutable loop_cap_ops : int;
  mutable events_total : int;
  mutable registries : Obs.Registry.state list;  (* one per system, dumped after its loop *)
  mutable occupancy_max : float;  (* busiest kernel's busy share of its loop *)
  mutable m3fs_util : float list;  (* per m3fs service, busy share of its loop *)
  mutable live_caps : int;  (* capabilities counted by the audits *)
  mutable verdicts : string list;  (* audit reports and shutdown survivor counts *)
}

let create_run probe =
  {
    probe;
    attempted = 0;
    failed = 0;
    ops = [];
    makespan = 0L;
    loop_events = 0;
    loop_syscalls = 0;
    loop_cap_ops = 0;
    events_total = 0;
    registries = [];
    occupancy_max = 0.0;
    m3fs_util = [];
    live_caps = 0;
    verdicts = [];
  }

(* Completed operations of the system being driven, newest first. *)
type sys_ops = { mutable done_ops : (int64 * int64) list }

let complete so ~start ~now = so.done_ops <- (start, Int64.sub now start) :: so.done_ops

let kernel_totals sys =
  List.fold_left
    (fun (sc, co) k ->
      let s = Kernel.stats k in
      (sc + s.Kernel.syscalls, co + s.Kernel.cap_ops))
    (0, 0) (System.kernels sys)

let busy servers = List.map Server.busy_cycles servers

(* Spanned calls into the kernel layer that every workload makes. *)
let create_system p ~kernels ~user_pes_per_kernel =
  Probe.span p "System.create" (fun () -> System.create (System.config ~kernels ~user_pes_per_kernel ()))

let spawn p sys ~kernel = Probe.span p "System.spawn_vpe" (fun () -> System.spawn_vpe sys ~kernel)

(* Short enough that a slice takes a few to a few tens of host
   milliseconds on every workload. *)
let loop_slice = 500_000L

(* The part every workload shares: arm the first events, run the loop,
   collect, audit and shut down one system. [attempted] operations
   were offered to it; those not in [so] when the loop drains failed.
   A system that fails its audit or leaves capabilities behind at
   shutdown fails all of its operations. *)
let drive r sys ~attempted ~services ~arm so =
  let p = r.probe in
  let kernel_servers = List.map Kernel.server (System.kernels sys) in
  let sc0, co0, kb0, sb0, t0 =
    Probe.phase p "arm" (fun () ->
        arm ();
        let sc, co = kernel_totals sys in
        (sc, co, busy kernel_servers, busy services, System.now sys))
  in
  (* The loop runs in slices of [loop_slice] simulated cycles, each
     timed as its own piece of the "loop" phase. Slicing only pauses the
     engine between events, so every event runs as in one unbounded
     run; the one difference is that a bounded run that drains leaves
     the clock at its bound rather than at the engine's horizon (the
     latest scheduled event), so the loop's end is read from the
     horizon below. *)
  let rec loop events n =
    let until = Int64.add t0 (Int64.mul loop_slice (Int64.of_int n)) in
    let ev =
      Probe.phase p "loop" (fun () -> Probe.span p "System.run" (fun () -> System.run ~until sys))
    in
    if Engine.pending (System.engine sys) = 0 then events + ev else loop (events + ev) (n + 1)
  in
  let events = loop 0 1 in
  let done_n =
    Probe.phase p "collect" (fun () ->
        let sc1, co1 = kernel_totals sys in
        r.loop_events <- r.loop_events + events;
        r.loop_syscalls <- r.loop_syscalls + (sc1 - sc0);
        r.loop_cap_ops <- r.loop_cap_ops + (co1 - co0);
        r.events_total <- r.events_total + Engine.events_processed (System.engine sys);
        let t1 = (Engine.snapshot (System.engine sys)).Engine.s_horizon in
        let span = Int64.to_float (Int64.sub t1 t0) in
        let share b0 s =
          if span <= 0.0 then 0.0 else Int64.to_float (Int64.sub (Server.busy_cycles s) b0) /. span
        in
        List.iter2 (fun b0 s -> r.occupancy_max <- Float.max r.occupancy_max (share b0 s)) kb0 kernel_servers;
        r.m3fs_util <- r.m3fs_util @ List.map2 share sb0 services;
        r.registries <- r.registries @ [ Obs.Registry.dump (System.obs sys) ];
        let done_ops = so.done_ops in
        (* First arrival to last completion, on this system's own clock. *)
        let first = List.fold_left (fun acc (s, _) -> min acc s) Int64.max_int done_ops in
        let last = List.fold_left (fun acc (s, l) -> max acc (Int64.add s l)) 0L done_ops in
        let shift = Int64.sub r.makespan first in
        r.ops <- List.rev_append (List.map (fun (s, l) -> (Int64.add s shift, l)) done_ops) r.ops;
        if done_ops <> [] then r.makespan <- Int64.add r.makespan (Int64.sub last first);
        List.length done_ops)
  in
  let audit_ok =
    Probe.phase p "audit" (fun () ->
        let report = Probe.span p "Audit.run" (fun () -> Audit.run sys) in
        r.live_caps <- r.live_caps + report.Audit.capabilities;
        let line = Format.asprintf "%a" Audit.pp_report report in
        r.verdicts <- r.verdicts @ [ line ];
        if report.Audit.errors <> [] then print_endline ("perfbench: audit failed: " ^ line);
        report.Audit.errors = [])
  in
  Probe.phase p "shutdown" (fun () ->
      let survivors = Probe.span p "System.shutdown" (fun () -> System.shutdown sys) in
      r.verdicts <- r.verdicts @ [ Printf.sprintf "survivors=%d" survivors ];
      if survivors <> 0 then Printf.printf "perfbench: %d capabilities survived shutdown\n" survivors;
      r.attempted <- r.attempted + attempted;
      r.failed <- (r.failed + if audit_ok && survivors = 0 then attempted - done_n else attempted))

(* ---- apps: the six Table 4 applications, one system each ---------- *)

type apps = { a_kernels : int; a_services : int; a_instances : int }

let apps_full = { a_kernels = 32; a_services = 16; a_instances = 256 }
let apps_tiny = { a_kernels = 4; a_services = 2; a_instances = 4 }

(* Closed loop: every instance replays its application's trace once
   (the op is that whole replay). Placement, images and the memory
   contention model follow [Experiment.run]; the seed jitters each
   instance's start inside its 1009-cycle launch stagger. *)
let app r rng cfg spec =
  let p = r.probe in
  let kernels = cfg.a_kernels and services = cfg.a_services and instances = cfg.a_instances in
  let service_of i = Experiment.service_of_instance ~kernels ~services ~instance:i in
  let prefix i = Printf.sprintf "/i%d" i in
  let trace, slowdown, files, starts =
    Probe.phase p "build" (fun () ->
        let slowdown =
          1.0
          +. Experiment.default_mem_contention *. spec.Workloads.mem_sensitivity
             *. float_of_int instances /. 640.0
        in
        let trace = Trace.scale_compute slowdown (Probe.span p "Workloads.build" spec.Workloads.build) in
        let files = Array.make services [] in
        for i = 0 to instances - 1 do
          let s = service_of i in
          files.(s) <-
            List.rev_append (List.map (fun (path, size) -> (prefix i ^ path, size)) trace.Trace.files) files.(s)
        done;
        let starts = Array.init instances (fun i -> Int64.of_int ((i * 1009) + Rng.int rng 1009)) in
        (trace, slowdown, files, starts))
  in
  let sys, fss =
    Probe.phase p "boot" (fun () ->
        let per_group n = (n + kernels - 1) / kernels in
        let sys =
          create_system p ~kernels ~user_pes_per_kernel:(per_group instances + per_group services)
        in
        let fss =
          Array.init services (fun s ->
              Probe.span p "M3fs.create" (fun () ->
                  M3fs.create
                    ~config:{ spec.Workloads.fs_config with M3fs.mem_slowdown = slowdown }
                    sys ~kernel:(s mod kernels) ~name:(Printf.sprintf "m3fs%d" s)
                    ~files:(List.rev files.(s)) ()))
        in
        (sys, fss))
  in
  let vpes =
    Probe.phase p "spawn" (fun () ->
        Array.init instances (fun i -> spawn p sys ~kernel:(i mod kernels)))
  in
  let so = { done_ops = [] } in
  let arm () =
    Array.iteri
      (fun i vpe ->
        Engine.after (System.engine sys) starts.(i)
          (Probe.callback p (fun () ->
               Probe.span p "Replay.run" (fun () ->
                   Replay.run sys fss.(service_of i) ~vpe ~prefix:(prefix i) trace
                     (Probe.callback p (fun (res : Replay.result) ->
                          if res.Replay.errors = [] then
                            complete so ~start:res.Replay.started ~now:res.Replay.finished))))))
      vpes
  in
  drive r sys ~attempted:instances ~services:(Array.to_list (Array.map M3fs.server fss)) ~arm so

let apps r ~seed cfg =
  let rng = Rng.create seed in
  List.iter (app r rng cfg) Workloads.all

(* ---- revoke_tree: deep trees built up, then revoked in bulk ------- *)

type revoke_tree = {
  t_kernels : int;  (* one client on each *)
  t_fanout : int;  (* private peers per client, and chains per tree; below t_kernels *)
  t_depth : int;  (* obtains per chain *)
  t_rounds : int;  (* trees built and revoked per client *)
}

let revoke_tree_full = { t_kernels = 16; t_fanout = 4; t_depth = 8; t_rounds = 64 }
let revoke_tree_tiny = { t_kernels = 4; t_fanout = 2; t_depth = 2; t_rounds = 3 }

(* Cycles a client waits between rounds. *)
let think = 100_000L

type tree_client = {
  c_vpe : Vpe.t;
  c_peers : Vpe.t array;
  c_tips : (Vpe.t * P.selector) array;  (* current holder of each chain's deepest capability *)
  mutable c_round : int;
  mutable c_pending : int;  (* obtains of the current level still in flight *)
  mutable c_ok : bool;  (* every syscall of this round succeeded *)
}

(* Closed loop: each round a client allocates a root; its [t_fanout]
   peers grow [t_fanout] chains of [t_depth] [Sys_obtain_from] hops off
   it, level by level (at level d peer (j + d - 1) mod F extends chain
   j, so every peer issues one obtain per level); then the client
   revokes the root and starts the next round. The op is the revoke.
   The seed places every peer on a kernel other than its client's and
   jitters client start times. *)
let revoke_tree r ~seed cfg =
  let p = r.probe in
  let kernels = cfg.t_kernels and fanout = cfg.t_fanout in
  let placement, starts =
    Probe.phase p "build" (fun () ->
        let rng = Rng.create seed in
        (* Client c lives on kernel c. Peer j of every client sits the
           same distance away, drawn from a seeded shuffle of
           1 .. kernels - 1: each kernel hosts the same number of peers,
           and every seed uses nearly the same mix of distances. *)
        let shifts = Array.init (kernels - 1) (fun i -> i + 1) in
        Rng.shuffle rng shifts;
        let placement = Array.init kernels (fun c -> Array.init fanout (fun j -> (c + shifts.(j)) mod kernels)) in
        (placement, Array.init kernels (fun _ -> Int64.of_int (Rng.int rng 1000))))
  in
  let sys = Probe.phase p "boot" (fun () -> create_system p ~kernels ~user_pes_per_kernel:(1 + fanout)) in
  let clients =
    Probe.phase p "spawn" (fun () ->
        Array.mapi
          (fun c peer_kernels ->
            let vpe = spawn p sys ~kernel:c in
            {
              c_vpe = vpe;
              c_peers = Array.map (fun kernel -> spawn p sys ~kernel) peer_kernels;
              c_tips = Array.make fanout (vpe, 0);
              c_round = 0;
              c_pending = 0;
              c_ok = true;
            })
          placement)
  in
  let so = { done_ops = [] } in
  let syscall vpe call k = System.syscall sys vpe call (Probe.callback p k) in
  let rec round c =
    if c.c_round < cfg.t_rounds then begin
      c.c_ok <- true;
      syscall c.c_vpe (P.Sys_alloc_mem { size = 4096L; perms = Perms.rw }) (function
        | P.R_sel root ->
          Array.fill c.c_tips 0 fanout (c.c_vpe, root);
          level c root 1
        | _ -> next c)
    end
  and level c root d =
    if d > cfg.t_depth then revoke c root
    else begin
      c.c_pending <- fanout;
      for j = 0 to fanout - 1 do
        let obtainer = c.c_peers.((j + d - 1) mod fanout) in
        let donor, sel = c.c_tips.(j) in
        syscall obtainer (P.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel = sel }) (fun reply ->
            (match reply with P.R_sel s -> c.c_tips.(j) <- (obtainer, s) | _ -> c.c_ok <- false);
            c.c_pending <- c.c_pending - 1;
            if c.c_pending = 0 then level c root (d + 1))
      done
    end
  and revoke c root =
    let start = System.now sys in
    syscall c.c_vpe (P.Sys_revoke { sel = root; own = true }) (fun reply ->
        if c.c_ok && reply = P.R_ok then complete so ~start ~now:(System.now sys);
        next c)
  and next c =
    c.c_round <- c.c_round + 1;
    Engine.after (System.engine sys) think (Probe.callback p (fun () -> round c))
  in
  let arm () =
    Array.iteri
      (fun i c -> Engine.after (System.engine sys) starts.(i) (Probe.callback p (fun () -> round c)))
      clients
  in
  drive r sys ~attempted:(kernels * cfg.t_rounds) ~services:[] ~arm so

(* ---- sessions: an open-loop arrival trace, scheduled up front ----- *)

type sessions = {
  s_kernels : int;
  s_clients_per_kernel : int;
  s_horizon : int;  (* arrivals fall in [0, s_horizon) cycles *)
}

let sessions_full = { s_kernels = 16; s_clients_per_kernel = 31; s_horizon = 20_000_000 }
let sessions_tiny = { s_kernels = 2; s_clients_per_kernel = 4; s_horizon = 2_000_000 }

(* Mean per-client interarrival, cycles: below the knee (README.md). *)
let mean_gap = 200_000.0

type session_client = {
  s_vpe : Vpe.t;
  s_service : string;
  s_due : int64 Queue.t;  (* arrivals not yet started, by due time *)
  mutable s_busy : bool;
}

(* Accepts every open after the standard session cost on the service's
   own processing queue, like the scale bench's session service. *)
let session_service r sys ~kernel ~name =
  let p = r.probe in
  let vpe = spawn p sys ~kernel in
  let server = Server.create (System.engine sys) ~name in
  let next = ref 0 in
  Kernel.register_service_handler (System.kernel sys kernel) ~name (fun req k ->
      Probe.callback p
        (fun () ->
          match req with
          | P.Srq_open_session _ ->
            Server.submit server ~cost:2_000L
              (Probe.callback p (fun () ->
                   let ident = !next in
                   incr next;
                   k (P.Srs_session { ident })))
          | P.Srq_obtain _ | P.Srq_delegate _ -> k (P.Srs_reject P.E_invalid))
        ());
  match System.syscall_sync sys vpe (P.Sys_create_srv { name }) with
  | P.R_sel _ -> ()
  | reply -> Format.kasprintf failwith "perfbench: create_srv %s: %a" name P.pp_reply reply

(* Open loop: per client, a Poisson arrival process (exponential gaps,
   one [Rng.split] stream per client) over a fixed horizon, all
   scheduled before the loop starts. A client keeps one session in
   flight and queues later arrivals; a session is an open to the
   service on the next kernel plus a revoke of the session capability,
   timed from when it was due. *)
let sessions r ~seed cfg =
  let p = r.probe in
  let kernels = cfg.s_kernels in
  let clients_n = kernels * cfg.s_clients_per_kernel in
  let arrivals =
    Probe.phase p "build" (fun () ->
        let rng = Rng.create seed in
        Array.init clients_n (fun _ ->
            let crng = Rng.split rng in
            let rec gen t acc =
              let t = t + max 1 (int_of_float (Rng.exponential crng ~mean:mean_gap)) in
              if t >= cfg.s_horizon then List.rev acc else gen t (Int64.of_int t :: acc)
            in
            gen 0 []))
  in
  let sys =
    Probe.phase p "boot" (fun () ->
        let sys = create_system p ~kernels ~user_pes_per_kernel:(cfg.s_clients_per_kernel + 1) in
        for k = 0 to kernels - 1 do
          session_service r sys ~kernel:k ~name:(Printf.sprintf "sess%d" k)
        done;
        (* Service creation and directory replication drain before the
           arrival trace is armed. *)
        ignore (Probe.span p "System.run" (fun () -> System.run sys));
        sys)
  in
  let clients =
    Probe.phase p "spawn" (fun () ->
        Array.init clients_n (fun i ->
            let k = i / cfg.s_clients_per_kernel in
            {
              s_vpe = spawn p sys ~kernel:k;
              s_service = Printf.sprintf "sess%d" ((k + 1) mod kernels);
              s_due = Queue.create ();
              s_busy = false;
            }))
  in
  let so = { done_ops = [] } in
  let syscall vpe call k = System.syscall sys vpe call (Probe.callback p k) in
  let rec start c =
    c.s_busy <- true;
    let due = Queue.pop c.s_due in
    let next () = if Queue.is_empty c.s_due then c.s_busy <- false else start c in
    syscall c.s_vpe (P.Sys_open_session { service = c.s_service }) (function
      | P.R_sess { sel; _ } ->
        syscall c.s_vpe (P.Sys_revoke { sel; own = true }) (fun reply ->
            if reply = P.R_ok then complete so ~start:due ~now:(System.now sys);
            next ())
      | _ -> next ())
  in
  let arm () =
    let base = System.now sys in
    Array.iteri
      (fun i c ->
        List.iter
          (fun t ->
            let due = Int64.add base t in
            Engine.at (System.engine sys) due
              (Probe.callback p (fun () ->
                   Queue.push due c.s_due;
                   if not c.s_busy then start c)))
          arrivals.(i))
      clients
  in
  let attempted = Array.fold_left (fun acc l -> acc + List.length l) 0 arrivals in
  drive r sys ~attempted ~services:[] ~arm so
