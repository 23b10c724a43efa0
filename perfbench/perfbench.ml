(* The SemperOS benchmark: runs one workload repeatedly for a given
   number of host seconds, checks its outputs, and prints its metrics.
   See README.md in this directory for the workloads, the metrics and
   how they relate. Usage:

     perfbench.exe --workload apps|revoke_tree|sessions --seed N
                   --seconds S --trace 0|1 [--size full|tiny]
                   [--state-dir DIR]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. *)

open Semperos

let workloads = [ "apps"; "revoke_tree"; "sessions" ]
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let run_workload ~workload ~tiny ~seed r =
  match workload with
  | "apps" -> Loads.apps r ~seed (if tiny then Loads.apps_tiny else Loads.apps_full)
  | "revoke_tree" ->
    Loads.revoke_tree r ~seed (if tiny then Loads.revoke_tree_tiny else Loads.revoke_tree_full)
  | "sessions" -> Loads.sessions r ~seed (if tiny then Loads.sessions_tiny else Loads.sessions_full)
  | w -> invalid_arg ("unknown workload " ^ w)

type iteration = {
  run : Loads.run;
  probe : Probe.t;
  wall : float;  (* CPU time, like every host time *)
  elapsed : float;  (* the same iteration on the real-time clock *)
  calib : float;  (* fastest reference piece just before it *)
  digest : string;
  gc_minor : int;
  gc_major : int;
  gc_promoted_mwords : float;
  gc_pause : float;
}

(* The simulated outputs: every system's registry right after its loop
   (the data [Obs.Registry.snapshot] renders), its audit report and
   shutdown survivor count, and every op's start and latency. Computed
   after the iteration, so it is not part of wall_s. *)
let digest (r : Loads.run) =
  let outputs = (r.Loads.registries, r.Loads.verdicts, List.sort compare r.Loads.ops) in
  Digest.to_hex (Digest.string (Marshal.to_string outputs [ Marshal.No_sharing ]))

let iterate ~workload ~tiny ~seed ~tracing =
  let calib = Calib.time () in
  (* Start every iteration from a collected heap, so one iteration's
     garbage (and the reference loop's array) is not charged to the
     next. *)
  Gc.full_major ();
  let probe = Probe.create ~tracing in
  let run = Loads.create_run probe in
  if tracing then Probe.Gc_pauses.resume ();
  let pause0 = Probe.Gc_pauses.pause_s () in
  let g0 = Gc.quick_stat () in
  let e0 = Probe.elapsed () in
  let t0 = Probe.now () in
  run_workload ~workload ~tiny ~seed run;
  let wall = Probe.now () -. t0 in
  let elapsed = Probe.elapsed () -. e0 in
  let g1 = Gc.quick_stat () in
  if tracing then Probe.Gc_pauses.pause ();
  {
    run;
    probe;
    wall;
    elapsed;
    calib;
    digest = digest run;
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    gc_promoted_mwords = (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6;
    gc_pause = Probe.Gc_pauses.pause_s () -. pause0;
  }

(* ---- statistics ---------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let rank n p = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))
let percentile sorted p = sorted.(max 0 (min (Array.length sorted - 1) (rank (Array.length sorted) p - 1)))

(* The tail is the highest of these percentiles with at least ten
   samples beyond it. *)
let tail_percentiles = [ 99.9; 99.0; 90.0; 50.0 ]

let tail sorted =
  let n = Array.length sorted in
  let beyond p = n - rank n p in
  let p = Option.value ~default:50.0 (List.find_opt (fun p -> beyond p >= 10) tail_percentiles) in
  (p, beyond p, percentile sorted p)

let ratio x y = if y = 0.0 then 0.0 else x /. y

(* ---- the simulated side: identical in every iteration -------------- *)

(* Op latencies, cycles. *)
type sim = {
  p50 : float;
  tail_p : float;
  tail_beyond : int;
  tail_v : float;
  late_ratio : float;  (* p50 of the last tenth of ops by start over the first tenth's *)
}

let sim_of (r : Loads.run) =
  let by_start = Array.of_list r.Loads.ops in
  Array.sort compare by_start;
  let lat = Array.map (fun (_, l) -> Int64.to_float l) by_start in
  let sorted = Array.copy lat in
  Array.sort Float.compare sorted;
  let n = Array.length lat in
  let tenth from = median (Array.to_list (Array.sub lat from (max 1 (n / 10)))) in
  let tail_p, tail_beyond, tail_v = if n = 0 then (50.0, 0, 0.0) else tail sorted in
  {
    p50 = (if n = 0 then 0.0 else percentile sorted 50.0);
    tail_p;
    tail_beyond;
    tail_v;
    late_ratio = (if n < 10 then 1.0 else ratio (tenth (n - max 1 (n / 10))) (tenth 0));
  }

let clock_hz = Experiment.clock_hz

(* End-to-end host times are in seconds of the reference machine: CPU
   seconds times the reference piece's time there over its fastest
   piece in this run. Neighbours on a shared host slow every
   instruction, which CPU time does not leave out; the reference loop
   slows with them, and the scale takes that back out. *)
let host_scale its = Calib.reference_s /. List.fold_left (fun acc it -> Float.min acc it.calib) infinity its
let setup_s it = List.fold_left (fun acc ph -> acc +. Probe.phase_s it.probe ph) 0.0 Probe.setup_phases

(* End-to-end host times add up, over the iteration's phase calls (one
   per loop slice), each call's fastest CPU time across the run's
   iterations. Every iteration makes the same calls on the same
   simulated work, and other load on the machine only ever adds time,
   so the minimum follows the code where the median follows the
   neighbours; a busy spell rarely spares a whole iteration but often
   spares one call of a few milliseconds. README.md gives the spreads. *)
let fastest_s its phases =
  let runs = List.map (fun it -> Probe.pieces it.probe) its in
  let first = List.hd runs in
  if List.exists (fun a -> Array.map fst a <> Array.map fst first) runs then
    failwith "perfbench: iterations made different phase calls";
  let total = ref 0.0 in
  Array.iteri
    (fun j (name, _) ->
      if List.mem name phases then
        total := !total +. List.fold_left (fun acc a -> Float.min acc (snd a.(j))) infinity runs)
    first;
  !total

let end_to_end its (sim : sim) =
  let r = (List.hd its).run in
  let makespan = Int64.to_float r.Loads.makespan in
  let host phases = host_scale its *. fastest_s its phases in
  [
    ("setup_s", "s", host Probe.setup_phases);
    ("wall_s", "s", host Probe.phases);
    ("syscalls_per_host_s", "1/s", ratio (float_of_int r.Loads.loop_syscalls) (host [ "loop" ]));
    (* The first iteration's peak: the heap kept between iterations
       grows, and how many run depends on the host's speed. *)
    ("host_heap_mb", "MB", mb (List.hd its).probe.Probe.heap_peak_words);
    ("op_p50_cycles", "cycles", sim.p50);
    ("op_tail_cycles", "cycles", sim.tail_v);
    ("makespan_cycles", "cycles", makespan);
    ("cap_ops_per_sim_s", "1/s", ratio (float_of_int r.Loads.loop_cap_ops) (makespan /. clock_hz));
  ]

(* ---- the per-layer side ---------------------------------------------- *)

(* Registry instruments of every system, with per-kernel names
   ([kernel<id>.x]) folded into one [kernel.x]: sums and maxima of
   counters and gauges, pooled counts and sums of histograms. *)
type agg = { mutable sum : float; mutable max : float; mutable n : int; mutable hsum : float }

let generic name =
  let is_digit c = c >= '0' && c <= '9' in
  match String.index_opt name '.' with
  | Some i when i > 6 && String.sub name 0 6 = "kernel" && String.for_all is_digit (String.sub name 6 (i - 6))
    ->
    "kernel" ^ String.sub name i (String.length name - i)
  | _ -> name

let aggregate states =
  let tbl = Hashtbl.create 64 in
  let get k =
    match Hashtbl.find_opt tbl k with
    | Some a -> a
    | None ->
      let a = { sum = 0.0; max = 0.0; n = 0; hsum = 0.0 } in
      Hashtbl.add tbl k a;
      a
  in
  let value a v =
    a.sum <- a.sum +. v;
    a.max <- Float.max a.max v
  in
  List.iter
    (List.iter (fun (name, inst) ->
         let a = get (generic name) in
         match inst with
         | Obs.Registry.S_counter v -> value a (float_of_int v)
         | Obs.Registry.S_gauge v -> value a v
         | Obs.Registry.S_histogram { h_acc; _ } ->
           if h_acc.Stats.Acc.s_n > 0 then begin
             a.n <- a.n + h_acc.Stats.Acc.s_n;
             a.hsum <- a.hsum +. h_acc.Stats.Acc.s_sum;
             a.max <- Float.max a.max h_acc.Stats.Acc.s_max
           end))
    states;
  Hashtbl.find_opt tbl

(* Syscall kinds whose mean latency is reported per layer; the
   workloads issue these (m3fs extents are [obtain]s). *)
let syscall_kinds = [ "alloc_mem"; "obtain"; "obtain_from"; "open_session"; "revoke" ]

let residue it =
  it.wall -. List.fold_left (fun acc ph -> acc +. Probe.phase_s it.probe ph) 0.0 Probe.phases

let per_layer ~traced ~untraced (sim : sim) =
  let r = (List.hd traced).run in
  let find = aggregate r.Loads.registries in
  (* Counters and gauges are registered when a system boots, so a
     missing one was renamed; histograms appear on first use. *)
  let get k =
    match find k with Some a -> a | None -> failwith ("perfbench: no registry instrument " ^ k)
  in
  let sum k = (get k).sum and mx k = (get k).max in
  let hmean k = match find k with Some a -> ratio a.hsum (float_of_int a.n) | None -> 0.0 in
  let med f = median (List.map f traced) in
  let loop_s = med (fun it -> Probe.phase_s it.probe "loop") in
  let events = float_of_int r.Loads.loop_events in
  let cancelled = sum "engine.events_cancelled" in
  let share a b = ratio (sum a) (sum a +. sum b) in
  let m3fs = r.Loads.m3fs_util in
  List.map (fun ph -> ("phase." ^ ph ^ "_s", "s", med (fun it -> Probe.phase_s it.probe ph))) Probe.phases
  @ [
      ("phase.bench_callbacks_s", "s", med (fun it -> it.probe.Probe.callbacks_s));
      ("phase.residue_s", "s", med residue);
      ("trace.overhead_s", "s", med (fun it -> it.wall) -. median (List.map (fun it -> it.wall) untraced));
      ("engine.events", "count", events);
      ("engine.events_cancelled", "count", cancelled);
      ("engine.cancel_ratio", "ratio", ratio cancelled (cancelled +. float_of_int r.Loads.events_total));
      ("engine.queue_peak", "count", mx "engine.heap_peak");
      ("engine.host_ns_per_event", "ns", ratio loop_s events *. 1e9);
      ("fabric.messages", "count", sum "fabric.messages_offered");
      ("fabric.bytes", "B", sum "fabric.bytes_offered");
      ("fabric.hops_per_msg", "hops", ratio (sum "fabric.hops_offered") (sum "fabric.messages_offered"));
      ( "fabric.delivered_ratio",
        "ratio",
        ratio (sum "fabric.messages_delivered") (sum "fabric.messages_offered") );
      ("kernel.ikc_sent", "count", sum "kernel.ikc_sent");
      ("kernel.credit_stalls", "count", sum "kernel.credit_stalls");
      ("kernel.credit_stall_ratio", "ratio", ratio (sum "kernel.credit_stalls") (sum "kernel.ikc_sent"));
      ("kernel.retries", "count", sum "kernel.retries");
      ("kernel.ikc_revoke_req_mean_cycles", "cycles", hmean "kernel.ikc_latency.revoke_req");
      ("kernel.occupancy_max", "ratio", r.Loads.occupancy_max);
      ("kernel.busy_cycles_max", "cycles", mx "kernel.busy_cycles");
      ("kernel.queue_depth_mean", "count", hmean "kernel.queue_depth");
      ( "kernel.queue_depth_max",
        "count",
        match find "kernel.queue_depth" with Some a -> a.max | None -> 0.0 );
      ("kernel.threads_max_in_use", "count", mx "kernel.threads.max_in_use");
      ("kernel.syscalls", "count", sum "kernel.syscalls");
      ("kernel.cap_ops", "count", sum "kernel.cap_ops");
      ( "kernel.exchanges_spanning_share",
        "ratio",
        share "kernel.exchanges_spanning" "kernel.exchanges_local" );
      ("kernel.revokes_spanning_share", "ratio", share "kernel.revokes_spanning" "kernel.revokes_local");
    ]
  @ List.map
      (fun kind ->
        ("kernel.syscall_" ^ kind ^ "_mean_cycles", "cycles", hmean ("kernel.syscall_latency." ^ kind)))
      syscall_kinds
  @ [
      ("caps.created", "count", sum "kernel.caps_created");
      ("caps.deleted", "count", sum "kernel.caps_deleted");
      ("caps.live_at_audit", "count", float_of_int r.Loads.live_caps);
      ( "caps.sweep_probes_per_delete",
        "ratio",
        ratio (sum "kernel.revoke_sweep_probes") (sum "kernel.caps_deleted") );
      ("m3fs.utilisation_max", "ratio", List.fold_left Float.max 0.0 m3fs);
      ( "m3fs.utilisation_mean",
        "ratio",
        ratio (List.fold_left ( +. ) 0.0 m3fs) (float_of_int (List.length m3fs)) );
      ("gc.pause_s", "s", med (fun it -> it.gc_pause));
      ("gc.minor", "count", med (fun it -> float_of_int it.gc_minor));
      ("gc.major", "count", med (fun it -> float_of_int it.gc_major));
      ("gc.promoted_mwords", "Mwords", med (fun it -> it.gc_promoted_mwords));
      ("op.tail_percentile", "%", sim.tail_p);
      ("op.tail_beyond", "count", float_of_int sim.tail_beyond);
      ("op.late_p50_ratio", "ratio", sim.late_ratio);
    ]

(* The phases must account for the traced iterations' wall time up to
   this share of it (the clock reads between phases), or up to the
   absolute floor on iterations too short for a share to mean much. *)
let residue_bound = 0.01
let residue_floor_s = 50e-6

(* ---- model accuracy against the paper's references ------------------- *)

let field k = function Obs.Json.Obj l -> List.assoc k l | _ -> raise Not_found
let int_field k j = match field k j with Obs.Json.Int i -> i | _ -> raise Not_found
let str_field k j = match field k j with Obs.Json.Str s -> s | _ -> raise Not_found
let rows k j = match field k j with Obs.Json.Arr l -> l | _ -> raise Not_found

let print_accuracy () =
  let line what sim paper =
    Printf.printf "accuracy: %-26s sim %6d  paper %6d  error %+5d (%+.1f%%)\n" what sim paper (sim - paper)
      (100.0 *. float_of_int (sim - paper) /. float_of_int paper)
  in
  List.iter
    (fun row ->
      line
        (Printf.sprintf "table3 %s %s cycles" (str_field "op" row) (str_field "scope" row))
        (int_field "cycles" row) (int_field "paper_cycles" row))
    (rows "table3" (Bench_json.micro ~jobs:1 ~lens:[] ()));
  List.iter
    (fun row ->
      line
        (Printf.sprintf "table4 %s cap ops/instance" (str_field "workload" row))
        (int_field "cap_ops" row) (int_field "paper_cap_ops" row))
    (rows "table4_single" (Bench_json.apps ~jobs:1 ()))

(* ---- digests: same code and seed must give the same simulation ------ *)

(* The digest of the first run of this executable on a workload, size
   and seed is stored under [dir]; every later run must match it. *)
let check_stored_digest ~dir ~key digest =
  let exe = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let path = Filename.concat dir (Printf.sprintf "digest-%s-%s" key exe) in
  if Sys.file_exists path then begin
    let stored = In_channel.with_open_bin path In_channel.input_all in
    if String.trim stored = digest then (true, "matches the stored digest")
    else (false, "MISMATCH with stored digest " ^ String.trim stored)
  end
  else begin
    Out_channel.with_open_bin path (fun oc -> output_string oc (digest ^ "\n"));
    (true, "stored")
  end

let json_line ~correct ~attempted ~failed metrics =
  Obs.Json.to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, unit, v) -> (name, Obs.Json.Obj [ ("value", Float v); ("unit", Str unit) ]))
                metrics) );
       ])

let main ~workload ~seed ~seconds ~tracing ~tiny ~state_dir =
  let deadline = Probe.elapsed () +. float_of_int seconds in
  let seed64 = Int64.of_int seed in
  (* Iterations run until the time is up, at least three of them; a
     traced run alternates untraced and traced iterations, at least two
     of each, so the tracing overhead is measured on the same inputs. *)
  let min_iterations = if tracing then 4 else 3 in
  let rec loop n acc =
    if n >= 1000 || (n >= min_iterations && Probe.elapsed () >= deadline) then List.rev acc
    else loop (n + 1) (iterate ~workload ~tiny ~seed:seed64 ~tracing:(tracing && n mod 2 = 1) :: acc)
  in
  let its = loop 0 [] in
  let traced = List.filter (fun it -> it.probe.Probe.tracing) its in
  let untraced = List.filter (fun it -> not it.probe.Probe.tracing) its in
  let first = List.hd its in
  let r = first.run in
  let sim = sim_of r in
  let size = if tiny then "tiny" else "full" in
  Printf.printf "perfbench: workload=%s size=%s seed=%d trace=%d iterations=%d (%d traced)\n" workload size seed
    (if tracing then 1 else 0) (List.length its) (List.length traced);
  Printf.printf "setup_s/wall_s/real-time s per iteration (t: traced):%s\n"
    (String.concat ""
       (List.map
          (fun it ->
            Printf.sprintf " %.5f/%.3f/%.3f/%.4f%s" (setup_s it) it.wall it.elapsed it.calib
              (if it.probe.Probe.tracing then "t" else ""))
          its));
  let walls = List.map (fun it -> it.wall) untraced in
  Printf.printf "CPU s of wall_s: %.4f as fastest calls, %.4f fastest iteration, %.4f median iteration\n"
    (fastest_s untraced Probe.phases) (List.fold_left Float.min infinity walls) (median walls);
  Printf.printf "reference piece: fastest %.5f s, median %.5f s; host times scaled by %.4f\n"
    (Calib.reference_s /. host_scale untraced) (median (List.map (fun it -> it.calib) untraced))
    (host_scale untraced);
  let same_digest = List.for_all (fun it -> it.digest = first.digest) its in
  let stored_ok, stored =
    check_stored_digest ~dir:state_dir ~key:(Printf.sprintf "%s-%s-seed%d" workload size seed) first.digest
  in
  Printf.printf "digest: %s %s (%s; %s)\n" workload first.digest
    (if same_digest then "identical in every iteration" else "DIFFERS between iterations")
    stored;
  Printf.printf "ops: %d attempted, %d failed; latency p50 %.0f, p%g %.0f cycles (%d samples beyond); \
                 last/first tenth p50 %.3f; busiest kernel occupancy %.3f\n"
    r.Loads.attempted r.Loads.failed sim.p50 sim.tail_p sim.tail_v sim.tail_beyond sim.late_ratio
    r.Loads.occupancy_max;
  let residue_ok =
    (not tracing)
    ||
    let res = median (List.map residue traced) in
    let share = ratio res (median (List.map (fun it -> it.wall) traced)) in
    Printf.printf "phases: spans add up to wall_s within %.4f%% (%.1f us; bound %.0f%% or %.0f us)\n"
      (100.0 *. share) (res *. 1e6) (100.0 *. residue_bound) (residue_floor_s *. 1e6);
    share <= residue_bound || res <= residue_floor_s
  in
  if tracing then begin
    let last = List.hd (List.rev traced) in
    let origin = (List.hd (List.rev last.probe.Probe.spans)).Probe.t0 in
    let path = Filename.concat state_dir (Printf.sprintf "spans-%s-%s-seed%d.jsonl" workload size seed) in
    Out_channel.with_open_bin path (fun oc -> output_string oc (Probe.spans_jsonl last.probe ~origin));
    Printf.printf "gc: %.4f s paused over the traced iterations, %d runtime events lost\n"
      (List.fold_left (fun acc it -> acc +. it.gc_pause) 0.0 traced)
      !Probe.Gc_pauses.lost;
    Printf.printf "spans: %d written to %s; by self time:\n" (List.length last.probe.Probe.spans) path;
    List.iteri
      (fun i (name, n, total, self) ->
        if i < 12 then Printf.printf "  %-24s %7d calls  total %8.4f s  self %8.4f s\n" name n total self)
      (Probe.span_summary last.probe)
  end;
  print_accuracy ();
  let metrics = if tracing then per_layer ~traced ~untraced sim else end_to_end untraced sim in
  let correct =
    same_digest && stored_ok && residue_ok && r.Loads.failed = 0 && r.Loads.attempted > 0
  in
  print_endline (json_line ~correct ~attempted:r.Loads.attempted ~failed:r.Loads.failed metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and size = ref "full" in
  let state_dir = ref "." in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " host seconds to measure for");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--size", Arg.Set_string size, " full (default) or tiny (self-test preset)");
      ("--state-dir", Arg.Set_string state_dir, " where digests and spans are kept");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe [options]";
  if
    (not (List.mem !workload workloads))
    || (!trace <> 0 && !trace <> 1)
    || (!size <> "full" && !size <> "tiny")
    || !seconds < 1
  then begin
    prerr_endline "perfbench: bad arguments (see --help)";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~tracing:(!trace = 1) ~tiny:(!size = "tiny")
    ~state_dir:!state_dir
