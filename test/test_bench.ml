(* The experiment registry. Every entry's Smoke preset is checked the
   same way: its text and JSON are byte-identical at --jobs 1 and 2
   (host-timed entries excepted), a recording resumed from its midpoint
   renders the recorded bytes, and a deliverable's JSON has its
   declared shape. Then the contract each deliverable must keep, never
   pinning a host-dependent number. *)

open Semperos

let check = Alcotest.check

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let same what (a : Entry.output) (b : Entry.output) =
  check Alcotest.string (what ^ ": text") a.Entry.text b.Entry.text;
  check Alcotest.string (what ^ ": json")
    (Obs.Json.to_string a.Entry.json)
    (Obs.Json.to_string b.Entry.json)

let check_entry (Entry.E e as entry) () =
  let reference = Entry.run ~jobs:1 entry Entry.Smoke in
  if not e.host_timed then same "jobs 1 = jobs 2" reference (Entry.run ~jobs:2 entry Entry.Smoke);
  let dir = Filename.temp_dir "semperos-registry" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let recorded = Record.record ~jobs:2 ~every:2 ~dir entry Entry.Smoke in
      if not e.host_timed then same "recording = uninterrupted run" reference recorded;
      (* A host-timed entry recomputes its tail on another clock: only
         its final checkpoint replays the recorded bytes. *)
      let total = List.length (e.points Entry.Smoke) in
      let from_ = if e.host_timed then total else total / 2 in
      match Record.replay ~jobs:2 ~dir ~from_ () with
      | Error err -> Alcotest.failf "replay --from %d: %s" from_ err
      | Ok (_, replayed) -> same (Printf.sprintf "replay --from %d" from_) recorded replayed);
  if Option.is_some e.shape then
    check
      Alcotest.(result unit string)
      "json has the deliverable's shape" (Ok ())
      (Bench.validate ~path:(Bench.path entry) reference.Entry.json)

let smoke (e : ('p, 'r) Entry.spec) = Entry.map e (e.points Entry.Smoke)

(* ------------------------------------------------------------------ *)
(* Deliverable contracts                                               *)

(* Batching must strictly cut inter-kernel messages and cycles on the
   spanning chain, and the obtain burst is dense enough for the DTU slot
   window to coalesce unrelated messages into frames. *)
let test_batch_contract () =
  let samples = smoke Batchbench.entry in
  check Alcotest.int "three workloads measured" 3 (List.length samples);
  List.iter
    (fun (s : Batchbench.sample) ->
      let ok what b = check Alcotest.bool (s.b_name ^ ": " ^ what) true b in
      ok "both modes ran" (s.b_off_cycles > 0L && s.b_on_cycles > 0L);
      ok "messages counted" (s.b_off_ikc > 0 && s.b_on_ikc > 0);
      ok "batching never adds messages" (s.b_on_ikc <= s.b_off_ikc))
    samples;
  let find part =
    match
      List.find_opt (fun (s : Batchbench.sample) -> Str_contains.contains s.b_name part) samples
    with
    | Some s -> s
    | None -> Alcotest.failf "%s sample missing" part
  in
  let chain = find "chain_spanning" and burst = find "obtain_burst" in
  check Alcotest.bool "chain: fewer inter-kernel messages" true (chain.b_on_ikc < chain.b_off_ikc);
  check Alcotest.bool "chain: fewer simulated cycles" true
    (Int64.compare chain.b_on_cycles chain.b_off_cycles < 0);
  check Alcotest.bool "burst: frames were shipped" true (burst.b_batches > 0);
  check Alcotest.bool "burst: frames carried multiple messages" true
    (burst.b_batched_msgs > burst.b_batches)

(* The balancer must strictly improve both metrics on the hotspot, with
   a clean capability audit on both sides. *)
let test_balance_contract () =
  let cfg = { Skew.default_config with Skew.clients = 4; rounds = 10; pes_per_kernel = 6 } in
  let static = Skew.run { cfg with Skew.policy = Balance.Policy.Static } in
  let balanced = Skew.run cfg in
  check Alcotest.(list string) "static: audit clean" [] static.Skew.audit_errors;
  check Alcotest.bool "static: no migrations" true (static.Skew.migrations = []);
  check Alcotest.(list string) "balanced: audit clean" [] balanced.Skew.audit_errors;
  check Alcotest.bool "balanced: migrations happened" true (balanced.Skew.migrations <> []);
  check Alcotest.bool "balanced: max occupancy strictly reduced" true
    (balanced.Skew.max_occupancy < static.Skew.max_occupancy);
  check Alcotest.bool "balanced: completion strictly reduced" true
    (balanced.Skew.completion < static.Skew.completion)

(* The fleet must scale out under the surge and settle back at the boot
   size, with every transition's safety checks and the final audit
   clean. *)
let test_fleet_contract () =
  let cfg = Fleetbench.config_of_preset Entry.Smoke in
  let fixed = Fleetbench.run ~elastic:false cfg in
  let elastic = Fleetbench.run cfg in
  let ok what b = check Alcotest.bool what true b in
  ok "fixed: audit clean" (fixed.Fleetbench.audit_errors = []);
  ok "fixed: no transitions" (fixed.Fleetbench.transitions = []);
  ok "fixed: stays at boot size" (fixed.Fleetbench.peak_active = cfg.Fleetbench.boot);
  ok "elastic: audit clean" (elastic.Fleetbench.audit_errors = []);
  ok "elastic: transition checks clean" (elastic.Fleetbench.transition_errors = []);
  ok "elastic: scaled out under the surge" (elastic.Fleetbench.peak_active > cfg.Fleetbench.boot);
  ok "elastic: settled back at boot size" (elastic.Fleetbench.final_active = cfg.Fleetbench.boot);
  ok "elastic: both joins and drains ran"
    (List.exists (fun t -> t.Fleet.Auto.t_kind = `Join) elastic.Fleetbench.transitions
    && List.exists (fun t -> t.Fleet.Auto.t_kind = `Drain) elastic.Fleetbench.transitions);
  ok "elastic: every transition finished"
    (List.for_all (fun t -> t.Fleet.Auto.t_finish <> None) elastic.Fleetbench.transitions);
  ok "elastic: stall bound is finite and positive" (elastic.Fleetbench.max_wave > 0L)

(* The audit phase inside the scale rows already fails hard if the
   incremental report diverges from the full one, so completing also
   covers that oracle. *)
let test_scale_contract () =
  let rows = List.concat (smoke Scale.entry) in
  check Alcotest.int "one application row and one session row" 2 (List.length rows);
  (match rows with
  | [ app; sess ] ->
    check Alcotest.int "application row carries no sessions" 0 app.Scale.r_sessions;
    check Alcotest.int "session row ran the whole trace" 2_000 sess.Scale.r_sessions;
    (* Closed ops leave the idempotency caches, so their peak follows
       the ops in flight; keeping every request would put it near the
       session count. *)
    check Alcotest.bool "session row's dedup peak is far below its session count" true
      (sess.Scale.r_dedup_peak > 0 && sess.Scale.r_dedup_peak * 100 < sess.Scale.r_sessions)
  | _ -> ());
  List.iter
    (fun (r : Scale.row) ->
      let ok what b = check Alcotest.bool (r.r_name ^ ": " ^ what) true b in
      ok "PE count adds up" (r.r_total_pes = r.r_instances + r.r_services + r.r_kernels);
      ok "events were processed" (r.r_events > 0);
      ok "capability operations happened" (r.r_cap_ops > 0);
      ok "wall time is non-negative" (r.r_wall_s >= 0.0);
      ok "heap peak is positive" (r.r_heap_peak > 0);
      ok "churn forest is populated" (r.r_audit_caps > 0);
      ok "audit timings are non-negative"
        (r.r_audit_full_s >= 0.0 && r.r_audit_incremental_s >= 0.0))
    rows

let test_wallclock_contract () =
  let samples = smoke Wallclock.entry in
  check Alcotest.int "three workloads measured" 3 (List.length samples);
  List.iter
    (fun (s : Wallclock.sample) ->
      let ok what b = check Alcotest.bool (s.s_name ^ ": " ^ what) true b in
      ok "events were processed" (s.s_events > 0);
      ok "wall time is non-negative" (s.s_wall_s >= 0.0);
      ok "heap peak is positive" (s.s_heap_peak > 0))
    samples;
  (* The fig6 smoke point places its single service so that half the
     instances connect across groups: the cancellation machinery must
     actually have run. *)
  check Alcotest.bool "some retry timers were cancelled" true
    (List.exists (fun (s : Wallclock.sample) -> s.s_cancelled > 0) samples)

let test_engine_contract () =
  let samples = smoke Enginebench.entry in
  check Alcotest.int "every (size, op) cell measured" 6 (List.length samples);
  List.iter
    (fun op ->
      check Alcotest.int (op ^ " measured at both sizes") 2
        (List.length (List.filter (fun (s : Enginebench.sample) -> s.s_op = op) samples)))
    [ "schedule"; "cancel"; "drain" ];
  List.iter
    (fun (s : Enginebench.sample) ->
      let ok what b =
        check Alcotest.bool (Printf.sprintf "%s/%d: %s" s.s_op s.s_pending what) true b
      in
      ok "wall time is non-negative" (s.s_wall_s >= 0.0);
      ok "throughput is non-negative" (s.s_ops_per_s >= 0.0))
    samples

let suite =
  List.map
    (fun e -> Alcotest.test_case ("registry: " ^ Entry.name e) `Quick (check_entry e))
    Bench.all
  @ [
      Alcotest.test_case "batch contract" `Quick test_batch_contract;
      Alcotest.test_case "balance contract" `Quick test_balance_contract;
      Alcotest.test_case "fleet contract" `Quick test_fleet_contract;
      Alcotest.test_case "scale contract" `Quick test_scale_contract;
      Alcotest.test_case "wallclock contract" `Quick test_wallclock_contract;
      Alcotest.test_case "engine contract" `Quick test_engine_contract;
    ]
