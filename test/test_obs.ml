(* Tests for the observability layer: the JSON emitter, the metrics
   registry, the trace ring buffer, and end-to-end determinism of
   snapshots and traces across identically-seeded system runs. *)

open Semperos

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* JSON emitter                                                        *)

let test_json_escaping () =
  let j =
    Obs.Json.(Obj [ ("k\"ey", Str "a\\b\"c\nd\te\r\x01f") ])
  in
  check Alcotest.string "escapes" "{\"k\\\"ey\":\"a\\\\b\\\"c\\nd\\te\\r\\u0001f\"}"
    (Obs.Json.to_string j);
  (* The validator must accept everything the emitter produces. *)
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "emitter output rejected: %s" e

let test_json_non_finite () =
  let j = Obs.Json.(Arr [ Float nan; Float infinity; Float neg_infinity; Float 1.5 ]) in
  check Alcotest.string "non-finite floats become null" "[null,null,null,1.5]"
    (Obs.Json.to_string j)

let test_json_parse_roundtrip () =
  let j =
    Obs.Json.(
      Obj
        [
          ("null", Null);
          ("bool", Bool true);
          ("int", Int (-42));
          ("float", Float 2.25);
          ("str", Str "x");
          ("arr", Arr [ Int 1; Obj [ ("nested", Bool false) ] ]);
          ("empty_obj", Obj []);
          ("empty_arr", Arr []);
        ])
  in
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok j' ->
    check Alcotest.string "round-trips byte-identically" (Obs.Json.to_string j)
      (Obs.Json.to_string j')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parse_rejects () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
      | Error _ -> ())
    bad

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry_counters () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "a.hits" in
  Obs.Registry.incr c;
  Obs.Registry.add c 4;
  check Alcotest.int "counter value" 5 (Obs.Registry.value c);
  (* Get-or-create: the same name yields the same instrument. *)
  let c' = Obs.Registry.counter r "a.hits" in
  Obs.Registry.incr c';
  check Alcotest.int "aliased" 6 (Obs.Registry.value c);
  check Alcotest.(list string) "names sorted" [ "a.hits" ] (Obs.Registry.names r)

let test_registry_kind_clash () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter r "x");
  Alcotest.check_raises "histogram over counter"
    (Invalid_argument "Obs.Registry: x already registered as a counter, not a histogram")
    (fun () -> ignore (Obs.Registry.histogram r "x" ~buckets:[| 1.0 |]))

let test_histogram_bucket_edges () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r "lat" ~buckets:[| 10.0; 20.0 |] in
  (* A bound is inclusive: x lands in the first bucket whose bound >= x. *)
  List.iter (Obs.Registry.observe h) [ 0.0; 10.0; 10.5; 20.0; 20.0000001; 1e9 ];
  check Alcotest.(array int) "bucket counts (<=10, <=20, overflow)" [| 2; 2; 2 |]
    (Obs.Registry.bucket_counts h);
  let acc = Obs.Registry.acc h in
  check Alcotest.int "count" 6 (Stats.Acc.count acc)

let test_empty_histogram_snapshot () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.histogram r "empty" ~buckets:[| 1.0 |]);
  let s = Obs.Json.to_string (Obs.Registry.snapshot r) in
  (* min/max/mean/sum of an empty histogram must serialize as null, not
     as the invalid JSON spellings of infinities (satellite 1). *)
  check Alcotest.bool "contains nulls" true (contains s "\"min\":null");
  match Obs.Json.parse s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "empty-histogram snapshot invalid: %s (%s)" e s

let test_gauge_replacement () =
  let r = Obs.Registry.create () in
  Obs.Registry.gauge r "g" (fun () -> 1.0);
  Obs.Registry.gauge r "g" (fun () -> 2.5);
  let s = Obs.Json.to_string (Obs.Registry.snapshot r) in
  check Alcotest.bool "latest callback wins" true (contains s "2.5")

let test_histogram_family () =
  let r = Obs.Registry.create () in
  let f = Obs.Registry.family r ~prefix:"k0.lat." ~names:[| "a"; "b"; "c" |] ~buckets:[| 10.0 |] in
  check Alcotest.(list string) "nothing registered before use" [] (Obs.Registry.names r);
  Obs.Registry.observe_in f 2 5;
  Obs.Registry.observe_in f 2 50;
  Obs.Registry.observe_in f 0 7;
  check Alcotest.(list string) "observed members only" [ "k0.lat.a"; "k0.lat.c" ]
    (Obs.Registry.names r);
  check Alcotest.(list string) "members sorted by name" [ "a"; "c" ]
    (List.map fst (Obs.Registry.members f));
  (* A member is the very histogram a lookup by name returns. *)
  let c = Obs.Registry.histogram r "k0.lat.c" ~buckets:[| 10.0 |] in
  check Alcotest.(array int) "member buckets" [| 1; 1 |] (Obs.Registry.bucket_counts c)

(* An integer sample lands where its float would, in buckets and moments. *)
let test_observe_int_matches_observe () =
  let r = Obs.Registry.create () in
  let hi = Obs.Registry.histogram r "t.int" ~buckets:[| 2.; 4.; 8. |] in
  let hf = Obs.Registry.histogram r "t.float" ~buckets:[| 2.; 4.; 8. |] in
  List.iter
    (fun n ->
      Obs.Registry.observe_int hi n;
      Obs.Registry.observe hf (float_of_int n))
    [ 0; 2; 3; 4; 8; 9; 1_000_000 ];
  check Alcotest.(array int) "buckets" (Obs.Registry.bucket_counts hf) (Obs.Registry.bucket_counts hi);
  let state h = Stats.Acc.dump (Obs.Registry.acc h) in
  check Alcotest.bool "moments" true (state hf = state hi)

(* Words allocated per call of [f], after a warm-up that creates any
   lazily registered instrument. *)
let words_per_call f =
  f 0;
  f 1;
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_updates_allocate_nothing () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "t.count" in
  let h = Obs.Registry.histogram r "t.depth" ~buckets:[| 1.; 10.; 100. |] in
  let f = Obs.Registry.family r ~prefix:"t.lat." ~names:[| "a"; "b" |] ~buckets:[| 10. |] in
  let off = Obs.Trace.create ~capacity:0 in
  let ts = 7L in
  List.iter
    (fun (what, g) -> check (Alcotest.float 0.01) what 0.0 (words_per_call g))
    [
      ("incr", fun _ -> Obs.Registry.incr c);
      ("add", fun i -> Obs.Registry.add c i);
      ("observe_int", fun i -> Obs.Registry.observe_int h i);
      ("observe_in", fun i -> Obs.Registry.observe_in f (i land 1) i);
      ( "trace off",
        fun i -> Obs.Trace.record off ~ts ~kind:"ikc_send" ~op:i ~src:0 ~dst:1 ~detail:"obtain_req" );
    ]

(* ------------------------------------------------------------------ *)
(* Trace ring buffer                                                   *)

let test_trace_wraparound () =
  let t = Obs.Trace.create ~capacity:4 in
  for i = 1 to 10 do
    Obs.Trace.record t ~ts:(Int64.of_int i) ~kind:"e" ~op:i ~src:(-1) ~dst:(-1) ~detail:""
  done;
  check Alcotest.int "recorded counts everything" 10 (Obs.Trace.recorded t);
  check Alcotest.int "dropped = recorded - capacity" 6 (Obs.Trace.dropped t);
  check Alcotest.(list int) "retains the newest, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Obs.Trace.op) (Obs.Trace.events t));
  check Alcotest.(list int) "tail" [ 9; 10 ]
    (List.map (fun e -> e.Obs.Trace.op) (Obs.Trace.tail t ~n:2));
  (* A tail longer than the retained window is just the window. *)
  check Alcotest.int "oversized tail clamps" 4 (List.length (Obs.Trace.tail t ~n:100))

let test_trace_jsonl () =
  let t = Obs.Trace.create ~capacity:8 in
  Obs.Trace.record t ~ts:5L ~kind:"syscall_enter" ~op:1 ~src:0 ~dst:2 ~detail:"alloc";
  Obs.Trace.record t ~ts:9L ~kind:"ikc_send" ~op:(-1) ~src:(-1) ~dst:(-1) ~detail:"";
  let lines = String.split_on_char '\n' (String.trim (Obs.Trace.to_jsonl t)) in
  check Alcotest.int "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "invalid JSONL line %s: %s" line e)
    lines

let test_trace_off () =
  let t = Obs.Trace.create ~capacity:0 in
  check Alcotest.bool "off" false (Obs.Trace.on t);
  Obs.Trace.record t ~ts:1L ~kind:"e" ~op:1 ~src:0 ~dst:1 ~detail:"";
  check Alcotest.int "nothing recorded" 0 (Obs.Trace.recorded t);
  check Alcotest.int "no events" 0 (List.length (Obs.Trace.events t))

(* ------------------------------------------------------------------ *)
(* End-to-end determinism                                              *)

(* Alloc on kernel 0, obtain from kernel 1, revoke: syscalls, IKCs and
   a spanning revocation. *)
let drive_fixed_workload sys =
  let a = System.spawn_vpe sys ~kernel:0 in
  let b = System.spawn_vpe sys ~kernel:1 in
  let sel =
    match System.syscall_sync sys a (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw })
    with
    | Protocol.R_sel s -> s
    | r -> Alcotest.failf "alloc failed: %a" Protocol.pp_reply r
  in
  ignore
    (System.syscall_sync sys b (Protocol.Sys_obtain_from { donor_vpe = a.Vpe.id; donor_sel = sel }));
  ignore (System.syscall_sync sys a (Protocol.Sys_revoke { sel; own = true }));
  ignore (System.run sys)

(* Two identically-configured runs must produce byte-identical metric
   snapshots and trace buffers: everything is driven by the sim clock
   and seeded RNGs, never by host time. *)
let run_fixed_workload ?(trace_capacity = 8192) () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:3 ~trace_capacity ()) in
  drive_fixed_workload sys;
  ( Obs.Json.to_string (Obs.Registry.snapshot (System.obs sys)),
    Obs.Trace.to_jsonl (System.trace_buffer sys) )

let test_snapshot_determinism () =
  let m1, t1 = run_fixed_workload () in
  let m2, t2 = run_fixed_workload () in
  check Alcotest.string "metric snapshots byte-identical" m1 m2;
  check Alcotest.string "traces byte-identical" t1 t2;
  match Obs.Json.parse m1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "system snapshot invalid JSON: %s" e

(* The documented scheme (obs.mli): dot-separated segments of lowercase
   letters, digits and underscores, the first naming the layer. *)
let follows_scheme name =
  let segment s =
    s <> "" && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_') s
  in
  let kernel_layer k =
    String.length k > 6
    && String.sub k 0 6 = "kernel"
    && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub k 6 (String.length k - 6))
  in
  match String.split_on_char '.' name with
  | layer :: (_ :: _ as rest) ->
    (List.mem layer [ "engine"; "fabric"; "dtu"; "balance"; "fleet" ] || kernel_layer layer)
    && List.for_all segment rest
  | _ -> false

let test_registry_naming_scheme () =
  List.iter
    (fun bad -> check Alcotest.bool bad false (follows_scheme bad))
    [ ""; "kernel0"; "Kernel0.syscalls"; "kernelx.syscalls"; "fabric..bytes"; "fabric.bytes-offered";
      "kernel0.syscalls."; "mystery.count" ];
  (* Everything a system registers, optional subsystems and lazily
     created histograms included. *)
  let sys = System.create (System.config ~kernels:2 ~spare_kernels:1 ~user_pes_per_kernel:3 ()) in
  ignore (Balance.create sys);
  ignore (Fleet.Auto.create sys);
  drive_fixed_workload sys;
  let names = Obs.Registry.names (System.obs sys) in
  check Alcotest.bool "lazy histograms included" true
    (List.mem "kernel1.syscall_latency.obtain_from" names);
  List.iter (fun name -> check Alcotest.bool name true (follows_scheme name)) names

(* Tracing observes the simulation and never steers it: with the ring
   off, every metric of the same run is byte-identical. *)
let test_tracing_changes_no_result () =
  let m_on, t_on = run_fixed_workload () in
  let m_off, t_off = run_fixed_workload ~trace_capacity:0 () in
  check Alcotest.string "metric snapshots identical" m_on m_off;
  check Alcotest.bool "ring on records events" true (t_on <> "");
  check Alcotest.string "ring off records none" "" t_off

(* Syscall and IKC kinds are numbered 0..n-1, one number and one name
   per constructor, so per-kind histograms and trace details index
   arrays instead of looking names up. *)
let test_protocol_kind_numbering () =
  let sel = 0 in
  let syscalls =
    Protocol.
      [
        Sys_create_vpe { on_pe = None };
        Sys_create_srv { name = "s" };
        Sys_create_rgate { ep = 0; slots = 1 };
        Sys_create_sgate { rgate = sel; label = 0 };
        Sys_alloc_mem { size = 1L; perms = Perms.rw };
        Sys_derive_mem { sel; offset = 0L; size = 1L; perms = Perms.rw };
        Sys_open_session { service = "s" };
        Sys_obtain { sess = sel; args = [] };
        Sys_delegate { sess = sel; sel; args = [] };
        Sys_obtain_from { donor_vpe = 0; donor_sel = sel };
        Sys_delegate_to { recv_vpe = 0; sel };
        Sys_revoke { sel; own = true };
        Sys_activate { sel; ep = 0 };
        Sys_exit;
      ]
  in
  check Alcotest.(list int) "syscall tags" (List.init 14 Fun.id)
    (List.map Protocol.syscall_tag syscalls);
  check Alcotest.int "one name per syscall kind" 14 (Array.length Protocol.syscall_names);
  check Alcotest.string "name by tag" "obtain_from"
    (Protocol.syscall_name (Protocol.Sys_obtain_from { donor_vpe = 0; donor_sel = sel }));
  let distinct names =
    List.length (List.sort_uniq compare (Array.to_list names)) = Array.length names
  in
  check Alcotest.bool "syscall names distinct" true (distinct Protocol.syscall_names);
  check Alcotest.bool "IKC names distinct" true (distinct Protocol.ikc_names);
  check Alcotest.string "IKC name by tag" "revoke_req"
    (Protocol.ikc_name (Protocol.Ik_revoke_req { op = 0; src_kernel = 0; keys = [] }));
  check Alcotest.int "last IKC tag" (Array.length Protocol.ikc_names - 1)
    (Protocol.ikc_tag (Protocol.Ik_batch { src_kernel = 0; msgs = [] }))

let test_trace_records_protocol () =
  let _, jsonl = run_fixed_workload () in
  let has kind = contains jsonl (Printf.sprintf "\"kind\":\"%s\"" kind) in
  List.iter
    (fun kind -> check Alcotest.bool kind true (has kind))
    [ "syscall_enter"; "syscall_exit"; "ikc_send"; "ikc_recv"; "revoke_mark"; "revoke_sweep" ]

(* The load balancer's occupancy inputs must be exported for every
   kernel unconditionally — `semperos_cli stats` shows them whether or
   not a balancer is attached. *)
let test_occupancy_instruments_exported () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:3 ()) in
  let v = System.spawn_vpe sys ~kernel:0 in
  ignore (System.syscall_sync sys v (Protocol.Sys_alloc_mem { size = 64L; perms = Perms.rw }));
  let names = Obs.Registry.names (System.obs sys) in
  List.iter
    (fun k ->
      List.iter
        (fun instr ->
          let name = Printf.sprintf "kernel%d.%s" k instr in
          check Alcotest.bool (name ^ " registered") true (List.mem name names))
        [ "busy_cycles"; "queue_depth"; "occupancy" ])
    [ 0; 1 ];
  (* And they appear in the snapshot JSON with the right shape. *)
  let snap = Obs.Json.to_string (Obs.Registry.snapshot (System.obs sys)) in
  (match Obs.Json.parse snap with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "snapshot invalid JSON: %s" e);
  check Alcotest.bool "busy_cycles is a gauge" true
    (contains snap "\"kernel0.busy_cycles\":{\"type\":\"gauge\"");
  check Alcotest.bool "queue_depth is a histogram" true
    (contains snap "\"kernel0.queue_depth\":{\"type\":\"histogram\"")

(* What [semperos_cli stats] and [trace] print for a small multi-kernel
   workload: a snapshot and trace lines that parse, the span kinds the
   protocols must emit, and identical bytes from a second run. *)
let test_stats_and_trace_dump () =
  let workload = Workloads.tar in
  let kernels = 3 and instances = 6 in
  let run () =
    let sys =
      System.create
        (System.config ~kernels ~user_pes_per_kernel:((instances / kernels) + 2)
           ~trace_capacity:8192 ())
    in
    let prefixed i = Trace.with_prefix (Printf.sprintf "/i%d" i) (workload.Workloads.build ()) in
    let fs =
      M3fs.create ~config:workload.Workloads.fs_config sys ~kernel:0 ~name:"m3fs"
        ~files:(List.concat (List.init instances (fun i -> (prefixed i).Trace.files)))
        ()
    in
    for i = 0 to instances - 1 do
      let vpe = System.spawn_vpe sys ~kernel:(i mod kernels) in
      Replay.run sys fs ~vpe (prefixed i) (fun _ -> ())
    done;
    ignore (System.run sys);
    ( Obs.Json.to_string (Obs.Registry.snapshot (System.obs sys)),
      Obs.Trace.to_jsonl (System.trace_buffer sys) )
  in
  let stats, trace = run () in
  (match Obs.Json.parse stats with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics snapshot is not valid JSON: %s" e);
  let lines = String.split_on_char '\n' (String.trim trace) in
  check Alcotest.bool "trace is non-empty" true (lines <> [ "" ]);
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "trace line %s is not valid JSON: %s" line e)
    lines;
  List.iter
    (fun kind ->
      check Alcotest.bool (kind ^ " spans traced") true
        (contains trace (Printf.sprintf "\"kind\":\"%s\"" kind)))
    [ "syscall_enter"; "syscall_exit"; "ikc_send"; "ikc_recv" ];
  check Alcotest.bool "snapshot mentions kernel counters" true (contains stats "kernel0.syscalls");
  let stats2, trace2 = run () in
  check Alcotest.string "snapshot deterministic" stats stats2;
  check Alcotest.string "trace deterministic" trace trace2

let suite =
  [
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "json non-finite floats" `Quick test_json_non_finite;
    Alcotest.test_case "json parse round-trip" `Quick test_json_parse_roundtrip;
    Alcotest.test_case "json parse rejects garbage" `Quick test_json_parse_rejects;
    Alcotest.test_case "registry counters" `Quick test_registry_counters;
    Alcotest.test_case "registry kind clash" `Quick test_registry_kind_clash;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_bucket_edges;
    Alcotest.test_case "empty histogram snapshot" `Quick test_empty_histogram_snapshot;
    Alcotest.test_case "gauge replacement" `Quick test_gauge_replacement;
    Alcotest.test_case "trace ring wraparound" `Quick test_trace_wraparound;
    Alcotest.test_case "trace JSONL" `Quick test_trace_jsonl;
    Alcotest.test_case "snapshot determinism" `Quick test_snapshot_determinism;
    Alcotest.test_case "trace records protocol spans" `Quick test_trace_records_protocol;
    Alcotest.test_case "occupancy instruments exported" `Quick test_occupancy_instruments_exported;
    Alcotest.test_case "histogram family" `Quick test_histogram_family;
    Alcotest.test_case "integer observations" `Quick test_observe_int_matches_observe;
    Alcotest.test_case "registry naming scheme" `Quick test_registry_naming_scheme;
    Alcotest.test_case "instrument updates allocate nothing" `Quick test_updates_allocate_nothing;
    Alcotest.test_case "trace off" `Quick test_trace_off;
    Alcotest.test_case "tracing changes no result" `Quick test_tracing_changes_no_result;
    Alcotest.test_case "protocol kind numbering" `Quick test_protocol_kind_numbering;
    Alcotest.test_case "stats and trace dumps" `Quick test_stats_and_trace_dump;
  ]
