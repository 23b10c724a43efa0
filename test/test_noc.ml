(* Tests for the NoC topology and fabric. *)

open Semperos

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let test_mesh_basics () =
  let t = Topology.mesh ~width:4 ~height:3 in
  check Alcotest.int "pe count" 12 (Topology.pe_count t);
  check Alcotest.(pair int int) "coords of 0" (0, 0) (Topology.coords t 0);
  check Alcotest.(pair int int) "coords of 5" (1, 1) (Topology.coords t 5);
  check Alcotest.int "hops 0->11" 5 (Topology.hops t 0 11);
  check Alcotest.int "hops self" 0 (Topology.hops t 7 7)

let test_mesh_invalid () =
  Alcotest.check_raises "zero width" (Invalid_argument "Topology.mesh: non-positive dimension")
    (fun () -> ignore (Topology.mesh ~width:0 ~height:3));
  let t = Topology.mesh ~width:2 ~height:2 in
  Alcotest.check_raises "pe out of range" (Invalid_argument "Topology.coords: PE out of range")
    (fun () -> ignore (Topology.coords t 4))

let test_square () =
  let t = Topology.square 10 in
  check Alcotest.bool "holds at least n" true (Topology.pe_count t >= 10);
  check Alcotest.int "is 4x4" 16 (Topology.pe_count t);
  check Alcotest.int "square 1" 1 (Topology.pe_count (Topology.square 1))

let topo_gen =
  QCheck.Gen.(
    map3 (fun w h seed -> (Topology.mesh ~width:w ~height:h, seed)) (1 -- 8) (1 -- 8) int)

let prop_hops_metric =
  QCheck.Test.make ~name:"hop count is a metric" ~count:200
    (QCheck.make topo_gen)
    (fun (t, seed) ->
      let r = Rng.create (Int64.of_int seed) in
      let n = Topology.pe_count t in
      let a = Rng.int r n and b = Rng.int r n and c = Rng.int r n in
      Topology.hops t a b = Topology.hops t b a
      && Topology.hops t a a = 0
      && Topology.hops t a c <= Topology.hops t a b + Topology.hops t b c)

let make_fabric () =
  let e = Engine.create () in
  let t = Topology.mesh ~width:4 ~height:4 in
  (e, Fabric.create e t Fabric.default_config)

let test_fabric_latency_formula () =
  let _, f = make_fabric () in
  let cfg = Fabric.default_config in
  let expected hops bytes =
    Int64.of_int (cfg.Fabric.base_cycles + (cfg.Fabric.hop_cycles * hops) + (bytes / cfg.Fabric.bytes_per_cycle))
  in
  check Alcotest.int64 "adjacent" (expected 1 64) (Fabric.latency f ~src:0 ~dst:1 ~bytes:64);
  check Alcotest.int64 "corner to corner" (expected 6 0) (Fabric.latency f ~src:0 ~dst:15 ~bytes:0)

let test_fabric_delivery () =
  let e, f = make_fabric () in
  let arrived = ref 0L in
  Fabric.send f ~src:0 ~dst:15 ~bytes:64 (fun () -> arrived := Engine.now e);
  ignore (Engine.run e);
  check Alcotest.int64 "arrival time" (Fabric.latency f ~src:0 ~dst:15 ~bytes:64) !arrived;
  check Alcotest.int "messages" 1 (Fabric.messages f);
  check Alcotest.int "bytes" 64 (Fabric.bytes_carried f);
  check Alcotest.int "hops" 6 (Fabric.hops_traversed f)

let test_fabric_fifo_per_channel () =
  let e, f = make_fabric () in
  let log = ref [] in
  (* A big message followed by a small one on the same channel: the
     small one must not overtake (the kernel protocols rely on it). *)
  Fabric.send f ~src:0 ~dst:15 ~bytes:16384 (fun () -> log := "big" :: !log);
  Fabric.send f ~src:0 ~dst:15 ~bytes:0 (fun () -> log := "small" :: !log);
  ignore (Engine.run e);
  check Alcotest.(list string) "fifo" [ "big"; "small" ] (List.rev !log)

let test_fabric_distinct_channels_independent () =
  let e, f = make_fabric () in
  let log = ref [] in
  Fabric.send f ~src:0 ~dst:15 ~bytes:16384 (fun () -> log := "slow" :: !log);
  Fabric.send f ~src:1 ~dst:2 ~bytes:0 (fun () -> log := "fast" :: !log);
  ignore (Engine.run e);
  check Alcotest.(list string) "no cross-channel blocking" [ "fast"; "slow" ] (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Offered vs delivered statistics, and the injection hook.             *)

let test_fabric_stats_no_injector () =
  let e, f = make_fabric () in
  Fabric.send f ~src:0 ~dst:15 ~bytes:64 (fun () -> ());
  Fabric.send f ~src:1 ~dst:2 ~bytes:32 (fun () -> ());
  (* Offered counters tick at send time... *)
  check Alcotest.int "messages offered" 2 (Fabric.messages f);
  check Alcotest.int "bytes offered" 96 (Fabric.bytes_carried f);
  check Alcotest.int "nothing delivered yet" 0 (Fabric.messages_delivered f);
  ignore (Engine.run e);
  (* ... delivered counters only once the message arrives. *)
  check Alcotest.int "messages delivered" 2 (Fabric.messages_delivered f);
  check Alcotest.int "bytes delivered" 96 (Fabric.bytes_delivered f);
  check Alcotest.int "nothing dropped" 0 (Fabric.dropped f)

let test_fabric_injector_drop () =
  let e, f = make_fabric () in
  (* Drop every tagged message; untagged traffic is untouched. *)
  Fabric.set_injector f (Some (fun ~src:_ ~dst:_ ~tag ~now:_ ~arrival ->
      if tag = "" then [ Some arrival ] else []));
  let tagged = ref 0 and untagged = ref 0 in
  Fabric.send f ~tag:"obtain_req" ~src:0 ~dst:15 ~bytes:64 (fun () -> incr tagged);
  Fabric.send f ~src:0 ~dst:15 ~bytes:64 (fun () -> incr untagged);
  ignore (Engine.run e);
  check Alcotest.int "tagged message dropped" 0 !tagged;
  check Alcotest.int "untagged message delivered" 1 !untagged;
  check Alcotest.int "offered counts both" 2 (Fabric.messages f);
  check Alcotest.int "delivered counts one" 1 (Fabric.messages_delivered f);
  check Alcotest.int "drop counted" 1 (Fabric.dropped f)

let test_fabric_injector_duplicate () =
  let e, f = make_fabric () in
  Fabric.set_injector f (Some (fun ~src:_ ~dst:_ ~tag:_ ~now:_ ~arrival ->
      [ Some arrival; Some (Int64.add arrival 100L) ]));
  let deliveries = ref [] in
  Fabric.send f ~tag:"revoke_req" ~src:0 ~dst:1 ~bytes:0 (fun () ->
      deliveries := Engine.now e :: !deliveries);
  ignore (Engine.run e);
  let base = Fabric.latency f ~src:0 ~dst:1 ~bytes:0 in
  check Alcotest.(list int64) "both copies arrive, in order"
    [ base; Int64.add base 100L ]
    (List.rev !deliveries);
  check Alcotest.int "one offered" 1 (Fabric.messages f);
  check Alcotest.int "two delivered" 2 (Fabric.messages_delivered f)

(* A duplicate-then-drop plan: one copy delivered, one copy dropped.
   The dropped copy must show up in [dropped] even though the message
   as a whole got through. *)
let test_fabric_partial_drop () =
  let e, f = make_fabric () in
  Fabric.set_injector f (Some (fun ~src:_ ~dst:_ ~tag:_ ~now:_ ~arrival ->
      [ Some arrival; None ]));
  let deliveries = ref 0 in
  Fabric.send f ~tag:"revoke_req" ~src:0 ~dst:1 ~bytes:0 (fun () -> incr deliveries);
  ignore (Engine.run e);
  check Alcotest.int "one offered" 1 (Fabric.messages f);
  check Alcotest.int "one delivered" 1 (Fabric.messages_delivered f);
  check Alcotest.int "one copy delivered" 1 !deliveries;
  check Alcotest.int "partial drop counted" 1 (Fabric.dropped f);
  (* Dropping every copy of a duplicated message counts each copy. *)
  Fabric.set_injector f (Some (fun ~src:_ ~dst:_ ~tag:_ ~now:_ ~arrival:_ -> [ None; None ]));
  Fabric.send f ~tag:"revoke_req" ~src:0 ~dst:1 ~bytes:0 (fun () -> incr deliveries);
  ignore (Engine.run e);
  check Alcotest.int "both copies dropped" 3 (Fabric.dropped f);
  check Alcotest.int "no extra delivery" 1 !deliveries

(* The fabric clamps whatever the injector returns so that per-channel
   FIFO order and causality survive. *)
let test_fabric_injector_fifo_clamp () =
  let e, f = make_fabric () in
  (* An injector that tries to deliver the second message before the
     first (and before it was even sent). *)
  let calls = ref 0 in
  Fabric.set_injector f (Some (fun ~src:_ ~dst:_ ~tag:_ ~now:_ ~arrival ->
      incr calls;
      if !calls = 1 then [ Some (Int64.add arrival 5_000L) ] else [ Some 0L ]));
  let log = ref [] in
  Fabric.send f ~tag:"a" ~src:0 ~dst:15 ~bytes:0 (fun () -> log := "first" :: !log);
  Fabric.send f ~tag:"b" ~src:0 ~dst:15 ~bytes:0 (fun () -> log := "second" :: !log);
  ignore (Engine.run e);
  check Alcotest.(list string) "FIFO survives injection" [ "first"; "second" ] (List.rev !log)

(* The FIFO clamp grows well past its initial capacity (one entry per
   channel used: 9,900 here, four growths), and a snapshot restored
   into a fresh fabric reproduces it exactly — same snapshot, and the
   same clamped arrival on every channel. *)
let test_fabric_clamp_snapshot_after_growth () =
  let e = Engine.create () in
  let topo = Topology.square 100 in
  let f = Fabric.create e topo Fabric.default_config in
  for src = 0 to 99 do
    for dst = 0 to 99 do
      if src <> dst then
        Fabric.send f ~src ~dst ~bytes:(((src * 7) + dst) mod 4096) (fun () -> ())
    done
  done;
  let snap = Fabric.snapshot f in
  let e' = Engine.create () in
  let f' = Fabric.create e' topo Fabric.default_config in
  Fabric.restore f' snap;
  check Alcotest.bool "snapshot -> restore -> snapshot" true (Fabric.snapshot f' = snap);
  (* A zero-byte message is faster than every clamp above, so each
     channel must deliver at its restored clamp. *)
  let arrivals fab eng =
    let times = ref [] in
    for src = 0 to 99 do
      let dst = (src + 37) mod 100 in
      Fabric.send fab ~src ~dst ~bytes:0 (fun () -> times := Engine.now eng :: !times)
    done;
    ignore (Engine.run eng);
    List.rev !times
  in
  check Alcotest.(list int64) "clamped arrivals" (arrivals f e) (arrivals f' e')

let suite =
  [
    Alcotest.test_case "mesh basics" `Quick test_mesh_basics;
    Alcotest.test_case "mesh invalid" `Quick test_mesh_invalid;
    Alcotest.test_case "square" `Quick test_square;
    qcheck prop_hops_metric;
    Alcotest.test_case "fabric latency formula" `Quick test_fabric_latency_formula;
    Alcotest.test_case "fabric delivery" `Quick test_fabric_delivery;
    Alcotest.test_case "fabric per-channel FIFO" `Quick test_fabric_fifo_per_channel;
    Alcotest.test_case "fabric channel independence" `Quick test_fabric_distinct_channels_independent;
    Alcotest.test_case "fabric offered vs delivered stats" `Quick test_fabric_stats_no_injector;
    Alcotest.test_case "fabric injector drop" `Quick test_fabric_injector_drop;
    Alcotest.test_case "fabric injector duplicate" `Quick test_fabric_injector_duplicate;
    Alcotest.test_case "fabric injector partial drop" `Quick test_fabric_partial_drop;
    Alcotest.test_case "fabric injector FIFO clamp" `Quick test_fabric_injector_fifo_clamp;
    Alcotest.test_case "fabric clamp snapshot after growth" `Quick
      test_fabric_clamp_snapshot_after_growth;
  ]
