(* Tests for the checkpoint/restore layer: image format validation,
   per-module snapshot round-trips, whole-system fingerprints, fuzz
   cases frozen mid-run, and snapshots taken inside a migration
   handoff window — including a revocation parked by
   [defer_revoke_child] that must complete after resume. *)

open Semperos

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Image format                                                        *)

type toy = { t_label : string; t_values : int list; t_fn : int -> int }

let toy = { t_label = "toy"; t_values = [ 1; 2; 3 ]; t_fn = (fun x -> x * 2) }

let test_image_roundtrip () =
  let img =
    Checkpoint.save ~kind:"toy" ~label:"unit" ~position:7L ~fingerprint:"fp" toy
  in
  (match Checkpoint.header_of_bytes img with
  | Error e -> Alcotest.failf "header: %s" e
  | Ok h ->
      check Alcotest.int "version" Checkpoint.format_version h.Checkpoint.version;
      check Alcotest.string "kind" "toy" h.Checkpoint.kind;
      check Alcotest.string "label" "unit" h.Checkpoint.label;
      check Alcotest.int64 "position" 7L h.Checkpoint.position;
      check Alcotest.string "fingerprint" "fp" h.Checkpoint.fingerprint;
      check Alcotest.bool "digest nonempty" true (h.Checkpoint.payload_digest <> ""));
  match Checkpoint.load ~kind:"toy" img with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (_, (t : toy)) ->
      check Alcotest.string "label survives" toy.t_label t.t_label;
      check (Alcotest.list Alcotest.int) "values survive" toy.t_values t.t_values;
      (* closures are captured too (same-binary load) *)
      check Alcotest.int "closure survives" 42 (t.t_fn 21)

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a load error" what

let test_version_mismatch_rejected () =
  let img =
    Checkpoint.save ~version:(Checkpoint.format_version + 1) ~kind:"toy" toy
  in
  (* the header still decodes — that is how tools report what version a
     stale image was written with — but the payload must not load *)
  (match Checkpoint.header_of_bytes img with
  | Error e -> Alcotest.failf "header: %s" e
  | Ok h ->
      check Alcotest.int "recorded version" (Checkpoint.format_version + 1)
        h.Checkpoint.version);
  expect_error "future version" (Checkpoint.load ~kind:"toy" img : (_ * toy, _) result);
  let img = Checkpoint.save ~version:0 ~kind:"toy" toy in
  expect_error "stale version" (Checkpoint.load ~kind:"toy" img : (_ * toy, _) result)

let test_kind_mismatch_rejected () =
  let img = Checkpoint.save ~kind:"fuzz-case" toy in
  expect_error "wrong kind" (Checkpoint.load ~kind:"recording" img : (_ * toy, _) result)

let test_corrupt_payload_rejected () =
  let img = Checkpoint.save ~kind:"toy" toy in
  let corrupt = Bytes.copy img in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 0xff));
  expect_error "flipped byte" (Checkpoint.load ~kind:"toy" corrupt : (_ * toy, _) result)

let test_garbage_rejected () =
  let img = Checkpoint.save ~kind:"toy" toy in
  expect_error "truncated"
    (Checkpoint.load ~kind:"toy" (Bytes.sub img 0 12) : (_ * toy, _) result);
  expect_error "empty" (Checkpoint.load ~kind:"toy" Bytes.empty : (_ * toy, _) result);
  let noise = Bytes.of_string "not a checkpoint image at all......" in
  expect_error "bad magic" (Checkpoint.load ~kind:"toy" noise : (_ * toy, _) result)

let test_file_roundtrip () =
  let path = Filename.temp_file "semperos-ckpt" ".img" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let img = Checkpoint.save ~kind:"toy" ~label:"file" toy in
      Checkpoint.write path img;
      match Checkpoint.read path with
      | Error e -> Alcotest.failf "read: %s" e
      | Ok bytes ->
          check Alcotest.bool "bytes identical" true (Bytes.equal img bytes));
  expect_error "missing file" (Checkpoint.read (path ^ ".does-not-exist"))

(* ------------------------------------------------------------------ *)
(* Module snapshots                                                    *)

let test_rng_snapshot_resumes_stream () =
  let rng = Rng.create 0xfeedL in
  for _ = 1 to 17 do
    ignore (Rng.next rng)
  done;
  let snap = Rng.snapshot rng in
  let tail = List.init 10 (fun _ -> Rng.next rng) in
  Rng.restore rng snap;
  let replayed = List.init 10 (fun _ -> Rng.next rng) in
  check (Alcotest.list Alcotest.int64) "stream resumes at the cursor" tail replayed

let test_membership_midhandoff_snapshot () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:2 ()) in
  let v = System.spawn_vpe sys ~kernel:0 in
  let m = Kernel.membership (System.kernel sys 0) in
  let pe = v.Vpe.pe in
  let before = Membership.snapshot m in
  Membership.begin_handoff m ~pe;
  check Alcotest.bool "mark set" true (Membership.in_handoff m pe);
  (* a snapshot taken inside the window restores to the window *)
  let inside = Membership.snapshot m in
  Membership.complete_handoff m ~pe ~kernel:1;
  check Alcotest.bool "mark cleared" false (Membership.in_handoff m pe);
  check Alcotest.int "flipped to destination" 1 (Membership.kernel_of_pe m pe);
  Membership.restore m inside;
  check Alcotest.bool "window restored" true (Membership.in_handoff m pe);
  Membership.restore m before;
  check Alcotest.bool "pre-window restored" false (Membership.in_handoff m pe);
  check Alcotest.int "mapping restored" 0 (Membership.kernel_of_pe m pe)

(* Satellite: engine timer handles ride through a checkpoint. A handle
   inside the image aliases the recording engine's stamp; [rebind]
   re-stamps the restored engine so the handle is valid there — and
   only there. *)

type timer_root = {
  tr_engine : Engine.t;
  mutable tr_handle : Engine.handle option;
  mutable tr_fired : bool;
}

let handle_of r =
  match r.tr_handle with Some h -> h | None -> Alcotest.fail "no handle in image"

let test_engine_handle_rebind () =
  let root = { tr_engine = Engine.create (); tr_handle = None; tr_fired = false } in
  root.tr_handle <-
    Some (Engine.at_cancellable root.tr_engine 100L (fun () -> root.tr_fired <- true));
  let img = Checkpoint.save ~kind:"timer" root in
  let refused engine handle =
    try
      Engine.cancel engine handle;
      false
    with Invalid_argument _ -> true
  in
  (* a restored engine initially shares the recording engine's stamp;
     rebind separates the two identities *)
  (match Checkpoint.load ~kind:"timer" img with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (_, (copy : timer_root)) ->
      Engine.rebind copy.tr_engine;
      check Alcotest.bool "recording handle is foreign to the rebound engine" true
        (refused copy.tr_engine (handle_of root));
      check Alcotest.bool "restored handle is foreign to the recording engine" true
        (refused root.tr_engine (handle_of copy));
      (* the restored copy's own handle works: cancel silences the timer *)
      Engine.cancel copy.tr_engine (handle_of copy);
      ignore (Engine.run copy.tr_engine);
      check Alcotest.bool "cancelled timer stays quiet" false copy.tr_fired);
  (* an untouched restored copy still fires it *)
  match Checkpoint.load ~kind:"timer" img with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (_, (copy : timer_root)) ->
      Engine.rebind copy.tr_engine;
      ignore (Engine.run copy.tr_engine);
      check Alcotest.bool "timer fires on resume" true copy.tr_fired

(* A checkpoint taken while cancelled timers are still queued as
   tombstones and one cancellable timer is pending. The restored copy
   must walk its queue lists to their end, which only works if the list
   terminator travelled inside the image with them; cancelling the
   restored handle and draining must then match a run that was never
   checkpointed, event for event. *)

type tomb_root = {
  tb_engine : Engine.t;
  tb_log : (int * int64) list ref;
  tb_handle : Engine.handle;
}

let tomb_scenario () =
  let e = Engine.create () in
  let log = ref [] in
  let note i () = log := (i, Engine.now e) :: !log in
  List.iter (fun t -> Engine.at e (Int64.of_int t) (note t)) [ 10; 20; 30; 40 ];
  let dead =
    List.map (fun t -> Engine.at_cancellable e (Int64.of_int t) (note t)) [ 15; 25; 5_000 ]
  in
  let handle = Engine.at_cancellable e 35L (note 35) in
  List.iter (Engine.cancel e) dead;
  ignore (Engine.run ~until:12L e);
  { tb_engine = e; tb_log = log; tb_handle = handle }

(* Cancel the pending timer, hold at a bound short of the far tombstone,
   then drain; report what an observer sees. *)
let tomb_finish r =
  let e = r.tb_engine in
  Engine.cancel e r.tb_handle;
  ignore (Engine.run ~until:4_000L e);
  let held = Engine.now e in
  ignore (Engine.run e);
  (List.rev !(r.tb_log), held, Engine.now e, Engine.pending e, Engine.snapshot e)

let test_tombstones_survive_checkpoint () =
  let straight = tomb_scenario () in
  let saved = tomb_scenario () in
  check Alcotest.int "one live timer besides the plain events" 4 (Engine.pending saved.tb_engine);
  check Alcotest.int "three tombstones queued" 3 (Engine.snapshot saved.tb_engine).Engine.s_dead;
  let img = Checkpoint.save ~kind:"tombstones" saved in
  match Checkpoint.load ~kind:"tombstones" img with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (_, (copy : tomb_root)) ->
    Engine.rebind copy.tb_engine;
    check Alcotest.bool "restored snapshot equals the saved one" true
      (Engine.snapshot copy.tb_engine = Engine.snapshot saved.tb_engine);
    let log_a, held_a, clock_a, pending_a, snap_a = tomb_finish straight in
    let log_b, held_b, clock_b, pending_b, snap_b = tomb_finish copy in
    let fires = Alcotest.(list (pair int int64)) in
    check fires "uninterrupted fire order" [ (10, 10L); (20, 20L); (30, 30L); (40, 40L) ] log_a;
    check fires "restored fire order" log_a log_b;
    check Alcotest.int64 "the far tombstone holds the bounded clock" 4_000L held_a;
    check Alcotest.int64 "held clock" held_a held_b;
    check Alcotest.int64 "drained clock reaches the horizon" 5_000L clock_a;
    check Alcotest.int64 "drained clock" clock_a clock_b;
    check Alcotest.int "pending" pending_a pending_b;
    check Alcotest.bool "final snapshots agree" true (snap_a = snap_b)

(* ------------------------------------------------------------------ *)
(* Whole-system fingerprints                                           *)

let boot () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:4 ()) in
  let a = System.spawn_vpe sys ~kernel:0 in
  let b = System.spawn_vpe sys ~kernel:1 in
  let sel =
    match
      System.syscall_sync sys a (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw })
    with
    | Protocol.R_sel s -> s
    | r -> Alcotest.failf "alloc: %a" Protocol.pp_reply r
  in
  (sys, a, b, sel)

let test_fingerprint_equal_then_divergent () =
  let sys1, _, _, _ = boot () in
  let sys2, a2, b2, sel2 = boot () in
  check Alcotest.string "identical histories fingerprint alike"
    (System.fingerprint sys1) (System.fingerprint sys2);
  (match
     System.syscall_sync sys2 a2 (Protocol.Sys_delegate_to { recv_vpe = b2.Vpe.id; sel = sel2 })
   with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "delegate: %a" Protocol.pp_reply r);
  check Alcotest.bool "divergent histories fingerprint apart" false
    (String.equal (System.fingerprint sys1) (System.fingerprint sys2))

let test_system_snapshot_restore_in_place () =
  let sys, a, b, sel = boot () in
  let snap = System.snapshot sys in
  let fp = System.fingerprint sys in
  (* restoring onto the matching state is the identity *)
  System.restore sys snap;
  check Alcotest.string "restore onto itself is the identity" fp (System.fingerprint sys);
  (* snapshots are closure-free summaries: once the closure-bearing
     control planes moved on, an in-place restore is refused rather
     than silently wrong — rewinding goes through a whole-image
     checkpoint instead. The event queue itself drains back to the
     snapshot's (empty) shape, so the refusal is witnessed by the
     kernels' idempotency caches: the delegate's request and ack stay
     cached until a later message closes them, and no later message
     comes. *)
  (match
     System.syscall_sync sys a (Protocol.Sys_delegate_to { recv_vpe = b.Vpe.id; sel })
   with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "delegate: %a" Protocol.pp_reply r);
  check Alcotest.bool "mutated" false (String.equal fp (System.fingerprint sys));
  check Alcotest.bool "divergent control plane is refused" true
    (try
       System.restore sys snap;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Fuzz cases frozen mid-run                                           *)

let test_fuzz_midcase_roundtrip () =
  let finish_from st =
    while Fuzz.steps_done st < Fuzz.default_spec.Fuzz.ops do
      Fuzz.step st
    done;
    Fuzz.outcome_line (Fuzz.finish st)
  in
  let st = Fuzz.start ~workload_seed:7 ~fault_seed:1007 () in
  for _ = 1 to 10 do
    Fuzz.step st
  done;
  let img = Fuzz.save_state st in
  (match Checkpoint.header_of_bytes img with
  | Error e -> Alcotest.failf "header: %s" e
  | Ok h ->
      check Alcotest.string "kind" Fuzz.case_kind h.Checkpoint.kind;
      check Alcotest.int64 "position = ops executed" 10L h.Checkpoint.position);
  match Fuzz.load_state img with
  | Error e -> Alcotest.failf "load_state: %s" e
  | Ok (h, copy) ->
      check Alcotest.string "fingerprint reproduced" h.Checkpoint.fingerprint
        (System.fingerprint (Fuzz.state_system copy));
      let original = finish_from st in
      let resumed = finish_from copy in
      check Alcotest.string "resumed outcome is byte-identical" original resumed

let test_fuzz_checkpointing_is_transparent () =
  let plain = Fuzz.run_one ~workload_seed:7 ~fault_seed:1007 () in
  let seen = ref [] in
  let ckpt =
    Fuzz.run_one ~checkpoint_every:5
      ~on_checkpoint:(fun at _ -> seen := at :: !seen)
      ~workload_seed:7 ~fault_seed:1007 ()
  in
  check Alcotest.string "outcome unchanged by checkpointing"
    (Fuzz.outcome_line plain) (Fuzz.outcome_line ckpt);
  check (Alcotest.list Alcotest.int) "cadence respected"
    [ 0; 5; 10; 15; 20; 25; 30; 35 ] (List.rev !seen)

let test_fuzz_rejects_foreign_image () =
  let img = Checkpoint.save ~kind:"recording" ~label:"not a fuzz case" [ 1; 2; 3 ] in
  match Fuzz.load_state img with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a recording image must not load as a fuzz case"

(* ------------------------------------------------------------------ *)
(* Snapshots inside a migration handoff window                         *)

(* The root is one marshalable record: the migration-completion
   callback and the revoke reply continuation close over it, so a
   single image captures the whole scene mid-flight. *)
type handoff_root = {
  hr_sys : System.t;
  hr_a : Vpe.t;  (* revoker, kernel 0 *)
  hr_b : Vpe.t;  (* migrating VPE, kernel 1 -> 2 *)
  hr_sel : Protocol.selector;
  mutable hr_finished : bool;
  mutable hr_reply : Protocol.reply option;
}

let handoff_boot () =
  let sys = System.create (System.config ~kernels:3 ~user_pes_per_kernel:4 ()) in
  let a = System.spawn_vpe sys ~kernel:0 in
  let b = System.spawn_vpe sys ~kernel:1 in
  let sel =
    match
      System.syscall_sync sys a (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw })
    with
    | Protocol.R_sel s -> s
    | r -> Alcotest.failf "alloc: %a" Protocol.pp_reply r
  in
  (match System.syscall_sync sys a (Protocol.Sys_delegate_to { recv_vpe = b.Vpe.id; sel }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "delegate: %a" Protocol.pp_reply r);
  let r = { hr_sys = sys; hr_a = a; hr_b = b; hr_sel = sel; hr_finished = false; hr_reply = None } in
  Membership.reassign (System.membership sys) ~pe:b.Vpe.pe ~kernel:2;
  Kernel.migrate_vpe (System.kernel sys 1) ~vpe:b ~dst:2 (fun () -> r.hr_finished <- true);
  r

let window_live r =
  Membership.in_handoff (Kernel.membership (System.kernel r.hr_sys 1)) r.hr_b.Vpe.pe
  || Membership.in_handoff (Kernel.membership (System.kernel r.hr_sys 2)) r.hr_b.Vpe.pe

let run_cycles r n =
  ignore (System.run ~until:(Int64.add (System.now r.hr_sys) (Int64.of_int n)) r.hr_sys)

let assert_settled what r =
  check Alcotest.bool (what ^ ": migration finished") true r.hr_finished;
  check Alcotest.bool (what ^ ": no mark survives") false (window_live r);
  check Alcotest.int (what ^ ": b routed to kernel 2") 2
    (Membership.kernel_of_pe (Kernel.membership (System.kernel r.hr_sys 0)) r.hr_b.Vpe.pe);
  check Alcotest.bool (what ^ ": b unfrozen") false r.hr_b.Vpe.frozen;
  check (Alcotest.list Alcotest.string) (what ^ ": audit clean") []
    (Audit.run r.hr_sys).Audit.errors

let restore_root img =
  match Checkpoint.load ~kind:"handoff" img with
  | Error e -> Alcotest.failf "restore: %s" e
  | Ok (h, (copy : handoff_root)) ->
      System.rebind copy.hr_sys;
      check Alcotest.string "restored fingerprint matches the header"
        h.Checkpoint.fingerprint (System.fingerprint copy.hr_sys);
      copy

let test_midhandoff_snapshot_restores_frozen_vpe () =
  let r = handoff_boot () in
  (* land inside the handoff window: source and destination marks are
     both live ~1.1k cycles after the migration starts *)
  run_cycles r 1100;
  check Alcotest.bool "snapshot point is mid-window" true (window_live r);
  let frozen_at_snapshot = r.hr_b.Vpe.frozen in
  check Alcotest.bool "b is frozen mid-handoff" true frozen_at_snapshot;
  let img =
    Checkpoint.save ~kind:"handoff" ~label:"mid-window"
      ~fingerprint:(System.fingerprint r.hr_sys) r
  in
  let copy = restore_root img in
  check Alcotest.bool "window still live after restore" true (window_live copy);
  check Alcotest.bool "b still frozen after restore" true copy.hr_b.Vpe.frozen;
  ignore (System.run copy.hr_sys);
  assert_settled "resumed copy" copy;
  (* the original is untouched by the restore and settles identically *)
  ignore (System.run r.hr_sys);
  assert_settled "original" r;
  check Alcotest.string "drained states are byte-identical"
    (System.fingerprint r.hr_sys) (System.fingerprint copy.hr_sys)

let test_midhandoff_parked_revoke_completes_after_resume () =
  let r = handoff_boot () in
  (* revoke a cap whose child lives in b's partition while b's records
     are in flight: the mark wave hits the handoff window and the
     child's sweep is parked by defer_revoke_child *)
  System.syscall r.hr_sys r.hr_a
    (Protocol.Sys_revoke { sel = r.hr_sel; own = true })
    (fun rep -> r.hr_reply <- Some rep);
  run_cycles r 1100;
  check Alcotest.bool "snapshot point is mid-window" true (window_live r);
  check Alcotest.bool "revoke still parked at snapshot" true (r.hr_reply = None);
  let img =
    Checkpoint.save ~kind:"handoff" ~label:"parked-revoke"
      ~fingerprint:(System.fingerprint r.hr_sys) r
  in
  let copy = restore_root img in
  check Alcotest.bool "revoke still parked after restore" true (copy.hr_reply = None);
  ignore (System.run copy.hr_sys);
  assert_settled "resumed copy" copy;
  (match copy.hr_reply with
  | Some Protocol.R_ok -> ()
  | Some rep -> Alcotest.failf "parked revoke failed after resume: %a" Protocol.pp_reply rep
  | None -> Alcotest.fail "parked revoke never completed after resume");
  ignore (System.run r.hr_sys);
  assert_settled "original" r;
  check Alcotest.bool "original revoke also completed" true
    (r.hr_reply = Some Protocol.R_ok);
  check Alcotest.string "drained states are byte-identical"
    (System.fingerprint r.hr_sys) (System.fingerprint copy.hr_sys)

(* ------------------------------------------------------------------ *)
(* Snapshots inside a fleet join                                       *)

(* Same shape as the migration-window tests, but the in-flight machine
   is a whole [Fleet.join]: lifecycle broadcast acked, home-partition
   reclaim waves mid-flight. The image must capture the join exactly
   where it stood and resume it to the same final state as the
   original. *)
type join_root = {
  jr_sys : System.t;
  jr_vpes : Vpe.t list;
  mutable jr_joined : bool;
}

let test_midjoin_snapshot_resumes_byte_identically () =
  let sys =
    System.create (System.config ~kernels:2 ~spare_kernels:1 ~user_pes_per_kernel:4 ())
  in
  let vpes = List.map (fun k -> System.spawn_vpe sys ~kernel:k) [ 0; 0; 0; 1; 1; 1 ] in
  List.iter
    (fun v ->
      match
        System.syscall_sync sys v (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw })
      with
      | Protocol.R_sel _ -> ()
      | rep -> Alcotest.failf "alloc: %a" Protocol.pp_reply rep)
    vpes;
  let r = { jr_sys = sys; jr_vpes = vpes; jr_joined = false } in
  Fleet.join sys ~kernel:2 (fun () -> r.jr_joined <- true);
  (* land inside a reclaim wave: some replica holds a mid-handoff mark
     while the join is still running *)
  let wave_live r =
    List.exists
      (fun k ->
        let m = Kernel.membership k in
        List.exists (Membership.in_handoff m)
          (List.init (System.pe_count r.jr_sys) Fun.id))
      (System.kernels r.jr_sys)
  in
  let steps = ref 0 in
  while not (wave_live r) && not r.jr_joined && !steps < 10_000 do
    incr steps;
    ignore
      (System.run ~until:(Int64.add (System.now r.jr_sys) 100L) r.jr_sys)
  done;
  check Alcotest.bool "snapshot point is mid-join" true (wave_live r && not r.jr_joined);
  check Alcotest.bool "joiner announced on some replica" true
    (List.exists
       (fun k -> Membership.kernel_state (Kernel.membership k) 2 = Membership.Joining)
       (System.kernels r.jr_sys));
  let img =
    Checkpoint.save ~kind:"fleet-join" ~label:"mid-join"
      ~fingerprint:(System.fingerprint r.jr_sys) r
  in
  let copy =
    match Checkpoint.load ~kind:"fleet-join" img with
    | Error e -> Alcotest.failf "restore: %s" e
    | Ok (h, (copy : join_root)) ->
        System.rebind copy.jr_sys;
        check Alcotest.string "restored fingerprint matches the header"
          h.Checkpoint.fingerprint (System.fingerprint copy.jr_sys);
        copy
  in
  check Alcotest.bool "join still in flight after restore" false copy.jr_joined;
  check Alcotest.bool "reclaim wave still live after restore" true (wave_live copy);
  let settle what r =
    ignore (System.run r.jr_sys);
    check Alcotest.bool (what ^ ": join finished") true r.jr_joined;
    check Alcotest.bool (what ^ ": active on every replica") true
      (List.for_all
         (fun k -> Membership.kernel_state (Kernel.membership k) 2 = Membership.Active)
         (System.kernels r.jr_sys));
    check Alcotest.bool (what ^ ": no mark survives") false (wave_live r);
    Audit.check r.jr_sys
  in
  settle "resumed copy" copy;
  settle "original" r;
  check Alcotest.string "joined states are byte-identical"
    (System.fingerprint r.jr_sys) (System.fingerprint copy.jr_sys)

let suite =
  [
    Alcotest.test_case "image round-trip preserves header and payload" `Quick
      test_image_roundtrip;
    Alcotest.test_case "version mismatch is rejected" `Quick test_version_mismatch_rejected;
    Alcotest.test_case "kind mismatch is rejected" `Quick test_kind_mismatch_rejected;
    Alcotest.test_case "corrupt payload is rejected" `Quick test_corrupt_payload_rejected;
    Alcotest.test_case "garbage and truncated images are rejected" `Quick
      test_garbage_rejected;
    Alcotest.test_case "file write/read round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "rng snapshot resumes the stream" `Quick
      test_rng_snapshot_resumes_stream;
    Alcotest.test_case "membership snapshot keeps the handoff window" `Quick
      test_membership_midhandoff_snapshot;
    Alcotest.test_case "engine handles survive restore via rebind" `Quick
      test_engine_handle_rebind;
    Alcotest.test_case "queued tombstones survive a checkpoint" `Quick
      test_tombstones_survive_checkpoint;
    Alcotest.test_case "fingerprints: equal histories alike, divergent apart" `Quick
      test_fingerprint_equal_then_divergent;
    Alcotest.test_case "system snapshot restores in place" `Quick
      test_system_snapshot_restore_in_place;
    Alcotest.test_case "fuzz case frozen mid-run resumes byte-identically" `Quick
      test_fuzz_midcase_roundtrip;
    Alcotest.test_case "fuzz checkpointing does not perturb the run" `Quick
      test_fuzz_checkpointing_is_transparent;
    Alcotest.test_case "fuzz rejects images of another kind" `Quick
      test_fuzz_rejects_foreign_image;
    Alcotest.test_case "mid-handoff snapshot restores the frozen VPE" `Quick
      test_midhandoff_snapshot_restores_frozen_vpe;
    Alcotest.test_case "parked revoke completes after resume" `Quick
      test_midhandoff_parked_revoke_completes_after_resume;
    Alcotest.test_case "mid-join snapshot resumes byte-identically" `Quick
      test_midjoin_snapshot_resumes_byte_identically;
  ]
