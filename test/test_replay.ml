(* The replay-driven regression suite: shrunk corpus cases keep their
   oracle verdicts, recorded figure runs replay byte-identically from
   any checkpoint at any job count, and the shrinker is deterministic
   and actually shrinks. *)

open Semperos

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)

(* [dune runtest] runs the suite from test/; [dune exec] from the
   project root. *)
let corpus_dir =
  match List.find_opt Sys.file_exists [ "corpus"; "test/corpus" ] with
  | Some dir -> dir
  | None -> "corpus"

let corpus_cases () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".case")
  |> List.sort String.compare
  |> List.map (fun f -> Filename.concat corpus_dir f)

let test_corpus_is_populated () =
  check Alcotest.bool "at least two shrunk counterexamples" true
    (List.length (corpus_cases ()) >= 2)

let test_corpus_verdicts_are_stable () =
  List.iter
    (fun path ->
      match Fuzz.Case.load path with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok case -> (
          match Fuzz.Case.check case with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: %s" path e))
    (corpus_cases ())

let test_corpus_cases_are_minimal () =
  (* a shrunk case keeps failing, and dropping its last op makes it
     pass — the stored prefix length really is the 1-minimal one *)
  List.iter
    (fun path ->
      match Fuzz.Case.load path with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok case ->
          let shorter =
            { case.Fuzz.Case.spec with Fuzz.ops = case.Fuzz.Case.spec.Fuzz.ops - 1 }
          in
          let outcome =
            Fuzz.run_one ~spec:shorter ~workload_seed:case.Fuzz.Case.workload_seed
              ~fault_seed:case.Fuzz.Case.fault_seed ()
          in
          check Alcotest.bool
            (path ^ ": one op shorter passes")
            true (outcome.Fuzz.failures = []))
    (corpus_cases ())

let test_case_string_roundtrip () =
  let case =
    {
      Fuzz.Case.name = "roundtrip";
      spec = Fuzz.spec ~kernels:4 ~vpes:9 ~ops:17 ~delay:false ~stall:false ~retry:false ();
      workload_seed = 123;
      fault_seed = 9876;
      expect = [ "audit"; "teardown" ];
    }
  in
  match Fuzz.Case.of_string (Fuzz.Case.to_string case) with
  | Error e -> Alcotest.failf "of_string: %s" e
  | Ok back ->
      check Alcotest.bool "round-trips structurally" true (back = case);
      check Alcotest.string "serialisation is stable" (Fuzz.Case.to_string case)
        (Fuzz.Case.to_string back)

let test_case_rejects_garbage () =
  (match Fuzz.Case.of_string "not a case file" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing tag accepted");
  match Fuzz.Case.of_string "semperos-fuzz-case 99\nname x\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future format version accepted"

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let failing_spec = Fuzz.spec ~delay:false ~dup:false ~stall:false ~retry:false ()

let test_shrink_reduces_and_reproduces () =
  match Fuzz.shrink ~spec:failing_spec ~workload_seed:2 ~fault_seed:1002 () with
  | Error e -> Alcotest.failf "shrink: %s" e
  | Ok r ->
      check Alcotest.bool "original failed" true (r.Fuzz.sh_original.Fuzz.failures <> []);
      check Alcotest.bool "minimal still fails" true (r.Fuzz.sh_minimal.Fuzz.failures <> []);
      check Alcotest.bool "at least halves the op count" true
        (2 * r.Fuzz.sh_min_ops <= failing_spec.Fuzz.ops);
      check Alcotest.bool "checkpoints saved replay work" true (r.Fuzz.sh_saved_ops > 0);
      (* the minimal prefix replayed from scratch — never from a
         checkpoint — reproduces the shrunk outcome byte-for-byte *)
      let direct =
        Fuzz.run_one
          ~spec:{ failing_spec with Fuzz.ops = r.Fuzz.sh_min_ops }
          ~workload_seed:2 ~fault_seed:1002 ()
      in
      check Alcotest.string "minimal outcome reproduces from scratch"
        (Fuzz.outcome_line r.Fuzz.sh_minimal) (Fuzz.outcome_line direct)

let test_shrink_is_deterministic () =
  let run () =
    match Fuzz.shrink ~spec:failing_spec ~workload_seed:8 ~fault_seed:1008 () with
    | Error e -> Alcotest.failf "shrink: %s" e
    | Ok r -> (r.Fuzz.sh_min_ops, Fuzz.outcome_line r.Fuzz.sh_minimal, r.Fuzz.sh_probes)
  in
  let ops1, line1, probes1 = run () in
  let ops2, line2, probes2 = run () in
  check Alcotest.int "same minimal length" ops1 ops2;
  check Alcotest.string "same minimal outcome" line1 line2;
  check Alcotest.int "same probe count" probes1 probes2;
  (* a coarser checkpoint cadence changes the replay cost, not the
     minimal case *)
  match Fuzz.shrink ~spec:failing_spec ~checkpoint_every:1 ~workload_seed:8 ~fault_seed:1008 () with
  | Error e -> Alcotest.failf "shrink: %s" e
  | Ok r ->
      check Alcotest.int "cadence does not move the minimum" ops1 r.Fuzz.sh_min_ops;
      check Alcotest.string "cadence does not change the outcome" line1
        (Fuzz.outcome_line r.Fuzz.sh_minimal)

let test_shrink_refuses_passing_case () =
  match Fuzz.shrink ~workload_seed:7 ~fault_seed:1007 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shrinking a passing case must be an error"

(* ------------------------------------------------------------------ *)
(* Recorded figure runs                                                *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let path = Filename.temp_file "semperos-rec" "" in
    Sys.remove path;
    path ^ Printf.sprintf "-%d" !n

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let entry name =
  match Bench.find name with
  | Some e -> e
  | None -> Alcotest.failf "%s is not registered" name

let fig4 = entry "fig4"

let output_equal what (a : Entry.output) (b : Entry.output) =
  check Alcotest.string (what ^ ": text byte-identical") a.Entry.text b.Entry.text;
  check Alcotest.string (what ^ ": json byte-identical")
    (Obs.Json.to_string a.Entry.json)
    (Obs.Json.to_string b.Entry.json)

let test_record_replay_byte_identical () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let recorded = Record.record ~jobs:1 ~every:2 ~dir fig4 Entry.Smoke in
      let reference = Entry.run ~jobs:1 fig4 Entry.Smoke in
      output_equal "record matches the uninterrupted run" recorded reference;
      let total =
        match Record.read_manifest dir with
        | Ok m -> m.Record.m_total
        | Error e -> Alcotest.failf "manifest: %s" e
      in
      check Alcotest.bool "smoke run has several points" true (total >= 4);
      (* resume from every position (and past the end), serial and
         parallel: all byte-identical to the uninterrupted output *)
      List.iter
        (fun jobs ->
          for from_ = 0 to total + 1 do
            match Record.replay ~jobs ~dir ~from_ () with
            | Error e -> Alcotest.failf "replay --from %d: %s" from_ e
            | Ok (resumed_at, out) ->
                check Alcotest.bool "resumed at a recorded prefix" true
                  (resumed_at >= 0 && resumed_at <= total && resumed_at <= from_);
                output_equal
                  (Printf.sprintf "replay --jobs %d --from %d" jobs from_)
                  out reference
          done)
        [ 1; 4 ])

let test_record_replay_fig6 () =
  let fig6 = entry "fig6" in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let recorded = Record.record ~jobs:1 ~every:1 ~dir fig6 Entry.Smoke in
      let reference = Entry.run ~jobs:4 fig6 Entry.Smoke in
      output_equal "serial record matches the parallel run" recorded reference;
      List.iter
        (fun (jobs, from_) ->
          match Record.replay ~jobs ~dir ~from_ () with
          | Error e -> Alcotest.failf "fig6 replay --from %d: %s" from_ e
          | Ok (_, out) ->
              output_equal
                (Printf.sprintf "fig6 replay --jobs %d --from %d" jobs from_)
                out reference)
        [ (1, 0); (1, 1); (4, 1); (4, max_int) ])

(* The fuzz smoke's chaos-profile sweep: the fan-out is
   jobs-insensitive, and any case of the sweep frozen mid-run resumes
   to the outcome the sweep reports. *)
let test_fuzz_smoke_roundtrip_any_jobs () =
  let runs = 8 in
  let serial = Fuzz.run_many ~jobs:1 ~workload_seed:1 ~fault_seed:1_001 ~runs () in
  let parallel = Fuzz.run_many ~jobs:4 ~workload_seed:1 ~fault_seed:1_001 ~runs () in
  check
    (Alcotest.list Alcotest.string)
    "sweep outcomes identical at --jobs 1 and --jobs 4"
    (List.map Fuzz.outcome_line serial)
    (List.map Fuzz.outcome_line parallel);
  List.iteri
    (fun i reference ->
      let image = ref None in
      ignore
        (Fuzz.run_one ~checkpoint_every:20
           ~on_checkpoint:(fun at img -> if at = 20 then image := Some img)
           ~workload_seed:(1 + i) ~fault_seed:(1_001 + i) ());
      match !image with
      | None -> Alcotest.failf "seed %d: no checkpoint at op 20" (1 + i)
      | Some img -> (
          match Fuzz.load_state img with
          | Error e -> Alcotest.failf "seed %d: %s" (1 + i) e
          | Ok (_, st) ->
              while Fuzz.steps_done st < Fuzz.default_spec.Fuzz.ops do
                Fuzz.step st
              done;
              check Alcotest.string
                (Printf.sprintf "seed %d resumes to the sweep's outcome" (1 + i))
                (Fuzz.outcome_line reference)
                (Fuzz.outcome_line (Fuzz.finish st))))
    serial

let test_replay_survives_a_missing_checkpoint () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let recorded = Record.record ~jobs:1 ~every:2 ~dir fig4 Entry.Smoke in
      (* deleting an image only costs recompute: replay falls back to
         the previous checkpoint boundary *)
      let victim = Filename.concat dir "ckpt-4.img" in
      check Alcotest.bool "expected image exists" true (Sys.file_exists victim);
      Sys.remove victim;
      match Record.replay ~jobs:1 ~dir ~from_:4 () with
      | Error e -> Alcotest.failf "replay after deletion: %s" e
      | Ok (resumed_at, out) ->
          check Alcotest.bool "fell back below the deleted image" true (resumed_at < 4);
          output_equal "fallback output" out recorded)

let test_replay_rejects_a_corrupt_checkpoint () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      ignore (Record.record ~jobs:1 ~every:2 ~dir fig4 Entry.Smoke);
      (* a present-but-unreadable image is a hard error, never a
         silent recompute *)
      let victim = Filename.concat dir "ckpt-4.img" in
      let oc = open_out_bin victim in
      output_string oc "SEMCKPT1 but truncated garbage";
      close_out oc;
      match Record.replay ~jobs:1 ~dir ~from_:4 () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt image must fail the replay")

(* An image of other points is stale, not a prefix to resume: fig4's
   Full and Smoke runs write images of the same kind at the same
   positions, but their fourth point has a different chain length. *)
let test_replay_rejects_foreign_points () =
  let full = fresh_dir () and smoke = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf full;
      rm_rf smoke)
    (fun () ->
      ignore (Record.record ~jobs:1 ~every:2 ~dir:full fig4 Entry.Full);
      ignore (Record.record ~jobs:1 ~every:2 ~dir:smoke fig4 Entry.Smoke);
      let image =
        In_channel.with_open_bin (Filename.concat full "ckpt-4.img") In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat smoke "ckpt-4.img") (fun oc ->
          output_string oc image);
      match Record.replay ~jobs:1 ~dir:smoke ~from_:4 () with
      | Error e ->
        check Alcotest.bool ("asks for a re-record: " ^ e) true (Str_contains.contains e "re-record")
      | Ok _ -> Alcotest.fail "an image of another preset's points must fail the replay")

let test_replay_requires_a_recording () =
  match Record.replay ~dir:(fresh_dir ()) ~from_:0 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay without a manifest must fail"

let suite =
  [
    Alcotest.test_case "corpus holds shrunk counterexamples" `Quick test_corpus_is_populated;
    Alcotest.test_case "corpus verdicts are stable" `Quick test_corpus_verdicts_are_stable;
    Alcotest.test_case "corpus cases are 1-minimal" `Quick test_corpus_cases_are_minimal;
    Alcotest.test_case "case files round-trip" `Quick test_case_string_roundtrip;
    Alcotest.test_case "case files reject garbage" `Quick test_case_rejects_garbage;
    Alcotest.test_case "shrink halves the case and reproduces it" `Quick
      test_shrink_reduces_and_reproduces;
    Alcotest.test_case "shrink is deterministic" `Quick test_shrink_is_deterministic;
    Alcotest.test_case "shrink refuses a passing case" `Quick test_shrink_refuses_passing_case;
    Alcotest.test_case "record/replay is byte-identical at any --from and --jobs" `Quick
      test_record_replay_byte_identical;
    Alcotest.test_case "fig6 record/replay is byte-identical" `Slow test_record_replay_fig6;
    Alcotest.test_case "fuzz smoke round-trips at any --jobs" `Slow
      test_fuzz_smoke_roundtrip_any_jobs;
    Alcotest.test_case "replay survives a deleted checkpoint" `Quick
      test_replay_survives_a_missing_checkpoint;
    Alcotest.test_case "replay rejects a corrupt checkpoint" `Quick
      test_replay_rejects_a_corrupt_checkpoint;
    Alcotest.test_case "replay rejects an image of other points" `Quick
      test_replay_rejects_foreign_points;
    Alcotest.test_case "replay requires a recording" `Quick test_replay_requires_a_recording;
  ]
