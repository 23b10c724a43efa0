(* Smoke gate for the engine event-queue microbenchmark, run from
   the [engine-smoke] dune alias (hooked into [dune runtest]). Runs
   the scaled-down preset and asserts only that it completes with a
   sample per (size, op) cell and emits valid, well-shaped
   JSON — never a timing threshold, so CI stays deterministic on any
   host. *)

open Semperos

let failed = ref false

let check name ok =
  if not ok then begin
    failed := true;
    Printf.printf "FAILED: %s\n" name
  end

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let () =
  let ss = Enginebench.samples ~preset:Enginebench.Smoke () in
  (* 2 sizes x 3 ops *)
  check "every cell measured" (List.length ss = 6);
  let open Enginebench in
  List.iter
    (fun op ->
      check
        (Printf.sprintf "%s measured at both sizes" op)
        (List.length (List.filter (fun s -> s.s_op = op) ss) = 2))
    [ "schedule"; "cancel"; "drain" ];
  List.iter
    (fun s ->
      let name = Printf.sprintf "%s/%d" s.s_op s.s_pending in
      check (name ^ ": wall time is non-negative") (s.s_wall_s >= 0.0);
      check (name ^ ": throughput is non-negative") (s.s_ops_per_s >= 0.0))
    ss;
  let doc = Obs.Json.to_string (Enginebench.json ss) in
  (match Obs.Json.parse doc with
  | Ok _ -> ()
  | Error e -> check (Printf.sprintf "report is valid JSON (%s)" e) false);
  check "report names the schema" (contains doc "\"schema\":\"semperos-engine-1\"");
  List.iter
    (fun key -> check (Printf.sprintf "report has %s" key) (contains doc key))
    [ "\"backend\""; "\"op\""; "\"pending\""; "\"wall_s\""; "\"ops_per_s\"" ];
  if !failed then exit 1;
  print_endline "engine-smoke: OK"
