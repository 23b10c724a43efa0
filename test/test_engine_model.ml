(* Model-based differential test of the engine's event queue against
   the binary-heap oracle (Heap_engine), the queue every committed
   figure was first recorded under. A fixed-seed loop runs random
   operations — schedule (plain and cancellable, with heavy same-time
   collision and occasional far-future times that force wheel
   cascades), cancel (pending, fired, double), bounded and unbounded
   runs — against both in lockstep, asserting after every step that
   fire order, fire times, clocks, the pending/processed/cancelled
   counters, and the queued and tombstone counts agree. Equal queued
   counts mean the engine's tombstones and compactions happen exactly
   where the heap's dead slots and compactions do. Mirrors the
   test_mapdb_model.ml pattern. *)

open Semperos

let check = Alcotest.check

(* One queue plus the log of events it fired: (tag, fire time). Tags
   are the scheduling sequence [drive] assigns, so equal logs mean
   equal order, not just equal multisets. *)
type ('q, 'h) side = {
  q : 'q;
  log : (int * int64) list ref;
  mutable handles : (int * 'h) list;  (* cancellables, newest first *)
  mutable compactions : int;
}

let side q = { q; log = ref []; handles = []; compactions = 0 }

let agree step what fmt_a a b =
  if a <> b then
    Alcotest.failf "step %d: %s diverges: heap %s, engine %s" step what (fmt_a a) (fmt_a b)

let agree_on_exn step what f g =
  let run h =
    match h () with
    | x -> Ok x
    | exception Invalid_argument m -> Error m
  in
  let a = run f and b = run g in
  (match (a, b) with
  | Ok _, Ok _ | Error _, Error _ -> ()
  | Ok _, Error m -> Alcotest.failf "step %d: %s: only the engine raised (%s)" step what m
  | Error m, Ok _ -> Alcotest.failf "step %d: %s: only the heap raised (%s)" step what m);
  (a, b)

let queued e = (Engine.snapshot e).Engine.s_queued

let observe step h w =
  agree step "fire log"
    (fun l ->
      String.concat ";" (List.map (fun (i, t) -> Printf.sprintf "%d@%Ld" i t) (List.rev l)))
    !(h.log) !(w.log);
  agree step "clock" Int64.to_string (Heap_engine.now h.q) (Engine.now w.q);
  agree step "pending" string_of_int (Heap_engine.pending h.q) (Engine.pending w.q);
  agree step "queued" string_of_int (Heap_engine.queued h.q) (queued w.q);
  agree step "tombstones" string_of_int (Heap_engine.dead h.q) (Engine.snapshot w.q).Engine.s_dead;
  agree step "processed" string_of_int
    (Heap_engine.events_processed h.q)
    (Engine.events_processed w.q);
  agree step "cancelled" string_of_int
    (Heap_engine.events_cancelled h.q)
    (Engine.events_cancelled w.q);
  agree step "compactions" string_of_int h.compactions w.compactions

(* What a script asks [drive] to do next. *)
type op =
  | Plain of int64  (** [after] with this delay *)
  | Cancellable of int64  (** [after_cancellable], handle retained *)
  | Cancel of { pick : int; twice : bool }  (** a retained handle, by index *)
  | Bounded of int64  (** [run ~until:(now + ahead)] *)
  | Drain

(* The general script: clustered delays force same-time collisions,
   occasional huge ones force cascades across wheel levels, and the
   far-future cancellable timer reproduces a cancelled retry timer
   extending the horizon past later bounded runs, where its tombstone
   must hold the clock back on both sides. Bounded-run limits land
   behind the clock, at it, and past it. *)
let mixed rng ~retained =
  match Random.State.int rng 100 with
  | n when n < 40 ->
    Plain
      (match Random.State.int rng 10 with
      | 0 -> 0L
      | 9 -> Int64.of_int (1 + Random.State.int rng 3_000_000)
      | _ -> Int64.of_int (Random.State.int rng 40))
  | n when n < 65 ->
    Cancellable
      (match Random.State.int rng 8 with
      | 0 -> Int64.of_int (1 + Random.State.int rng 3_000_000)
      | _ -> Int64.of_int (Random.State.int rng 200))
  | n when n < 85 ->
    Cancel
      { pick = Random.State.int rng (max 1 retained); twice = Random.State.int rng 4 = 0 }
  | n when n < 95 -> Bounded (Int64.of_int (Random.State.int rng 300 - 20))
  | _ -> Drain

(* The compaction script: mostly far-future cancellable timers, most of
   them cancelled, short bounded runs and no drains, so the queue stays
   at least 64 deep while tombstones pile up beyond every run's limit
   until more than half the queue is dead and compaction fires. *)
let mass_cancel rng ~retained =
  match Random.State.int rng 100 with
  | n when n < 35 ->
    Cancellable
      (if Random.State.int rng 10 < 7 then Int64.of_int (1_000 + Random.State.int rng 3_000_000)
       else Int64.of_int (Random.State.int rng 200))
  | n when n < 80 ->
    Cancel
      { pick = Random.State.int rng (max 1 (min retained 64)); twice = Random.State.int rng 8 = 0 }
  | n when n < 88 -> Plain (Int64.of_int (Random.State.int rng 200))
  | _ -> Bounded (Int64.of_int (Random.State.int rng 300))

(* Per-run tallies a script can assert on. *)
type tally = { mutable held_bounded : int }

let drive ~script ~seed ~steps =
  let rng = Random.State.make [| seed |] in
  let h = side (Heap_engine.create ()) in
  let w = side (Engine.create ()) in
  let tally = { held_bounded = 0 } in
  let tag = ref 0 in
  let note log now i () = log := (i, now ()) :: !log in
  for step = 1 to steps do
    (match script rng ~retained:(List.length h.handles) with
    | Plain delay ->
      let i = !tag in
      incr tag;
      Heap_engine.after h.q delay (note h.log (fun () -> Heap_engine.now h.q) i);
      Engine.after w.q delay (note w.log (fun () -> Engine.now w.q) i)
    | Cancellable delay ->
      let i = !tag in
      incr tag;
      let hh =
        Heap_engine.after_cancellable h.q delay (note h.log (fun () -> Heap_engine.now h.q) i)
      in
      let wh = Engine.after_cancellable w.q delay (note w.log (fun () -> Engine.now w.q) i) in
      h.handles <- (i, hh) :: h.handles;
      w.handles <- (i, wh) :: w.handles
    | Cancel { pick; twice } -> (
      match List.nth_opt h.handles pick with
      | None -> ()
      | Some (i, hh) ->
        let wh = List.assoc i w.handles in
        let hq = Heap_engine.queued h.q and wq = queued w.q in
        ignore
          (agree_on_exn step "cancel"
             (fun () ->
               Heap_engine.cancel h.q hh;
               if twice then Heap_engine.cancel h.q hh)
             (fun () ->
               Engine.cancel w.q wh;
               if twice then Engine.cancel w.q wh));
        (* A cancel only ever shrinks the queue by compacting it. *)
        if Heap_engine.queued h.q < hq then h.compactions <- h.compactions + 1;
        if queued w.q < wq then w.compactions <- w.compactions + 1)
    | Bounded ahead ->
      let limit = Int64.add (Heap_engine.now h.q) ahead in
      let a, b =
        agree_on_exn step "bounded run"
          (fun () -> Heap_engine.run ~until:limit h.q)
          (fun () -> Engine.run ~until:limit w.q)
      in
      agree step "bounded run count" (function Ok n -> string_of_int n | Error m -> m) a b;
      if Engine.now w.q = limit && (Engine.snapshot w.q).Engine.s_dead > 0 then
        tally.held_bounded <- tally.held_bounded + 1
    | Drain ->
      let a, b =
        agree_on_exn step "drain" (fun () -> Heap_engine.run h.q) (fun () -> Engine.run w.q)
      in
      agree step "drain count" (function Ok n -> string_of_int n | Error m -> m) a b);
    observe step h w
  done;
  (* final drain: every queue empties to the same place *)
  ignore (Heap_engine.run h.q);
  ignore (Engine.run w.q);
  observe (steps + 1) h w;
  check Alcotest.int "heap drained" 0 (Heap_engine.queued h.q);
  check Alcotest.int "engine drained" 0 (queued w.q);
  (h, w, tally)

let test_seed seed () = ignore (drive ~script:mixed ~seed ~steps:800)

let test_compaction seed () =
  let h, w, tally = drive ~script:mass_cancel ~seed ~steps:2000 in
  check Alcotest.bool "the heap compacted" true (h.compactions > 0);
  check Alcotest.bool "the engine compacted" true (w.compactions > 0);
  check Alcotest.bool "bounded runs stopped with tombstones beyond the limit" true
    (tally.held_bounded > 0)

let suite =
  [
    Alcotest.test_case "wheel matches heap oracle (seed 0xfeed)" `Quick (test_seed 0xfeed);
    Alcotest.test_case "wheel matches heap oracle (seed 0xbeef)" `Quick (test_seed 0xbeef);
    Alcotest.test_case "wheel matches heap oracle (seed 0xcafe)" `Quick (test_seed 0xcafe);
    Alcotest.test_case "compaction matches heap (seed 0xd00d)" `Quick
      (test_compaction 0xd00d);
    Alcotest.test_case "compaction matches heap (seed 0xf00d)" `Quick
      (test_compaction 0xf00d);
  ]
