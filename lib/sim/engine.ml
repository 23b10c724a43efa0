module Obs = Semper_obs.Obs

(* One record per event is at once the queued item, its cell in a
   hierarchical timer wheel and, for cancellable events, the [handle].

   The wheel: level l has 32 slots of 32^l ticks, 13 levels cover the
   63-bit [int] range. An event for time T under cursor C lives at the
   lowest level whose slot span holds both (the smallest l with
   T lsr 5(l+1) = C lsr 5(l+1)), in slot (T lsr 5l) land 31. Each slot
   is a singly-linked FIFO list with head and tail arrays; a level-0
   slot holds events of one time only, so FIFO order is scheduling
   order and no per-event sequence number is needed. Per-level 32-bit
   occupancy bitmaps find the next occupied slot with a mask and a
   count-trailing-zeros. Crossing into a higher-level slot's span
   cascades its list front to back into lower slots that are empty at
   that moment, which keeps the order.

   Cancel is lazy, as in the binary heap the engine once used: it marks
   the event a tombstone, [run] drops the tombstone when it comes due,
   and the queue compacts under the heap's rule (at least 64 queued,
   more than half dead). The queue therefore holds exactly what that
   heap held, and the drained clock — which only catches up to the
   scheduling horizon once the queue, tombstones included, is empty —
   is the heap's by construction. *)

type state = Pending | Fired | Cancelled

(* [owner] ties a pending event to the engine instance that scheduled it,
   so [cancel] can reject a handle from another engine (or from a
   pre-restore life of this one). *)
type event = {
  time : int;
  mutable run : unit -> unit;
  mutable next : event;
  mutable state : state;
  mutable owner : int;
}

type handle = event

let bits = 5
let slot_mask = (1 lsl bits) - 1
let levels = 13

type t = {
  mutable uid : int;
  mutable clock : int;
  (* Events ever scheduled: the checkpoint guard in [restore]. *)
  mutable scheduled : int;
  mutable processed : int;
  (* Queued events, tombstones included, and the tombstones alone. *)
  mutable len : int;
  mutable dead : int;
  (* Latest time ever scheduled, cancelled or not. A drained queue
     advances the clock here, where the seed engine's last no-op pop
     left it, so post-drain clocks stay byte-identical. *)
  mutable horizon : int;
  mutable cancelled : int;
  (* Largest live occupancy; tombstones are not counted. *)
  mutable heap_peak : int;
  (* High-water marks already pushed into [Totals]. *)
  mutable flushed_processed : int;
  mutable flushed_cancelled : int;
  (* The wheel cursor: behind every queued time, and at or behind the
     clock whenever a caller can schedule. *)
  mutable cur : int;
  (* Slot lists, indexed [level * 32 + slot], and per-level occupancy
     bitmaps. *)
  head : event array;
  tail : event array;
  occ : int array;
  (* List terminator. Engine-owned, so it travels inside checkpoint
     images and stays physically equal to the one the lists end in. *)
  nil : event;
  ctr_cancelled : Obs.Registry.counter option;
}

(* Process-wide totals across every engine, for wall-clock benchmarking
   of the simulator itself (the per-run registries die with their
   systems, and sweeps fan systems out across domains — hence atomics).
   Flushed from the per-engine fields at the end of each [run] call,
   not per event. *)
module Totals = struct
  let processed_a = Atomic.make 0
  let cancelled_a = Atomic.make 0
  let heap_peak_a = Atomic.make 0

  let processed () = Atomic.get processed_a
  let cancelled () = Atomic.get cancelled_a
  let heap_peak () = Atomic.get heap_peak_a
  let reset_heap_peak () = Atomic.set heap_peak_a 0

  let add a n = if n > 0 then ignore (Atomic.fetch_and_add a n)

  let rec max_to a n =
    let cur = Atomic.get a in
    if n > cur && not (Atomic.compare_and_set a cur n) then max_to a n
end

(* Engine instance ids. Atomic because sweeps create engines on many
   domains at once; the ids only need to be distinct, not dense. *)
let next_uid = Atomic.make 0

let create ?obs () =
  let rec nil = { time = -1; run = ignore; next = nil; state = Fired; owner = -1 } in
  let ctr_cancelled = Option.map (fun r -> Obs.Registry.counter r "engine.events_cancelled") obs in
  let t =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      clock = 0;
      scheduled = 0;
      processed = 0;
      len = 0;
      dead = 0;
      horizon = 0;
      cancelled = 0;
      heap_peak = 0;
      flushed_processed = 0;
      flushed_cancelled = 0;
      cur = 0;
      head = Array.make (levels lsl bits) nil;
      tail = Array.make (levels lsl bits) nil;
      occ = Array.make levels 0;
      nil;
      ctr_cancelled;
    }
  in
  Option.iter
    (fun r -> Obs.Registry.gauge r "engine.heap_peak" (fun () -> float_of_int t.heap_peak))
    obs;
  t

let now t = Int64.of_int t.clock

(* Count trailing zeros of a non-zero value below 2^32. *)
let ctz32 x =
  let n = ref 0 and x = ref x in
  if !x land 0xffff = 0 then (n := !n + 16; x := !x lsr 16);
  if !x land 0xff = 0 then (n := !n + 8; x := !x lsr 8);
  if !x land 0xf = 0 then (n := !n + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (n := !n + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then n := !n + 1;
  !n

(* Append [ev] (whose [next] is [nil]) to its slot under the cursor. *)
let link t ev =
  let x = ref (ev.time lxor t.cur) and level = ref 0 in
  while !x > slot_mask do
    x := !x lsr bits;
    incr level
  done;
  let level = !level in
  let slot = (ev.time lsr (bits * level)) land slot_mask in
  let i = (level lsl bits) lor slot in
  let last = t.tail.(i) in
  if last == t.nil then begin
    t.head.(i) <- ev;
    t.occ.(level) <- t.occ.(level) lor (1 lsl slot)
  end
  else last.next <- ev;
  t.tail.(i) <- ev

(* Detach the list of slot [i] and link each event [keep] accepts back
   in, in order, wherever the cursor now puts it. A cascade (the cursor
   has just entered the slot's span) moves every event strictly lower,
   into slots that are empty at that moment; a compaction (the cursor
   has not) puts each survivor back in the slot it came from. Either
   way each slot stays in scheduling order. *)
let relink t i keep =
  let ev = ref t.head.(i) in
  t.head.(i) <- t.nil;
  t.tail.(i) <- t.nil;
  t.occ.(i lsr bits) <- t.occ.(i lsr bits) land lnot (1 lsl (i land slot_mask));
  while !ev != t.nil do
    let e = !ev in
    ev := e.next;
    if keep e then begin
      e.next <- t.nil;
      link t e
    end
  done

(* Unlink and return the earliest queued event with time <= [limit],
   tombstone or not, or [nil]. The cursor never moves past [limit], so
   it stays at or behind the clock the caller settles on. *)
let rec pop t limit =
  if t.len = 0 then t.nil
  else begin
    let level = ref 0 and m = ref 0 in
    while
      m := t.occ.(!level) land ((-1) lsl ((t.cur lsr (bits * !level)) land slot_mask));
      !m = 0
    do
      incr level
    done;
    let level = !level in
    let slot = ctz32 !m in
    let i = (level lsl bits) lor slot in
    let first = t.head.(i) in
    if level = 0 then
      if first.time > limit then t.nil
      else begin
        let next = first.next in
        t.head.(i) <- next;
        if next == t.nil then begin
          t.tail.(i) <- t.nil;
          t.occ.(0) <- t.occ.(0) land lnot (1 lsl slot)
        end;
        t.len <- t.len - 1;
        t.cur <- first.time;
        first
      end
    else begin
      let span = bits * level in
      let aligned = (first.time lsr span) lsl span in
      let start = if aligned > t.cur then aligned else t.cur in
      if start > limit then t.nil
      else begin
        t.cur <- start;
        relink t i (fun _ -> true);
        pop t limit
      end
    end
  end

let max_time = Int64.of_int max_int

(* Queue an event at a validated native-int [time]. *)
let push t time run =
  let ev = { time; run; next = t.nil; state = Pending; owner = t.uid } in
  link t ev;
  t.len <- t.len + 1;
  t.scheduled <- t.scheduled + 1;
  if time > t.horizon then t.horizon <- time;
  if t.len - t.dead > t.heap_peak then t.heap_peak <- t.len - t.dead;
  ev

let at_cancellable t time run =
  if Int64.compare time (Int64.of_int t.clock) < 0 then invalid_arg "Engine.at: time in the past";
  if Int64.compare time max_time > 0 then
    invalid_arg "Engine.at: time exceeds the timer-wheel range";
  push t (Int64.to_int time) run

let after_cancellable t delay run =
  if Int64.compare delay 0L < 0 then invalid_arg "Engine.after: negative delay";
  if Int64.compare delay (Int64.of_int (max_int - t.clock)) > 0 then
    invalid_arg "Engine.at: time exceeds the timer-wheel range";
  push t (t.clock + Int64.to_int delay) run

let at t time run = ignore (at_cancellable t time run)
let after t delay run = ignore (after_cancellable t delay run)

(* Drop every tombstone. *)
let compact t =
  Array.iteri
    (fun i first -> if first != t.nil then relink t i (fun e -> e.state <> Cancelled))
    t.head;
  t.len <- t.len - t.dead;
  t.dead <- 0

let cancel t ev =
  match ev.state with
  | Fired | Cancelled -> ()
  | Pending ->
    if ev.owner <> t.uid then
      invalid_arg "Engine.cancel: handle belongs to a different engine (or a stale restore)";
    ev.state <- Cancelled;
    (* A tombstone can stay queued long after: let go of its closure. *)
    ev.run <- ignore;
    t.cancelled <- t.cancelled + 1;
    Option.iter Obs.Registry.incr t.ctr_cancelled;
    t.dead <- t.dead + 1;
    (* The heap's rule: compaction is O(1) amortised per cancel, and
       the size floor avoids churn on tiny queues. *)
    if t.len >= 64 && 2 * t.dead > t.len then compact t

let run ?until t =
  let limit =
    match until with
    | Some l when Int64.compare l max_time < 0 -> Int64.to_int l
    | Some _ | None -> max_int
  in
  let count = ref 0 in
  let ev = ref (pop t limit) in
  while !ev != t.nil do
    let e = !ev in
    (match e.state with
    | Cancelled -> t.dead <- t.dead - 1
    | Pending | Fired ->
      e.state <- Fired;
      t.clock <- e.time;
      t.processed <- t.processed + 1;
      incr count;
      e.run ());
    ev := pop t limit
  done;
  (* Nothing left within the bound: a drained queue catches the clock up
     to the horizon, and a bounded run then advances it to the bound, so
     back-to-back bounded runs see a monotone [now]. *)
  if t.len = 0 && t.horizon > t.clock then t.clock <- t.horizon;
  if Option.is_some until && limit > t.clock then t.clock <- limit;
  Totals.add Totals.processed_a (t.processed - t.flushed_processed);
  Totals.add Totals.cancelled_a (t.cancelled - t.flushed_cancelled);
  t.flushed_processed <- t.processed;
  t.flushed_cancelled <- t.cancelled;
  Totals.max_to Totals.heap_peak_a t.heap_peak;
  !count

let events_processed t = t.processed
let events_cancelled t = t.cancelled
let heap_peak t = t.heap_peak
let pending t = t.len - t.dead

let rebind t =
  t.uid <- Atomic.fetch_and_add next_uid 1;
  (* Fired and cancelled events are left alone: [cancel] no-ops on them
     before it ever looks at the owner. *)
  Array.iter
    (fun first ->
      let ev = ref first in
      while !ev != t.nil do
        if !ev.state = Pending then !ev.owner <- t.uid;
        ev := !ev.next
      done)
    t.head

type snapshot = {
  s_clock : int64;
  s_next_seq : int;
  s_processed : int;
  s_dead : int;
  s_horizon : int64;
  s_cancelled : int;
  s_heap_peak : int;
  s_queued : int;
}

let snapshot t =
  {
    s_clock = Int64.of_int t.clock;
    s_next_seq = t.scheduled;
    s_processed = t.processed;
    s_dead = t.dead;
    s_horizon = Int64.of_int t.horizon;
    s_cancelled = t.cancelled;
    s_heap_peak = t.heap_peak;
    s_queued = t.len;
  }

let restore t s =
  if t.len <> s.s_queued then
    invalid_arg "Engine.restore: queue length does not match the snapshot";
  (* A non-empty queue carries closures the snapshot cannot describe,
     so it must be the snapshot's queue already (whole-image checkpoint
     first); equal length is the cheap check and the scheduling count
     catches control planes that merely drained back to the same
     length. An empty queue is fully described by [s_queued = 0], so
     rewinding a quiescent engine to a quiescent snapshot is allowed. *)
  if s.s_queued > 0 && t.scheduled <> s.s_next_seq then
    invalid_arg "Engine.restore: engine scheduled events since the snapshot";
  t.clock <- Int64.to_int s.s_clock;
  (* An empty wheel may take any cursor; a rewound clock needs one at or
     behind it. *)
  if t.len = 0 then t.cur <- t.clock;
  t.scheduled <- s.s_next_seq;
  t.processed <- s.s_processed;
  t.dead <- s.s_dead;
  t.horizon <- Int64.to_int s.s_horizon;
  t.cancelled <- s.s_cancelled;
  t.heap_peak <- s.s_heap_peak;
  (* Rewinding to an earlier snapshot must also rewind the flushed
     high-water marks: the events between the snapshot and now will
     re-execute, and [Totals] should count that replayed work. Left at
     their pre-restore values the next flush delta goes negative and
     [Totals.add] silently drops everything up to the old mark. *)
  t.flushed_processed <- min t.flushed_processed s.s_processed;
  t.flushed_cancelled <- min t.flushed_cancelled s.s_cancelled
