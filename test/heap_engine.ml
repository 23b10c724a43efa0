(* The engine's original event queue: a binary heap ordered by
   (time, seq) with lazy deletion. See heap_engine.mli. *)

type handle = { mutable state : [ `Pending | `Fired | `Cancelled ] }

type event = { time : int64; seq : int; run : unit -> unit; cell : handle option }

type t = {
  heap : event Heap.t;
  mutable clock : int64;
  mutable next_seq : int;
  mutable processed : int;
  mutable dead : int;
  mutable horizon : int64;
  mutable cancelled : int;
  mutable heap_peak : int;
}

let compare_event a b =
  let c = Int64.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    heap =
      Heap.create ~dummy:{ time = 0L; seq = -1; run = ignore; cell = None } ~compare:compare_event;
    clock = 0L;
    next_seq = 0;
    processed = 0;
    dead = 0;
    horizon = 0L;
    cancelled = 0;
    heap_peak = 0;
  }

let now t = t.clock

let schedule t time run cell =
  if Int64.compare time t.clock < 0 then invalid_arg "Engine.at: time in the past";
  if Int64.compare time (Int64.of_int max_int) > 0 then
    invalid_arg "Engine.at: time exceeds the timer-wheel range";
  if Int64.compare time t.horizon > 0 then t.horizon <- time;
  Heap.push t.heap { time; seq = t.next_seq; run; cell };
  t.next_seq <- t.next_seq + 1;
  t.heap_peak <- max t.heap_peak (Heap.length t.heap)

let delayed t delay =
  if Int64.compare delay 0L < 0 then invalid_arg "Engine.after: negative delay";
  Int64.add t.clock delay

let at t time run = schedule t time run None
let after t delay run = at t (delayed t delay) run

let at_cancellable t time run =
  let h = { state = `Pending } in
  schedule t time run (Some h);
  h

let after_cancellable t delay run = at_cancellable t (delayed t delay) run
let is_dead ev = match ev.cell with Some h -> h.state = `Cancelled | None -> false

let cancel t h =
  if h.state = `Pending then begin
    h.state <- `Cancelled;
    t.cancelled <- t.cancelled + 1;
    t.dead <- t.dead + 1;
    let len = Heap.length t.heap in
    if len >= 64 && 2 * t.dead > len then begin
      Heap.filter_in_place (fun ev -> not (is_dead ev)) t.heap;
      t.dead <- 0
    end
  end

let run ?until t =
  let count = ref 0 in
  let rec loop () =
    match Heap.peek t.heap with
    | None ->
      if Int64.compare t.horizon t.clock > 0 then t.clock <- t.horizon;
      (match until with
      | Some limit when Int64.compare limit t.clock > 0 -> t.clock <- limit
      | _ -> ())
    | Some ev -> (
      match until with
      | Some limit when Int64.compare ev.time limit > 0 ->
        if Int64.compare limit t.clock > 0 then t.clock <- limit
      | Some _ | None ->
        ignore (Heap.pop t.heap);
        if is_dead ev then t.dead <- t.dead - 1
        else begin
          Option.iter (fun h -> h.state <- `Fired) ev.cell;
          t.clock <- ev.time;
          t.processed <- t.processed + 1;
          incr count;
          ev.run ()
        end;
        loop ())
  in
  loop ();
  !count

let events_processed t = t.processed
let events_cancelled t = t.cancelled
let heap_peak t = t.heap_peak
let pending t = Heap.length t.heap - t.dead
let queued t = Heap.length t.heap
let dead t = t.dead
