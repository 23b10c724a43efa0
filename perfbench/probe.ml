(* Host-side probes around the calls the benchmark makes into the
   simulator: phase timing (always on, it feeds setup_s and wall_s),
   plus, when tracing, spans around every public layer call, the time
   spent in the benchmark's own engine callbacks, and GC pauses read
   from the OCaml runtime's event ring. *)

(* Host times are the process's CPU time, user plus system
   ([getrusage]). The benchmark is one thread that does no I/O while
   it measures, so this is the time it ran; time other processes (or
   the hypervisor) held its core is left out, where the real-time
   clock would count it. [elapsed] is the real-time clock: it bounds
   the run and is printed beside the CPU times. *)
let now = Sys.time
let elapsed = Unix.gettimeofday

(* The top-level phases of one workload iteration, in the order they
   run. Every line of an iteration runs inside exactly one of them, so
   their sum accounts for the iteration's wall time up to the clock
   reads between phases (the residue). [setup_phases] is what setup_s
   measures. *)
let phases = [ "build"; "boot"; "spawn"; "arm"; "loop"; "collect"; "audit"; "shutdown" ]
let setup_phases = [ "build"; "boot"; "spawn"; "arm" ]

(* GC pauses: total time inside outermost runtime phases (minor
   collections, major slices, stop-the-world sections), read from this
   process's own [Runtime_events] ring. The ring is per process, so is
   this state; [poll] drains whatever accumulated since the last call.
   The ring records only between [resume] and [pause], which bracket
   the traced iterations, so untraced ones neither pay for it nor fill
   it. Pause times are on the real-time clock of the event stamps. *)
module Gc_pauses = struct
  let depth = ref 0
  let opened = ref 0L
  let total_ns = ref 0L
  let lost = ref 0
  let ns ts = Runtime_events.Timestamp.to_int64 ts

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts _ ->
        if !depth = 0 then opened := ns ts;
        incr depth)
      ~runtime_end:(fun _ ts _ ->
        if !depth > 0 then begin
          decr depth;
          if !depth = 0 then total_ns := Int64.add !total_ns (Int64.sub (ns ts) !opened)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor = ref None

  let poll () =
    Option.iter (fun c -> ignore (Runtime_events.read_poll c callbacks None)) !cursor

  let resume () =
    (match !cursor with
     | None ->
       Runtime_events.start ();
       cursor := Some (Runtime_events.create_cursor None)
     | Some _ -> Runtime_events.resume ());
    depth := 0

  let pause () =
    poll ();
    Runtime_events.pause ()

  let pause_s () = Int64.to_float !total_ns /. 1e9
end

type span = { id : int; parent : int; name : string; t0 : float; mutable t1 : float }

type t = {
  tracing : bool;
  mutable pieces : (string * float) list;  (* every timed phase call, newest first *)
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable current : int;  (* enclosing span, -1 at top level *)
  mutable callbacks_s : float;
  mutable in_callback : bool;
  mutable heap_peak_words : int;  (* major heap, sampled at the end of every phase call *)
}

let create ~tracing =
  {
    tracing;
    pieces = [];
    spans = [];
    next_id = 0;
    current = -1;
    callbacks_s = 0.0;
    in_callback = false;
    heap_peak_words = 0;
  }

let poll_gc t = if t.tracing then Gc_pauses.poll ()

(* A span around one call into a layer; a plain call when not tracing. *)
let span t name f =
  if not t.tracing then f ()
  else begin
    let s = { id = t.next_id; parent = t.current; name; t0 = now (); t1 = 0.0 } in
    t.next_id <- t.next_id + 1;
    t.spans <- s :: t.spans;
    let saved = t.current in
    t.current <- s.id;
    let r = f () in
    s.t1 <- now ();
    t.current <- saved;
    r
  end

(* The GC poll and the heap sample are timed with the phase: outside
   it they would count in the residue once per loop slice. The sample
   reads [heap_words] rather than the runtime's [top_heap_words], which
   never gives back a large block once it is freed. *)
let phase t name f =
  let t0 = now () in
  poll_gc t;
  let r = span t ("phase." ^ name) f in
  t.heap_peak_words <- max t.heap_peak_words (Gc.quick_stat ()).Gc.heap_words;
  t.pieces <- (name, now () -. t0) :: t.pieces;
  r

(* Total time of one phase's calls. *)
let phase_s t name = List.fold_left (fun acc (n, dt) -> if n = name then acc +. dt else acc) 0.0 t.pieces

(* The phase calls of one iteration, oldest first. Iterations of one
   workload and seed make the same calls in the same order. *)
let pieces t = Array.of_list (List.rev t.pieces)

(* Wrap one of the benchmark's own continuations (engine callbacks,
   syscall replies, the session service's handler) so its host time
   is charged to [callbacks_s]. Nested wrapped calls are counted once.
   These run for microseconds, up to 250,000 times an iteration, so
   they are timed on the real-time clock, which costs a tenth of a
   CPU-time read. *)
let callback t f =
  if not t.tracing then f
  else fun x ->
    if t.in_callback then f x
    else begin
      t.in_callback <- true;
      let t0 = elapsed () in
      f x;
      t.callbacks_s <- t.callbacks_s +. (elapsed () -. t0);
      t.in_callback <- false
    end

(* Spans, oldest first, as JSON Lines with times relative to [origin]. *)
let spans_jsonl t ~origin =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Semperos.Obs.Json.to_string
           (Obj
              [
                ("id", Int s.id);
                ("parent", Int s.parent);
                ("name", Str s.name);
                ("start_s", Float (s.t0 -. origin));
                ("end_s", Float (s.t1 -. origin));
              ]));
      Buffer.add_char buf '\n')
    (List.rev t.spans);
  Buffer.contents buf

(* Per span name: calls, total time and self time (total minus the
   part covered by direct children), sorted by self time. *)
let span_summary t =
  let child_s = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_s s.parent
          (s.t1 -. s.t0 +. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent)))
    t.spans;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let total = s.t1 -. s.t0 in
      let self = total -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id) in
      let n, tt, ss = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows s.name) in
      Hashtbl.replace rows s.name (n + 1, tt +. total, ss +. self))
    t.spans;
  Hashtbl.fold (fun name (n, tt, ss) acc -> (name, n, tt, ss) :: acc) rows []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)
