(* A fixed reference loop, independent of the simulator's code: random
   read-modify-writes over a 32 MB array, about the simulator's heap,
   and a binary heap, both plain arrays used through polymorphic code,
   so that every write goes through the write barrier as in the
   simulator's own containers. It allocates nothing per step. How fast it runs tracks how fast this
   machine runs the simulator at the moment, which on a shared host
   swings by half within minutes. It runs in short pieces, timed one
   by one, so that its fastest piece is measured as the workload's
   fastest calls are. The end-to-end host times are scaled by
   [reference_s] over the fastest piece in the run (README.md, "How
   host time is measured"). *)

let cells = 1 lsl 22
let steps = 14_000
let pieces = 16
let heap_size = 4096

(* One piece's CPU time on a 2-vCPU Intel Xeon VM at 2.0 GHz, at its
   fastest; host times are reported in seconds of that machine. *)
let reference_s = 0.0027

let heap_push h n x =
  let i = ref !n in
  h.(!i) <- x;
  incr n;
  while !i > 0 && h.((!i - 1) / 2) > h.(!i) do
    let p = (!i - 1) / 2 in
    let t = h.(p) in
    h.(p) <- h.(!i);
    h.(!i) <- t;
    i := p
  done

let heap_pop h n =
  let top = h.(0) in
  decr n;
  h.(0) <- h.(!n);
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let m = if r < !n && h.(r) < h.(l) then r else l in
    if m < !n && h.(m) < h.(!i) then begin
      let t = h.(m) in
      h.(m) <- h.(!i);
      h.(!i) <- t;
      i := m
    end
    else continue := false
  done;
  top

(* One piece; returns a checksum so nothing is optimised away. *)
let piece arr heap =
  let n = ref 0 and x = ref 0x2545F491 and sum = ref 0 in
  for i = 1 to steps do
    x := (!x * 1103515245) + 12345;
    let k = (!x lsr 5) land (cells - 1) in
    let v = arr.(k) in
    arr.(k) <- v + i;
    sum := !sum + (v land 7);
    if !n < heap_size then heap_push heap n (!x land 0xFFFFF);
    if i land 1 = 0 && !n > heap_size / 2 then sum := !sum + heap_pop heap n
  done;
  !sum

(* CPU seconds of the fastest of [pieces] pieces. The arrays are made
   afresh and dropped after, so the collection before each iteration
   frees them and they never add to the iteration's heap. *)
let time () =
  let arr = Sys.opaque_identity (Array.make cells 0) and heap = Array.make heap_size 0 in
  let fastest = ref infinity in
  for _ = 1 to pieces do
    let t0 = Probe.now () in
    ignore (Sys.opaque_identity (piece arr heap));
    fastest := Float.min !fastest (Probe.now () -. t0)
  done;
  !fastest
