module Engine = Semper_sim.Engine
module Fabric = Semper_noc.Fabric
module Obs = Semper_obs.Obs
module Int_table = Semper_util.Int_table
module P = Protocol

let src = Logs.Src.create "semper.transport" ~doc:"SemperOS inter-kernel transport"

module Log = (val Logs.src_log src : Logs.LOG)

type counters = {
  ikc_sent : Obs.Registry.counter;
  credit_stalls : Obs.Registry.counter;
  (* Credit refunds discarded at the §5.1 [max_inflight] cap — a
     retransmission refund racing the original message's credit return,
     or a fault-injected duplicate returning credit twice. Without the
     cap these permanently inflated the window past the paper's bound. *)
  credit_overrefund : Obs.Registry.counter;
  retries : Obs.Registry.counter;
  retry_exhausted : Obs.Registry.counter;
  dup_ikc : Obs.Registry.counter;
  batches_sent : Obs.Registry.counter;
  batched_msgs : Obs.Registry.counter;
}

(* Responder-side record of an op-tagged request: op ids are globally
   unique (minted by the requester), so a redelivered request —
   retransmission or fault-injected duplicate — is recognised and, once
   finished, answered from the cached reply instead of re-executed. The
   entry lives until the requester closes the op (see [close]). *)
type remote_state = R_in_progress | R_done of { dst : int; msg : P.ikc }

(* A request awaiting a reply, retransmitted on timeout. [rstart] and
   [rattempts] feed the per-op latency and retry histograms. [rtimer]
   is the pending retransmission tick, cancelled when the reply
   arrives — otherwise every successfully-acked message would leave a
   dead event on the engine heap until its timeout expired. *)
type retry_state = {
  rdst : int;
  rmsg : P.ikc;
  rstart : int64;
  mutable rattempts : int;
  mutable rtimer : Engine.handle option;
}

(* Outgoing coalescing state for one peer kernel (batching mode): the
   first message to a peer opens a DTU slot window ([bw_until]);
   messages issued before it closes queue in [bq] and leave as one
   framed [Ik_batch] when the window's flush tick fires. *)
type batch_state = { bq : P.ikc Queue.t; mutable bw_until : int64 }

(* Receiver-side credit bookkeeping for [Ik_batch] frames from one
   peer: a frame consumed ONE sender credit but each inner message
   returns one, so all but one return per frame is absorbed ([o_left]).
   Piggybacked acks on absorbed returns are stashed in [o_acks] and
   ride the next credit message that does go out. *)
type owed = { mutable o_left : int; mutable o_acks : int list }

(* Send state toward one peer kernel: credits left (paper §5.1), the
   messages parked until one returns, and the ops this kernel will
   retransmit no more. [closes] ride the next credit return to the peer;
   [waiting] still have a copy parked here (in [stalled] or the batch
   queue) and move to [closes] once it has left. *)
type window = {
  mutable avail : int;
  stalled : (P.ikc * int) Queue.t;
  mutable closes : int list;
  mutable waiting : int list;
}

type t = {
  id : int;
  pe : int;
  engine : Engine.t;
  fabric : Fabric.t;
  cost : Cost.t;
  trace : Obs.Trace.t;
  ctr : counters;
  (* Messages per [Ik_batch] frame; per-kind request round-trip
     latency and retransmissions per request. *)
  batch_occupancy : Obs.Registry.histogram;
  ikc_latency : Obs.Registry.family;
  ikc_retries : Obs.Registry.family;
  peer : int -> t;
  deliver : src_kernel:int -> P.ikc -> unit;
  on_exhausted : int -> unit;
  (* Per peer kernel; [None] until the peer is first contacted, so a
     snapshot lists exactly the peers a run has talked to. Kernel ids
     are fixed at boot, so these are dense arrays indexed by kernel id:
     routing a message is a bounds check and a read, with no hashing. *)
  credits : window option array;
  batch_queues : batch_state option array;
  batch_owed : owed option array;
  remote_ops : remote_state Int_table.t;
  (* Requests awaiting a reply, retransmitted on timeout. *)
  retry_msgs : retry_state Int_table.t;
  (* Completed delegate handshakes: op -> (dst, ack), kept so a
     redelivered reply can trigger an ack resend if the ack was lost. *)
  completed_acks : (int * P.ikc) Int_table.t;
  (* Most entries the two caches above ever held together. *)
  mutable cache_peak : int;
}

(* Retransmission backoff: the wait before attempt [i] doubles up to a
   64x cap. A fixed interval turned heavy (fault-free) congestion into
   false [E_timeout]s — a reply delayed behind a long server queue was
   declared lost after retry_max * retry_timeout cycles, which large
   experiments exceed. Backoff keeps loss recovery fast (first resend
   after one timeout) while tolerating ~50x longer queueing, and stops
   retransmission storms from feeding the very congestion that delayed
   the reply. *)
let retry_interval cost i =
  let shift = if i < 6 then i else 6 in
  Int64.mul cost.Cost.retry_timeout (Int64.of_int (1 lsl shift))

(* Bucket bounds (cycles) for syscall / IKC latency histograms. *)
let latency_buckets =
  [| 1_000.; 2_500.; 5_000.; 10_000.; 25_000.; 50_000.; 100_000.; 250_000.; 500_000.; 1_000_000. |]

(* Bucket bounds for per-op retransmission counts. *)
let retry_buckets = [| 0.; 1.; 2.; 3.; 5.; 10.; 20. |]

let create ~obs ~trace ~engine ~fabric ~cost ~id ~pe ~kernel_count ~peer ~deliver ~on_exhausted =
  let prefix = "kernel" ^ string_of_int id ^ "." in
  let name suffix = prefix ^ suffix in
  let cnt suffix = Obs.Registry.counter obs (name suffix) in
  let family suffix buckets =
    Obs.Registry.family obs ~prefix:(name suffix ^ ".") ~names:P.ikc_names ~buckets
  in
  {
    id;
    pe;
    engine;
    fabric;
    cost;
    trace;
    ctr =
      {
        ikc_sent = cnt "ikc_sent";
        credit_stalls = cnt "credit_stalls";
        credit_overrefund = cnt "credit_overrefund";
        retries = cnt "retries";
        retry_exhausted = cnt "retry_exhausted";
        dup_ikc = cnt "dup_ikc";
        batches_sent = cnt "batches_sent";
        batched_msgs = cnt "batched_msgs";
      };
    batch_occupancy =
      Obs.Registry.histogram obs (name "batch_occupancy") ~buckets:[| 2.; 4.; 8.; 16.; 32.; 64. |];
    ikc_latency = family "ikc_latency" latency_buckets;
    ikc_retries = family "ikc_retries" retry_buckets;
    peer;
    deliver;
    on_exhausted;
    credits = Array.make kernel_count None;
    batch_queues = Array.make kernel_count None;
    batch_owed = Array.make kernel_count None;
    remote_ops = Int_table.create 32;
    retry_msgs = Int_table.create 16;
    completed_acks = Int_table.create 16;
    cache_peak = 0;
  }

let counters t = t.ctr

let idempotency_cache_sizes t =
  (Int_table.length t.remote_ops, Int_table.length t.completed_acks)

let idempotency_cache_peak t = t.cache_peak

let note_cache_size t =
  let n = Int_table.length t.remote_ops + Int_table.length t.completed_acks in
  if n > t.cache_peak then t.cache_peak <- n

(* [f peer x] for every contacted peer of a per-peer array, descending,
   so consing builds a list sorted by peer id. *)
let fold_peers f a acc =
  let acc = ref acc in
  for peer = Array.length a - 1 downto 0 do
    match a.(peer) with Some x -> acc := f peer x !acc | None -> ()
  done;
  !acc

(* [f peer x] for every contacted peer, ascending. *)
let iter_peers f a = Array.iteri (fun peer -> function Some x -> f peer x | None -> ()) a

let credit_windows t = fold_peers (fun peer w acc -> (peer, w.avail) :: acc) t.credits []

let is_peer t k = match t.peer k with _ -> true | exception Not_found -> false

(* Tracing is off unless the system asked for a ring. *)
let trace_event t ~kind ~op ~src ~dst ~detail =
  Obs.Trace.record t.trace ~ts:(Engine.now t.engine) ~kind ~op ~src ~dst ~detail

(* ------------------------------------------------------------------ *)
(* Credit-gated sending with in-flight limiting (paper §4.1, §5.1)     *)

(* [peer] must be a kernel of the fleet ([send] checks). *)
let credit_state t peer =
  match t.credits.(peer) with
  | Some w -> w
  | None ->
    let w = { avail = Cost.max_inflight; stalled = Queue.create (); closes = []; waiting = [] } in
    t.credits.(peer) <- Some w;
    w

(* Whether a copy of op [op]'s message to [peer] is parked here,
   waiting for a credit or a batch flush. Both queues are usually
   empty. *)
let parked t ~peer w op =
  let batched = t.batch_queues.(peer) in
  let in_batch = match batched with Some bs -> not (Queue.is_empty bs.bq) | None -> false in
  if Queue.is_empty w.stalled && not in_batch then false
  else begin
    let carries m = P.ikc_op m = op in
    let frame_carries = function
      | P.Ik_batch { msgs; _ } -> List.exists carries msgs
      | m -> carries m
    in
    Seq.exists (fun (m, _) -> frame_carries m) (Queue.to_seq w.stalled)
    || match batched with Some bs -> Seq.exists carries (Queue.to_seq bs.bq) | None -> false
  end

(* A message to [dst] left: closes that waited for a parked copy of
   their op may now ride the next credit return. *)
let release_waiting t ~dst w =
  let still, ready = List.partition (parked t ~peer:dst w) w.waiting in
  w.waiting <- still;
  w.closes <- List.rev_append ready w.closes

(* This kernel will send no further copy of op [op] to [peer] (its
   reply or ack arrived, or its retry budget ran out), so the peer may
   forget the op: name it on the next credit return. A copy still
   parked here has yet to reach the peer, which must still recognise
   it; the close waits until that copy has left. The fabric keeps each
   channel FIFO, so a close arrives after every copy sent before it. *)
let close t ~peer op =
  if is_peer t peer then
    match t.credits.(peer) with
    | None -> ()  (* nothing was ever sent to [peer] *)
    | Some w ->
      if parked t ~peer w op then w.waiting <- op :: w.waiting else w.closes <- op :: w.closes

let transmit t ~dst (ikc : P.ikc) =
  match t.peer dst with
  | exception Not_found -> Log.err (fun m -> m "kernel %d: no peer kernel %d" t.id dst)
  | peer ->
    Obs.Registry.incr t.ctr.ikc_sent;
    trace_event t ~kind:"ikc_send" ~op:(P.ikc_op ikc) ~src:t.id ~dst ~detail:(P.ikc_name ikc);
    (* A framed multi-message is one fabric transfer whose size grows
       with its payload, so coalescing still pays serialisation latency
       for every inner message — only per-message overheads amortise. *)
    let bytes =
      match ikc with
      | P.Ik_batch { msgs; _ } ->
        t.cost.Cost.batch_header_bytes + (List.length msgs * t.cost.Cost.ikc_bytes)
      (* A bulk partition handoff ships its record wave as one framed
         transfer sized like a batch: header plus one slot per record. *)
      | P.Ik_part_records { records; _ } ->
        t.cost.Cost.batch_header_bytes + (max 1 (List.length records) * t.cost.Cost.ikc_bytes)
      | _ -> t.cost.Cost.ikc_bytes
    in
    Fabric.send ~tag:(P.ikc_name ikc) t.fabric ~src:t.pe ~dst:peer.pe ~bytes (fun () ->
        peer.deliver ~src_kernel:t.id ikc);
    match t.credits.(dst) with
    | Some w when w.waiting <> [] -> release_waiting t ~dst w
    | Some _ | None -> ()

(* Credit-gated dispatch: consume one in-flight credit or park the
   message until a credit returns (paper §5.1, four per peer pair). *)
let dispatch t ~dst ikc =
  let w = credit_state t dst in
  if w.avail > 0 then begin
    w.avail <- w.avail - 1;
    transmit t ~dst ikc
  end
  else begin
    Obs.Registry.incr t.ctr.credit_stalls;
    trace_event t ~kind:"credit_stall" ~op:(P.ikc_op ikc) ~src:t.id ~dst ~detail:(P.ikc_name ikc);
    Queue.push (ikc, dst) w.stalled
  end

let rec open_batch_window t ~dst bs =
  bs.bw_until <- Int64.add (Engine.now t.engine) t.cost.Cost.batch_window;
  Engine.after t.engine t.cost.Cost.batch_window (fun () -> flush_batch t ~dst bs)

and flush_batch t ~dst bs =
  match Queue.length bs.bq with
  | 0 -> ()  (* window closes; next message becomes a new leader *)
  | 1 ->
    dispatch t ~dst (Queue.pop bs.bq);
    open_batch_window t ~dst bs
  | n ->
    let msgs = List.rev (Queue.fold (fun acc m -> m :: acc) [] bs.bq) in
    Queue.clear bs.bq;
    Obs.Registry.incr t.ctr.batches_sent;
    Obs.Registry.add t.ctr.batched_msgs n;
    Obs.Registry.observe_int t.batch_occupancy n;
    dispatch t ~dst (P.Ik_batch { src_kernel = t.id; msgs });
    open_batch_window t ~dst bs

(* DTU slot-window coalescing (batching mode). The leader of a wave —
   the first message to a peer with no window open — dispatches
   immediately and opens a [batch_window]-cycle window; followers queue
   and leave together as one framed [Ik_batch] when the flush tick
   fires. Leader-dispatches-immediately means an isolated message (the
   common case on a revocation chain) sees zero added latency. *)
let enqueue_batch t ~dst ikc =
  let bs =
    match t.batch_queues.(dst) with
    | Some bs -> bs
    | None ->
      let bs = { bq = Queue.create (); bw_until = Int64.min_int } in
      t.batch_queues.(dst) <- Some bs;
      bs
  in
  if Int64.compare (Engine.now t.engine) bs.bw_until < 0 then Queue.push ikc bs.bq
  else begin
    dispatch t ~dst ikc;
    open_batch_window t ~dst bs
  end

let send t ~dst ikc =
  if dst = t.id then invalid_arg "Transport.send: message to self";
  if not (is_peer t dst) then
    (* No kernel behind [dst]: no credit window or batch queue either;
       [transmit] logs and drops the message. *)
    transmit t ~dst ikc
  else if Cost.batching t.cost then enqueue_batch t ~dst ikc
  else dispatch t ~dst ikc

let receive_credit t ~peer =
  (* A retransmission toward an id outside the fleet refunds nothing:
     its sends were dropped before taking a credit. *)
  if is_peer t peer then begin
    let w = credit_state t peer in
    if Queue.is_empty w.stalled then begin
      (* Clamp at the §5.1 bound: a retransmission refund racing the
         original message's credit return (or a fault-injected duplicate
         returning credit twice) must not widen the window permanently. *)
      if w.avail >= Cost.max_inflight then Obs.Registry.incr t.ctr.credit_overrefund
      else w.avail <- w.avail + 1
    end
    else begin
      let ikc, dst = Queue.pop w.stalled in
      transmit t ~dst ikc
    end
  end

(* ------------------------------------------------------------------ *)
(* Reliability: timeout-driven retransmission + duplicate detection.
   Op-tagged requests are retransmitted until their reply arrives (or
   the attempt budget runs out); responders answer redeliveries from a
   cache. Each retransmission refunds one credit first, on the
   assumption the lost message's credit was leaked with it — so bounded
   drops cannot wedge the in-flight window permanently. *)

let register_retry t op ~dst msg =
  let st = { rdst = dst; rmsg = msg; rstart = Engine.now t.engine; rattempts = 0; rtimer = None } in
  Int_table.replace t.retry_msgs op st;
  if t.cost.Cost.retry_max > 0 then begin
    let rec tick () =
      match Int_table.find t.retry_msgs op with
      | exception Not_found -> ()
      | st ->
        st.rtimer <- None;
        if st.rattempts >= t.cost.Cost.retry_max then begin
          (* Budget exhausted: stop retransmitting and let the kernel
             fail the pending operation explicitly instead of leaving
             the syscall (and its kernel thread) parked forever. *)
          Int_table.remove t.retry_msgs op;
          close t ~peer:st.rdst op;
          Obs.Registry.incr t.ctr.retry_exhausted;
          trace_event t ~kind:"ikc_timeout" ~op ~src:t.id ~dst:st.rdst
            ~detail:(P.ikc_name st.rmsg);
          t.on_exhausted op
        end
        else begin
          st.rattempts <- st.rattempts + 1;
          Obs.Registry.incr t.ctr.retries;
          trace_event t ~kind:"ikc_retry" ~op ~src:t.id ~dst:st.rdst
            ~detail:(P.ikc_name st.rmsg);
          receive_credit t ~peer:st.rdst;
          send t ~dst:st.rdst st.rmsg;
          st.rtimer <-
            Some (Engine.after_cancellable t.engine (retry_interval t.cost st.rattempts) tick)
        end
    in
    st.rtimer <- Some (Engine.after_cancellable t.engine (retry_interval t.cost 0) tick)
  end

(* A notification acked on a credit return ([notification]) was handled
   idempotently and never cached by the peer: there is nothing to
   close. *)
let clear_retry ?(notification = false) t op =
  match Int_table.find t.retry_msgs op with
  | exception Not_found -> ()
  | st ->
    Int_table.remove t.retry_msgs op;
    if not notification then close t ~peer:st.rdst op;
    Option.iter (Engine.cancel t.engine) st.rtimer;
    let kind = P.ikc_tag st.rmsg in
    Obs.Registry.observe_in t.ikc_latency kind
      (Int64.to_int (Int64.sub (Engine.now t.engine) st.rstart));
    Obs.Registry.observe_in t.ikc_retries kind st.rattempts

(* The peer closed [op]: no copy of its request (nor of a delegate
   reply) can arrive any more, so neither cache needs the entry. An op
   still in progress is forgotten too; [finish_remote] then caches
   nothing. *)
let forget t op =
  Int_table.remove t.remote_ops op;
  Int_table.remove t.completed_acks op

(* The DTU frees the message slot as soon as the kernel has fetched the
   message, which returns the sender's credit; the kernel calls this at
   the end of the first processing job for the message. [ack_op]
   piggybacks a delivery acknowledgement for an op-tagged notification
   on the credit message — the credit channel is never dropped or
   duplicated by fault plans, so the ack is reliable and costs no extra
   fabric transfer. The same message names the ops this kernel has
   closed toward that peer ([close]); the peer forgets them once it has
   handled it. For inner messages of an [Ik_batch] frame all but one
   credit return per frame is absorbed ([owed]); their acks are stashed,
   and they and the closes ride the next credit message to the same
   peer. *)
let return_credit ?ack_op t ~src_kernel =
  match t.peer src_kernel with
  | exception Not_found -> ()
  | peer -> (
    match t.batch_owed.(src_kernel) with
    | Some o when o.o_left > 0 ->
      o.o_left <- o.o_left - 1;
      (match ack_op with Some op -> o.o_acks <- op :: o.o_acks | None -> ())
    | owed ->
      let acks =
        match owed with
        | Some o ->
          let stashed = o.o_acks in
          o.o_acks <- [];
          stashed
        | None -> []
      in
      let acks = match ack_op with Some op -> op :: acks | None -> acks in
      let closes =
        match t.credits.(src_kernel) with
        | Some w ->
          let named = w.closes in
          w.closes <- [];
          named
        | None -> []
      in
      Fabric.send ~tag:"credit" t.fabric ~src:t.pe ~dst:peer.pe ~bytes:t.cost.Cost.credit_bytes
        (fun () ->
          receive_credit peer ~peer:t.id;
          List.iter (fun op -> clear_retry ~notification:true peer op) acks;
          List.iter (forget peer) closes))

(* An [Ik_batch] frame of [size] messages arrived from [src_kernel]. It
   consumed ONE sender credit, yet each inner delivery returns one:
   record the surplus so [return_credit] absorbs all but one return per
   frame (their piggybacked acks ride the credit message that does go
   out). A frame from an id outside the fleet owes nothing: credit
   returns toward it are dropped anyway. *)
let frame_received t ~src_kernel ~size =
  if is_peer t src_kernel then begin
    let o =
      match t.batch_owed.(src_kernel) with
      | Some o -> o
      | None ->
        let o = { o_left = 0; o_acks = [] } in
        t.batch_owed.(src_kernel) <- Some o;
        o
    in
    o.o_left <- o.o_left + (size - 1)
  end

(* Returns [true] when the request was seen before; credit is returned
   either way, and a finished op re-sends its cached reply. *)
let remote_dup t ~src_kernel ~op =
  match Int_table.find t.remote_ops op with
  | exception Not_found ->
    Int_table.replace t.remote_ops op R_in_progress;
    note_cache_size t;
    false
  | R_in_progress ->
    Obs.Registry.incr t.ctr.dup_ikc;
    return_credit t ~src_kernel;
    true
  | R_done { dst; msg } ->
    Obs.Registry.incr t.ctr.dup_ikc;
    return_credit t ~src_kernel;
    (* The requester retransmitted, so the cached reply may have been
       dropped — and a dropped reply leaks the credit it consumed,
       since replies ride the requester's retry loop instead of their
       own. Refund it before the resend, exactly like a register_retry
       retransmission; the window clamp absorbs the refund when the
       original reply actually survived. On a perfect fabric no reply
       is ever lost — the retransmission just outran a slow reply — so
       the refund stands down and the credit flow stays exactly the
       paper's. *)
    if Fabric.has_injector t.fabric then receive_credit t ~peer:dst;
    send t ~dst msg;
    true

(* Send the final reply for an op-tagged request and cache it for
   redeliveries, unless the requester closed the op while it was in
   progress: no copy of the request can come back for it then. *)
let finish_remote t ~op ~dst msg =
  if Int_table.mem t.remote_ops op then Int_table.replace t.remote_ops op (R_done { dst; msg });
  send t ~dst msg

let cache_ack t ~op ~dst ack =
  Int_table.replace t.completed_acks op (dst, ack);
  note_cache_size t

let cached_ack t op = Int_table.find_opt t.completed_acks op

(* ------------------------------------------------------------------ *)
(* Snapshots and health checks                                         *)

(* Lists are sorted by op id or peer. The retry table, both caches and
   the pending closes are control plane: validated by [matches], never
   rebuilt in place. *)
type snapshot = {
  s_retry_ops : int list;
  s_remote_ops : int list;
  s_completed_acks : int list;
  (* peer, ops named on the next credit return, ops waiting for a
     parked copy; peers with either list non-empty *)
  s_closes : (int * int list * int list) list;
  s_credits : (int * int * int) list;  (* peer, credits, queued sends *)
  s_batch : (int * int) list;  (* peer, queued batch sends *)
  (* peer, absorbed credit returns still owed, stashed acks *)
  s_batch_owed : (int * int * int list) list;
}

let sorted_keys tbl = Int_table.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare

let closes_image t =
  fold_peers
    (fun peer w acc ->
      if w.closes = [] && w.waiting = [] then acc
      else (peer, List.sort Int.compare w.closes, List.sort Int.compare w.waiting) :: acc)
    t.credits []

let snapshot t =
  {
    s_retry_ops = sorted_keys t.retry_msgs;
    s_remote_ops = sorted_keys t.remote_ops;
    s_completed_acks = sorted_keys t.completed_acks;
    s_closes = closes_image t;
    s_credits =
      fold_peers (fun peer w acc -> (peer, w.avail, Queue.length w.stalled) :: acc) t.credits [];
    s_batch = fold_peers (fun peer bs acc -> (peer, Queue.length bs.bq) :: acc) t.batch_queues [];
    s_batch_owed =
      fold_peers
        (fun peer o acc -> (peer, o.o_left, List.sort Int.compare o.o_acks) :: acc)
        t.batch_owed [];
  }

(* The idempotency caches (remote ops, completed acks) and pending
   closes are validated too. Traffic since the snapshot leaves its mark
   there even when the event queue drained back to the snapshot's
   shape: the last op of any exchange stays cached until a later message
   closes it. *)
let matches t s =
  sorted_keys t.retry_msgs = s.s_retry_ops
  && sorted_keys t.remote_ops = s.s_remote_ops
  && sorted_keys t.completed_acks = s.s_completed_acks
  && closes_image t = s.s_closes

let restore t s =
  List.iter
    (fun (peer, credits, queued) ->
      match t.credits.(peer) with
      | Some w ->
        if Queue.length w.stalled <> queued then
          invalid_arg "Kernel.restore: queued credit-stalled sends do not match the snapshot";
        w.avail <- credits
      | None ->
        if queued <> 0 then
          invalid_arg "Kernel.restore: queued credit-stalled sends do not match the snapshot";
        t.credits.(peer) <-
          Some { avail = credits; stalled = Queue.create (); closes = []; waiting = [] })
    s.s_credits;
  (* Batch queues hold closures' worth of in-flight protocol state only
     via plain messages awaiting a flush tick; like credit queues they
     are validated, not rebuilt (whole-image checkpoints carry them). *)
  List.iter
    (fun (peer, queued) ->
      let live =
        match t.batch_queues.(peer) with Some bs -> Queue.length bs.bq | None -> 0
      in
      if live <> queued then
        invalid_arg "Kernel.restore: queued batched sends do not match the snapshot")
    s.s_batch;
  (* Owed-credit state is plain data and restores fully. *)
  List.iter
    (fun (peer, left, acks) ->
      match t.batch_owed.(peer) with
      | Some o ->
        o.o_left <- left;
        o.o_acks <- acks
      | None -> t.batch_owed.(peer) <- Some { o_left = left; o_acks = acks })
    s.s_batch_owed

let quiescent t =
  Int_table.length t.retry_msgs = 0
  && fold_peers (fun _ bs acc -> acc && Queue.is_empty bs.bq) t.batch_queues true
  && fold_peers (fun _ o acc -> acc && o.o_left = 0 && o.o_acks = []) t.batch_owed true
  && fold_peers
       (fun _ w acc -> acc && w.avail = Cost.max_inflight && Queue.is_empty w.stalled)
       t.credits true

let quiescence_report t =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  Int_table.iter (fun op _ -> add "retrying msg op %d" op) t.retry_msgs;
  iter_peers
    (fun dst bs ->
      if not (Queue.is_empty bs.bq) then add "batch queue to %d holds %d" dst (Queue.length bs.bq))
    t.batch_queues;
  iter_peers
    (fun src o ->
      if o.o_left <> 0 || o.o_acks <> [] then
        add "owes %d credit acks to %d (%d parked)" o.o_left src (List.length o.o_acks))
    t.batch_owed;
  iter_peers
    (fun dst w ->
      if w.avail <> Cost.max_inflight || not (Queue.is_empty w.stalled) then
        add "credit window to %d at %d/%d (%d queued)" dst w.avail Cost.max_inflight
          (Queue.length w.stalled))
    t.credits;
  !parts

let check_invariants t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  iter_peers
    (fun peer bs ->
      if not (Queue.is_empty bs.bq) then
        err "%d messages for kernel %d still queued in a batch window while system is idle"
          (Queue.length bs.bq) peer)
    t.batch_queues;
  iter_peers
    (fun peer o ->
      if o.o_left <> 0 then
        err "%d absorbed credit returns still owed to kernel %d while system is idle" o.o_left
          peer;
      if o.o_acks <> [] then
        err "%d piggybacked acks for kernel %d still stashed while system is idle"
          (List.length o.o_acks) peer)
    t.batch_owed;
  List.rev !errors
