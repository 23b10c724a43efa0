(** IKC batching benchmark (BENCH_batch.json): the same workload run
    with slot-window coalescing off and on, reporting simulated cycles
    and inter-kernel message counts side by side.

    Every workload runs on private systems and the simulator is
    seeded, so the emitted JSON is byte-identical across runs and
    [--jobs] values. *)

module System = Semper_kernel.System
module Kernel = Semper_kernel.Kernel
module Protocol = Semper_kernel.Protocol
module Vpe = Semper_kernel.Vpe
module Cost = Semper_kernel.Cost
module Perms = Semper_caps.Perms
module Obs = Semper_obs.Obs

type sample = {
  b_name : string;
  b_off_cycles : int64;
  b_on_cycles : int64;
  b_off_ikc : int;  (** Ik_* messages put on the fabric, batching off *)
  b_on_ikc : int;   (** same workload phase, batching on (frames count as one) *)
  b_batches : int;  (** framed multi-messages shipped, batching on *)
  b_batched_msgs : int;  (** inner messages those frames carried *)
}

let await sys result =
  ignore (System.run sys);
  match !result with
  | Some r -> r
  | None -> failwith "batch bench: syscall did not complete"

let timed_syscall sys vpe call =
  let result = ref None in
  let t0 = System.now sys in
  System.syscall sys vpe call (fun r -> result := Some (r, System.now sys));
  match await sys result with
  | Protocol.R_err e, _ -> failwith ("batch bench: " ^ Protocol.error_to_string e)
  | r, t1 -> (r, Int64.sub t1 t0)

let sel_of = function
  | Protocol.R_sel s -> s
  | r -> Format.kasprintf failwith "batch bench: expected selector, got %a" Protocol.pp_reply r

let kstat sys f =
  List.fold_left (fun acc k -> acc + f (Kernel.stats k)) 0 (System.kernels sys)

let ikc_sent sys = kstat sys (fun (s : Kernel.stats) -> s.ikc_sent)
let batches_sent sys = kstat sys (fun (s : Kernel.stats) -> s.batches_sent)
let batched_msgs sys = kstat sys (fun (s : Kernel.stats) -> s.batched_msgs)

(* One measured phase: [build sys] constructs the capability topology,
   [measure sys] issues the timed operation. Message counters are
   read as a delta around the measured phase, so both modes compare
   the same traffic. Returns (cycles, ikc, batches, batched). *)
let phase ~batching ~kernels ~user_pes ~build ~measure =
  let sys =
    System.create (System.config ~kernels ~user_pes_per_kernel:user_pes ~batching ())
  in
  let ctx = build sys in
  let ikc0 = ikc_sent sys in
  let cycles = measure sys ctx in
  (cycles, ikc_sent sys - ikc0, batches_sent sys, batched_msgs sys)

let run_pair ~name ~kernels ~user_pes ~build ~measure =
  let off_cycles, off_ikc, _, _ =
    phase ~batching:false ~kernels ~user_pes ~build ~measure
  in
  let on_cycles, on_ikc, batches, batched =
    phase ~batching:true ~kernels ~user_pes ~build ~measure
  in
  {
    b_name = name;
    b_off_cycles = off_cycles;
    b_on_cycles = on_cycles;
    b_off_ikc = off_ikc;
    b_on_ikc = on_ikc;
    b_batches = batches;
    b_batched_msgs = batched;
  }

(* Figure 4's worst case: a kernel-spanning chain, revoked from the
   root. Without batching every link costs a revoke request plus its
   reply; the requester-handoff continuation folds the child into the
   reply the responder owes anyway. *)
let chain ~len =
  run_pair
    ~name:(Printf.sprintf "chain_spanning_len%d" len)
    ~kernels:2 ~user_pes:4
    ~build:(fun sys ->
      let v1 = System.spawn_vpe sys ~kernel:0 in
      let v3 = System.spawn_vpe sys ~kernel:1 in
      let r, _ = timed_syscall sys v1 (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }) in
      let root = sel_of r in
      let rec build i owner peer sel =
        if i < len then begin
          let r, _ =
            timed_syscall sys peer
              (Protocol.Sys_obtain_from { donor_vpe = owner.Vpe.id; donor_sel = sel })
          in
          build (i + 1) peer owner (sel_of r)
        end
      in
      build 0 v1 v3 root;
      (v1, root))
    ~measure:(fun sys (v1, root) ->
      let _, cycles = timed_syscall sys v1 (Protocol.Sys_revoke { sel = root; own = true }) in
      cycles)

(* Figure 5's shape: a flat tree of [children] copies spread over
   [extra_kernels] other kernels. The revoke wave ships one marked
   subtree descriptor per destination kernel instead of one request per
   child. *)
let tree ~extra_kernels ~children =
  run_pair
    ~name:(Printf.sprintf "tree_%dk_children%d" (1 + extra_kernels) children)
    ~kernels:(1 + extra_kernels)
    ~user_pes:(min 190 (children + 4))
    ~build:(fun sys ->
      let root_vpe = System.spawn_vpe sys ~kernel:0 in
      let r, _ =
        timed_syscall sys root_vpe (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw })
      in
      let root = sel_of r in
      for i = 0 to children - 1 do
        let k = 1 + (i mod extra_kernels) in
        let v = System.spawn_vpe sys ~kernel:k in
        let r, _ =
          timed_syscall sys v
            (Protocol.Sys_obtain_from { donor_vpe = root_vpe.Vpe.id; donor_sel = root })
        in
        ignore (sel_of r)
      done;
      (root_vpe, root))
    ~measure:(fun sys (root_vpe, root) ->
      let _, cycles =
        timed_syscall sys root_vpe (Protocol.Sys_revoke { sel = root; own = true })
      in
      cycles)

(* A burst of concurrent spanning obtains: dense same-direction traffic
   where the DTU slot window actually coalesces unrelated messages
   (revocation chains never give it two messages in one window). *)
let burst ~n =
  run_pair
    ~name:(Printf.sprintf "obtain_burst%d" n)
    ~kernels:2 ~user_pes:(n + 2)
    ~build:(fun sys ->
      let donor = System.spawn_vpe sys ~kernel:0 in
      let r, _ =
        timed_syscall sys donor (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw })
      in
      let sel = sel_of r in
      let vpes = List.init n (fun _ -> System.spawn_vpe sys ~kernel:1) in
      (donor, sel, vpes))
    ~measure:(fun sys (donor, sel, vpes) ->
      let t0 = System.now sys in
      List.iter
        (fun v ->
          System.syscall sys v
            (Protocol.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel = sel })
            (fun _ -> ()))
        vpes;
      ignore (System.run sys);
      Int64.sub (System.now sys) t0)

type point = Chain of int | Tree of int * int | Burst of int

let points = function
  | Entry.Full ->
    [ Chain 20; Chain 60; Chain 100; Tree (12, 48); Tree (12, 128); Burst 32 ]
  | Smoke -> [ Chain 10; Tree (4, 16); Burst 8 ]

let compute = function
  | Chain len -> chain ~len
  | Tree (extra_kernels, children) -> tree ~extra_kernels ~children
  | Burst n -> burst ~n

let speedup s =
  if Int64.compare s.b_on_cycles 0L > 0 then
    Int64.to_float s.b_off_cycles /. Int64.to_float s.b_on_cycles
  else 1.0

let sample_json s =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str s.b_name);
      ("cycles_off", Obs.Json.Int (Int64.to_int s.b_off_cycles));
      ("cycles_on", Obs.Json.Int (Int64.to_int s.b_on_cycles));
      ("ikc_off", Obs.Json.Int s.b_off_ikc);
      ("ikc_on", Obs.Json.Int s.b_on_ikc);
      ("batches_sent", Obs.Json.Int s.b_batches);
      ("batched_msgs", Obs.Json.Int s.b_batched_msgs);
      ("speedup", Obs.Json.Float (speedup s));
    ]

let render _ samples =
  {
    Entry.text =
      Entry.text
        [
          {
            title = "IKC batching: same workload with slot-window coalescing off / on";
            header =
              [
                "workload"; "cycles_off"; "cycles_on"; "speedup"; "ikc_off"; "ikc_on"; "frames";
                "framed_msgs";
              ];
            rows =
              List.map
                (fun s ->
                  [
                    s.b_name;
                    Int64.to_string s.b_off_cycles;
                    Int64.to_string s.b_on_cycles;
                    Printf.sprintf "%.2fx" (speedup s);
                    string_of_int s.b_off_ikc;
                    string_of_int s.b_on_ikc;
                    string_of_int s.b_batches;
                    string_of_int s.b_batched_msgs;
                  ])
                samples;
          };
        ];
    json =
      Obs.Json.Obj
        [
          ("schema", Obs.Json.Str "semperos-batch-1");
          ("jobs", Obs.Json.Int 1);
          ("samples", Obs.Json.Arr (List.map sample_json samples));
        ];
  }

let entry =
  {
    Entry.name = "batch";
    doc = "BENCH_batch.json: chain, tree and burst workloads with IKC batching off and on";
    points;
    compute;
    render;
    host_timed = false;
    shape =
      Some
        {
          Entry.schema = "semperos-batch-1";
          keys =
            [
              ("jobs", Entry.Any);
              ( "samples",
                Entry.Rows
                  (Entry.leaves
                     [
                       "name"; "cycles_off"; "cycles_on"; "ikc_off"; "ikc_on"; "batches_sent";
                       "batched_msgs"; "speedup";
                     ]) );
            ];
        };
  }
