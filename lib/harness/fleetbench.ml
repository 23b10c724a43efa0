module System = Semper_kernel.System
module Kernel = Semper_kernel.Kernel
module Vpe = Semper_kernel.Vpe
module P = Semper_kernel.Protocol
module Perms = Semper_caps.Perms
module Mapdb = Semper_caps.Mapdb
module Membership = Semper_ddl.Membership
module Engine = Semper_sim.Engine
module Server = Semper_sim.Server
module M3fs = Semper_m3fs.M3fs
module Client = Semper_m3fs.Client
module Balance = Semper_balance.Balance
module Fleet = Semper_fleet.Fleet
module Obs = Semper_obs.Obs

type config = {
  boot : int;  (** kernels Active at boot *)
  spares : int;  (** kernels provisioned Spare, available to join *)
  pes_per_kernel : int;
  base_clients : int;  (** run the full [base_rounds] *)
  surge_clients : int;  (** run [surge_rounds], then exit — the load spike *)
  base_rounds : int;
  surge_rounds : int;
  derives : int;
  fs_every : int;
  fs_bytes : int;
  compute : int64;  (** base clients' inter-round compute gap *)
  surge_compute : int64;  (** surge clients' gap — small, so the surge saturates *)
  policy : Balance.Fleet_policy.t;
  interval : int64;
  fault : Semper_fault.Fault.profile option;
}

let default_config =
  {
    boot = 2;
    spares = 2;
    pes_per_kernel = 8;
    base_clients = 4;
    surge_clients = 8;
    base_rounds = 60;
    surge_rounds = 24;
    derives = 8;
    fs_every = 5;
    fs_bytes = 4096;
    compute = 30_000L;
    surge_compute = 3_000L;
    policy = { Balance.Fleet_policy.default with min_active = 2 };
    interval = 25_000L;
    fault = None;
  }

type result = {
  completion : int64;  (** cycle the last client finished *)
  surge_done : int64;  (** cycle the last surge client exited — the loaded phase *)
  settled : int64;  (** cycle the fleet was back at [boot] Active kernels *)
  transitions : Fleet.Auto.transition list;
  peak_active : int;
  final_active : int;
  max_wave : int64;  (** longest handoff wave — the syscall-stall bound *)
  transition_errors : string list;
  occupancy : float array;
  cap_ops : int;
  audit_errors : string list;
}

let ok who = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "Fleetbench.run: %s: %s" who e)

let sel_of who = function
  | P.R_sel s -> s
  | r -> failwith (Format.asprintf "Fleetbench.run: %s: unexpected reply %a" who P.pp_reply r)

(* One client: capability churn plus a file burst, identical to the
   skew benchmark's loop, except short-lived clients issue [Sys_exit]
   when their rounds run out — that is what makes the load recede. *)
let run_client cfg sys (client : Client.t) ~index ~rounds ~compute ~exit_after ~finished =
  let vpe = Client.vpe client in
  let engine = System.engine sys in
  let path = Printf.sprintf "/hot%d" index in
  let fs_burst r k =
    if cfg.fs_every > 0 && (r + 1) mod cfg.fs_every = 0 then
      Client.open_ client path ~write:true ~create:true (fun fd ->
          let fd = ok "open" fd in
          Client.write client ~fd ~bytes:cfg.fs_bytes (fun w ->
              ok "write" w;
              Client.close client ~fd (fun c ->
                  ok "close" c;
                  k ())))
    else k ()
  in
  let finish () =
    if exit_after then
      System.syscall sys vpe P.Sys_exit (fun reply ->
          (match reply with
          | P.R_ok -> ()
          | r -> failwith (Format.asprintf "Fleetbench.run: exit: %a" P.pp_reply r));
          finished ())
    else finished ()
  in
  let rec round r =
    if r >= rounds then finish ()
    else
      System.syscall sys vpe (P.Sys_alloc_mem { size = 4096L; perms = Perms.rw }) (fun reply ->
          let root = sel_of "alloc_mem" reply in
          let rec derive d =
            if d >= cfg.derives then
              System.syscall sys vpe (P.Sys_revoke { sel = root; own = true }) (fun reply ->
                  (match reply with
                  | P.R_ok -> ()
                  | r -> failwith (Format.asprintf "Fleetbench.run: revoke: %a" P.pp_reply r));
                  fs_burst r (fun () ->
                      Engine.after engine compute (fun () -> round (r + 1))))
            else
              System.syscall sys vpe
                (P.Sys_derive_mem { sel = root; offset = 0L; size = 64L; perms = Perms.r })
                (fun reply ->
                  ignore (sel_of "derive_mem" reply);
                  derive (d + 1))
          in
          derive 0)
  in
  round 0

(* Safety checks at each transition's completion (the full capability
   audit needs an idle engine and runs once at the end): a retired
   kernel must hold nothing, a joined kernel must own its home
   partition range again, and every kernel replica must agree on the
   transitioned kernel's lifecycle state. *)
let transition_check sys (tr : Fleet.Auto.transition) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (match tr.Fleet.Auto.t_kind with
  | `Drain ->
    let k = System.kernel sys tr.Fleet.Auto.t_kernel in
    let caps = Mapdb.count (Kernel.mapdb k) in
    let vpes = Kernel.vpe_count k in
    if caps > 0 then err "kernel %d retired with %d capability records" tr.Fleet.Auto.t_kernel caps;
    if vpes > 0 then err "kernel %d retired with %d VPEs" tr.Fleet.Auto.t_kernel vpes
  | `Join ->
    List.iter
      (fun pe ->
        match Membership.kernel_of_pe (System.membership sys) pe with
        | owner when owner = tr.Fleet.Auto.t_kernel -> ()
        | owner -> err "joined kernel %d: home PE %d routed to %d" tr.Fleet.Auto.t_kernel pe owner
        | exception Membership.Mid_handoff _ ->
          err "joined kernel %d: home PE %d still mid-handoff" tr.Fleet.Auto.t_kernel pe)
      (System.home_pes sys ~kernel:tr.Fleet.Auto.t_kernel));
  let expect = Membership.kernel_state (System.membership sys) tr.Fleet.Auto.t_kernel in
  List.iter
    (fun k ->
      if Membership.kernel_state (Kernel.membership k) tr.Fleet.Auto.t_kernel <> expect then
        err "kernel %d replica disagrees on kernel %d's lifecycle state" (Kernel.id k)
          tr.Fleet.Auto.t_kernel)
    (System.kernels sys);
  List.rev !errs

let run ?(elastic = true) cfg =
  if cfg.boot < 2 then invalid_arg "Fleetbench.run: need at least two boot kernels";
  let clients = cfg.base_clients + cfg.surge_clients in
  if (clients + cfg.boot - 1) / cfg.boot + 1 > cfg.pes_per_kernel then
    invalid_arg "Fleetbench.run: boot groups cannot fit all clients plus the service";
  let sys =
    System.create
      (System.config ~kernels:cfg.boot ~spare_kernels:cfg.spares
         ~user_pes_per_kernel:cfg.pes_per_kernel ?fault:cfg.fault ())
  in
  let engine = System.engine sys in
  (* The file service is pinned at kernel 0, which therefore can never
     drain — the autoscaler's safety gate knows that. *)
  let fs = M3fs.create sys ~kernel:0 ~name:"m3fs" ~files:[] () in
  let remaining = ref clients in
  let surge_remaining = ref cfg.surge_clients in
  let completion = ref 0L in
  let surge_done = ref 0L in
  let transition_errors = ref [] in
  let auto =
    Fleet.Auto.create ~policy:cfg.policy ~interval:cfg.interval
      (* Keep ticking after the last client finishes until the fleet has
         scaled back down to the boot size — the ramp-down is part of
         the deliverable. *)
      ~stop_when:(fun () ->
        !remaining = 0
        && List.length
             (List.filter
                (fun k -> Membership.kernel_state (System.membership sys) k = Membership.Active)
                (List.init (System.kernel_count sys) Fun.id))
           <= cfg.boot)
      ~on_transition:(fun tr -> transition_errors := !transition_errors @ transition_check sys tr)
      sys
  in
  for i = 0 to clients - 1 do
    let kernel = i mod cfg.boot in
    let vpe = System.spawn_vpe sys ~kernel in
    let surge = i >= cfg.base_clients in
    let rounds = if surge then cfg.surge_rounds else cfg.base_rounds in
    let compute = if surge then cfg.surge_compute else cfg.compute in
    Engine.after engine (Int64.of_int (i * 1009)) (fun () ->
        Client.connect sys fs ~vpe (fun c ->
            let client = ok "connect" c in
            run_client cfg sys client ~index:i ~rounds ~compute ~exit_after:surge ~finished:(fun () ->
                decr remaining;
                if surge then begin
                  decr surge_remaining;
                  if !surge_remaining = 0 then surge_done := Engine.now engine
                end;
                if !remaining = 0 then completion := Engine.now engine)))
  done;
  if elastic then Fleet.Auto.start auto;
  ignore (System.run sys);
  Fleet.Auto.stop auto;
  if !remaining > 0 then failwith "Fleetbench.run: engine drained before all clients finished";
  let transitions = Fleet.Auto.transitions auto in
  let active_now =
    List.length
      (List.filter
         (fun k -> Membership.kernel_state (System.membership sys) k = Membership.Active)
         (List.init (System.kernel_count sys) Fun.id))
  in
  let peak_active =
    List.fold_left
      (fun (cur, peak) (tr : Fleet.Auto.transition) ->
        let cur = match tr.Fleet.Auto.t_kind with `Join -> cur + 1 | `Drain -> cur - 1 in
        (cur, max peak cur))
      (cfg.boot, cfg.boot) transitions
    |> snd
  in
  let settled =
    List.fold_left
      (fun acc (tr : Fleet.Auto.transition) ->
        match tr.Fleet.Auto.t_finish with Some f when f > acc -> f | _ -> acc)
      !completion transitions
  in
  let max_wave =
    List.fold_left
      (fun acc (tr : Fleet.Auto.transition) -> max acc tr.Fleet.Auto.t_max_wave)
      0L transitions
  in
  let horizon = if settled = 0L then 1L else settled in
  let occupancy =
    Array.of_list
      (List.map (fun k -> Server.utilisation (Kernel.server k) ~horizon) (System.kernels sys))
  in
  let audit = Audit.run sys in
  {
    completion = !completion;
    surge_done = !surge_done;
    settled;
    transitions;
    peak_active;
    final_active = active_now;
    max_wave;
    transition_errors = !transition_errors;
    occupancy;
    cap_ops = System.total_cap_ops sys;
    audit_errors = audit.Audit.errors;
  }

(* --------------------------------------------------------------- *)
(* Benchmark: fixed two-kernel fleet vs elastic autoscaling         *)

type point = Entry.preset * bool * config

let config_of_preset = function
  | Entry.Full -> default_config
  | Smoke ->
    {
      default_config with
      spares = 1;
      base_clients = 2;
      surge_clients = 6;
      base_rounds = 36;
      surge_rounds = 14;
      pes_per_kernel = 6;
    }

let points preset =
  let cfg = config_of_preset preset in
  [ (preset, false, cfg); (preset, true, cfg) ]

let side_json (r : result) =
  Obs.Json.Obj
    [
      ("completion_cycles", Obs.Json.Int (Int64.to_int r.completion));
      ("surge_done_cycles", Obs.Json.Int (Int64.to_int r.surge_done));
      ("settled_cycles", Obs.Json.Int (Int64.to_int r.settled));
      ("peak_active", Obs.Json.Int r.peak_active);
      ("final_active", Obs.Json.Int r.final_active);
      ("max_wave_cycles", Obs.Json.Int (Int64.to_int r.max_wave));
      ( "occupancy",
        Obs.Json.Arr (Array.to_list (Array.map (fun o -> Obs.Json.Float o) r.occupancy)) );
      ("cap_ops", Obs.Json.Int r.cap_ops);
      ( "transitions",
        Obs.Json.Arr
          (List.map
             (fun (tr : Fleet.Auto.transition) ->
               Obs.Json.Obj
                 [
                   ( "kind",
                     Obs.Json.Str
                       (match tr.Fleet.Auto.t_kind with `Join -> "join" | `Drain -> "drain") );
                   ("kernel", Obs.Json.Int tr.Fleet.Auto.t_kernel);
                   ("start", Obs.Json.Int (Int64.to_int tr.Fleet.Auto.t_start));
                   ( "finish",
                     Obs.Json.Int
                       (match tr.Fleet.Auto.t_finish with Some f -> Int64.to_int f | None -> -1)
                   );
                   ("max_wave", Obs.Json.Int (Int64.to_int tr.Fleet.Auto.t_max_wave));
                 ])
             r.transitions) );
    ]

let render pts rs =
  match List.combine pts rs with
  | [ ((preset, _, cfg), fixed); (_, elastic) ] ->
    let fail_on who (r : result) =
      if r.audit_errors <> [] then
        failwith
          (Printf.sprintf "fleet: %s: capability audit failed: %s" who
             (String.concat "; " r.audit_errors));
      if r.transition_errors <> [] then
        failwith
          (Printf.sprintf "fleet: %s: transition checks failed: %s" who
             (String.concat "; " r.transition_errors))
    in
    fail_on "fixed" fixed;
    fail_on "elastic" elastic;
    (if elastic.final_active <> cfg.boot then
       failwith
         (Printf.sprintf "fleet: settled at %d active kernels, expected %d"
            elastic.final_active cfg.boot));
    let joins =
      List.length
        (List.filter (fun (t : Fleet.Auto.transition) -> t.Fleet.Auto.t_kind = `Join)
           elastic.transitions)
    in
    let drains = List.length elastic.transitions - joins in
    let speedup =
      if elastic.completion > 0L then
        Int64.to_float fixed.completion /. Int64.to_float elastic.completion
      else 0.0
    in
    (* The surge phase is where the extra kernels earn their keep — base
       clients are compute-bound either way. *)
    let surge_speedup =
      if elastic.surge_done > 0L then
        Int64.to_float fixed.surge_done /. Int64.to_float elastic.surge_done
      else 0.0
    in
    let row name (r : result) =
      [
        name;
        Int64.to_string r.completion;
        Int64.to_string r.surge_done;
        string_of_int r.peak_active;
        string_of_int r.final_active;
        string_of_int (List.length r.transitions);
        Int64.to_string r.max_wave;
      ]
    in
    {
      Entry.text =
        Entry.text
          [
            {
              title =
                Printf.sprintf
                  "Elastic fleet: %d+%d surge clients on %d boot kernels, %d spares (autoscaler %s)"
                  cfg.base_clients cfg.surge_clients cfg.boot cfg.spares
                  (Entry.preset_to_string preset);
              header =
                [ "fleet"; "completion"; "surge done"; "peak act"; "final act"; "transitions"; "max wave" ];
              rows = [ row "fixed" fixed; row "elastic" elastic ];
            };
          ]
        ^ Printf.sprintf
            "  %d joins, %d drains; surge speedup %.2fx, completion speedup %.2fx; max stall %Ld cycles\n"
            joins drains surge_speedup speedup elastic.max_wave;
      json =
        Obs.Json.Obj
          [
            ("schema", Obs.Json.Str "semperos-fleet-1");
            ( "config",
              Obs.Json.Obj
                [
                  ("boot_kernels", Obs.Json.Int cfg.boot);
                  ("spare_kernels", Obs.Json.Int cfg.spares);
                  ("base_clients", Obs.Json.Int cfg.base_clients);
                  ("surge_clients", Obs.Json.Int cfg.surge_clients);
                  ("base_rounds", Obs.Json.Int cfg.base_rounds);
                  ("surge_rounds", Obs.Json.Int cfg.surge_rounds);
                  ("compute_cycles", Obs.Json.Int (Int64.to_int cfg.compute));
                  ("surge_compute_cycles", Obs.Json.Int (Int64.to_int cfg.surge_compute));
                  ("interval_cycles", Obs.Json.Int (Int64.to_int cfg.interval));
                  ("high_water", Obs.Json.Float cfg.policy.Balance.Fleet_policy.high);
                  ("low_water", Obs.Json.Float cfg.policy.Balance.Fleet_policy.low);
                ] );
            ("fixed", side_json fixed);
            ("elastic", side_json elastic);
            ( "improvement",
              Obs.Json.Obj
                [
                  ("completion_speedup", Obs.Json.Float speedup);
                  ("surge_speedup", Obs.Json.Float surge_speedup);
                  ("joins", Obs.Json.Int joins);
                  ("drains", Obs.Json.Int drains);
                ] );
          ];
    }
  | _ -> invalid_arg "Fleetbench: result shape mismatch"

let entry =
  let side = Entry.Keys (Entry.leaves [ "peak_active"; "max_wave_cycles"; "transitions" ]) in
  {
    Entry.name = "fleet";
    doc = "BENCH_fleet.json: a fixed two-kernel fleet against elastic autoscaling under a surge";
    points;
    compute = (fun (_, elastic, cfg) -> run ~elastic cfg);
    render;
    host_timed = false;
    shape =
      Some
        {
          Entry.schema = "semperos-fleet-1";
          keys =
            [
              ("config", Entry.Any);
              ("fixed", side);
              ("elastic", side);
              ("improvement", Entry.Keys (Entry.leaves [ "surge_speedup" ]));
            ];
        };
  }
