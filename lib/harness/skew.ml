module System = Semper_kernel.System
module Kernel = Semper_kernel.Kernel
module Vpe = Semper_kernel.Vpe
module P = Semper_kernel.Protocol
module Perms = Semper_caps.Perms
module Engine = Semper_sim.Engine
module Server = Semper_sim.Server
module M3fs = Semper_m3fs.M3fs
module Client = Semper_m3fs.Client
module Balance = Semper_balance.Balance
module Obs = Semper_obs.Obs

type config = {
  kernels : int;
  pes_per_kernel : int;
  clients : int;
  rounds : int;
  derives : int;
  fs_every : int;
  fs_bytes : int;
  compute : int64;
  spread : bool;
  policy : Balance.Policy.t;
  interval : int64;
  fault : Semper_fault.Fault.profile option;
}

let default_config =
  {
    kernels = 4;
    pes_per_kernel = 8;
    clients = 6;
    rounds = 30;
    derives = 8;
    fs_every = 5;
    fs_bytes = 4096;
    compute = 30_000L;
    spread = false;
    policy = Balance.Policy.default_threshold;
    interval = 25_000L;
    fault = None;
  }

type result = {
  completion : int64;
  occupancy : float array;
  max_occupancy : float;
  migrations : Balance.migration list;
  cap_ops : int;
  audit_errors : string list;
}

let ok who = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "Skew.run: %s: %s" who e)

let sel_of who = function
  | P.R_sel s -> s
  | r -> failwith (Format.asprintf "Skew.run: %s: unexpected reply %a" who P.pp_reply r)

(* One client: [rounds] rounds of capability churn, a file burst every
   [fs_every] rounds, and a compute gap between rounds. Everything is
   CPS on the simulation engine; [finished] runs at completion time. *)
let run_client cfg sys (client : Client.t) ~index ~finished =
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
  let rec round r =
    if r >= cfg.rounds then finished ()
    else
      System.syscall sys vpe (P.Sys_alloc_mem { size = 4096L; perms = Perms.rw }) (fun reply ->
          let root = sel_of "alloc_mem" reply in
          let rec derive d =
            if d >= cfg.derives then
              System.syscall sys vpe (P.Sys_revoke { sel = root; own = true }) (fun reply ->
                  (match reply with
                  | P.R_ok -> ()
                  | r -> failwith (Format.asprintf "Skew.run: revoke: %a" P.pp_reply r));
                  fs_burst r (fun () ->
                      Engine.after engine cfg.compute (fun () -> round (r + 1))))
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

let run cfg =
  if cfg.kernels < 2 then invalid_arg "Skew.run: need at least two kernels";
  if (not cfg.spread) && cfg.clients + 1 > cfg.pes_per_kernel then
    invalid_arg "Skew.run: hotspot group cannot fit all clients plus the service";
  let sys =
    System.create
      (System.config ~kernels:cfg.kernels ~user_pes_per_kernel:cfg.pes_per_kernel
         ?fault:cfg.fault ())
  in
  let engine = System.engine sys in
  (* The file service is pinned at kernel 0: its traffic keeps spanning
     into the hotspot group no matter where clients end up. *)
  let fs = M3fs.create sys ~kernel:0 ~name:"m3fs" ~files:[] () in
  let remaining = ref cfg.clients in
  let completion = ref 0L in
  let balancer =
    Balance.create ~policy:cfg.policy ~interval:cfg.interval
      ~stop_when:(fun () -> !remaining = 0)
      sys
  in
  for i = 0 to cfg.clients - 1 do
    let kernel = if cfg.spread then i mod cfg.kernels else 0 in
    let vpe = System.spawn_vpe sys ~kernel in
    (* Staggered starts: lock-step convoys of identical syscall
       sequences would be an artefact, not load. *)
    Engine.after engine (Int64.of_int (i * 1009)) (fun () ->
        Client.connect sys fs ~vpe (fun c ->
            let client = ok "connect" c in
            run_client cfg sys client ~index:i ~finished:(fun () ->
                decr remaining;
                if !remaining = 0 then completion := Engine.now engine)))
  done;
  Balance.start balancer;
  ignore (System.run sys);
  Balance.stop balancer;
  if !remaining > 0 then failwith "Skew.run: engine drained before all clients finished";
  let horizon = if !completion = 0L then 1L else !completion in
  let occupancy =
    Array.of_list
      (List.map (fun k -> Server.utilisation (Kernel.server k) ~horizon) (System.kernels sys))
  in
  let audit = Audit.run sys in
  {
    completion = !completion;
    occupancy;
    max_occupancy = Array.fold_left max 0.0 occupancy;
    migrations = Balance.migrations balancer;
    cap_ops = System.total_cap_ops sys;
    audit_errors = audit.Audit.errors;
  }

(* --------------------------------------------------------------- *)
(* Benchmark: static baseline vs threshold policy on the hotspot    *)

type point = Entry.preset * config

let config_of_preset = function
  | Entry.Full -> default_config
  | Smoke -> { default_config with clients = 4; rounds = 12; pes_per_kernel = 6 }

let points preset =
  let cfg = config_of_preset preset in
  [ (preset, { cfg with policy = Balance.Policy.Static }); (preset, cfg) ]

let side_json cfg (r : result) =
  Obs.Json.Obj
    [
      ( "policy",
        Obs.Json.Str (match cfg.policy with Balance.Policy.Static -> "static" | _ -> "threshold")
      );
      ("completion_cycles", Obs.Json.Int (Int64.to_int r.completion));
      ("max_occupancy", Obs.Json.Float r.max_occupancy);
      ( "occupancy",
        Obs.Json.Arr (Array.to_list (Array.map (fun o -> Obs.Json.Float o) r.occupancy)) );
      ("migrations", Obs.Json.Int (List.length r.migrations));
      ( "sequence",
        Obs.Json.Arr
          (List.map
             (fun (m : Balance.migration) ->
               Obs.Json.Obj
                 [
                   ("at", Obs.Json.Int (Int64.to_int m.Balance.m_at));
                   ("vpe", Obs.Json.Int m.Balance.m_vpe);
                   ("src", Obs.Json.Int m.Balance.m_src);
                   ("dst", Obs.Json.Int m.Balance.m_dst);
                 ])
             r.migrations) );
      ("cap_ops", Obs.Json.Int r.cap_ops);
    ]

let render pts rs =
  match List.combine pts rs with
  | [ ((preset, static_cfg), static); ((_, cfg), balanced) ] ->
    (match (static.audit_errors, balanced.audit_errors) with
    | [], [] -> ()
    | errs, errs' ->
      failwith
        (Printf.sprintf "balance: capability audit failed: %s"
           (String.concat "; " (errs @ errs'))));
    let speedup =
      if balanced.completion > 0L then
        Int64.to_float static.completion /. Int64.to_float balanced.completion
      else 0.0
    in
    let row name (r : result) =
      [
        name;
        Int64.to_string r.completion;
        Printf.sprintf "%.3f" r.max_occupancy;
        String.concat " "
          (Array.to_list (Array.map (fun o -> Printf.sprintf "%.2f" o) r.occupancy));
        string_of_int (List.length r.migrations);
      ]
    in
    {
      Entry.text =
        Entry.text
          [
            {
              title =
                Printf.sprintf "Skewed workload: %d clients pinned to group 0 of %d (balancer %s)"
                  cfg.clients cfg.kernels (Entry.preset_to_string preset);
              header = [ "policy"; "completion"; "max occ"; "occupancy/kernel"; "migrations" ];
              rows = [ row "static" static; row "balanced" balanced ];
            };
          ]
        ^ Printf.sprintf "  completion speedup: %.2fx, max-occupancy: %.3f -> %.3f\n" speedup
            static.max_occupancy balanced.max_occupancy;
      json =
        Obs.Json.Obj
          [
            ("schema", Obs.Json.Str "semperos-balance-1");
            ( "config",
              Obs.Json.Obj
                [
                  ("kernels", Obs.Json.Int cfg.kernels);
                  ("clients", Obs.Json.Int cfg.clients);
                  ("rounds", Obs.Json.Int cfg.rounds);
                  ("derives", Obs.Json.Int cfg.derives);
                  ("fs_every", Obs.Json.Int cfg.fs_every);
                  ("compute_cycles", Obs.Json.Int (Int64.to_int cfg.compute));
                  ("interval_cycles", Obs.Json.Int (Int64.to_int cfg.interval));
                ] );
            ("static", side_json static_cfg static);
            ("balanced", side_json cfg balanced);
            ( "improvement",
              Obs.Json.Obj
                [
                  ("completion_speedup", Obs.Json.Float speedup);
                  ( "max_occupancy_reduction",
                    Obs.Json.Float (static.max_occupancy -. balanced.max_occupancy) );
                ] );
          ];
    }
  | _ -> invalid_arg "Skew: result shape mismatch"

let entry =
  let side = Entry.Keys (Entry.leaves [ "completion_cycles"; "max_occupancy"; "sequence" ]) in
  {
    Entry.name = "balance";
    doc = "BENCH_balance.json: skewed workload, static placement against the load balancer";
    points;
    compute = (fun (_, cfg) -> run cfg);
    render;
    host_timed = false;
    shape =
      Some
        {
          Entry.schema = "semperos-balance-1";
          keys =
            [
              ("config", Entry.Any);
              ("static", side);
              ("balanced", side);
              ("improvement", Entry.Keys (Entry.leaves [ "completion_speedup" ]));
            ];
        };
  }
