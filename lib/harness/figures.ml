module Cost = Semper_kernel.Cost
module Workloads = Semper_trace.Workloads
module T = Semper_util.Table
open Entry

let sprintf = Printf.sprintf

(* [groups key pairs] splits (point, result) pairs into maximal runs of
   consecutive pairs whose points share [key]: the rows of a sweep. *)
let groups key pairs =
  List.fold_right
    (fun ((p, _) as x) acc ->
      match acc with
      | (((q, _) :: _) as g) :: rest when key q = key p -> (x :: g) :: rest
      | _ -> [ x ] :: acc)
    pairs []

let rec split_while f = function
  | x :: rest when f x ->
    let a, b = split_while f rest in
    (x :: a, b)
  | l -> ([], l)

(* One series row per group: x from the group's first point, one y per
   pair, column labels from the first group's points. *)
let plot ~title ~x_label ~label ~x ~y rows =
  let labels = match rows with r :: _ -> List.map (fun (p, _) -> label p) r | [] -> [] in
  let s = T.Series.create ~x_label ~labels in
  List.iter
    (fun row -> T.Series.add_row s ~x:(float_of_int (x (fst (List.hd row)))) (List.map y row))
    rows;
  series ~title s

(* A paper entry renders tables from its (point, result) pairs. *)
let paper ~name ~doc ~points ~compute ~render =
  E
    {
      name;
      doc;
      points;
      compute;
      render = (fun pts rs -> tables (render (List.combine pts rs)));
      host_timed = false;
      shape = None;
    }

let us (_, cycles) = Some (Int64.to_float cycles /. 2000.0)
let workload_name (c : Experiment.config) = c.Experiment.workload.Workloads.name

(* ------------------------------------------------------------------ *)
(* Table 3: runtimes of capability operations                          *)

let table3 =
  paper ~name:"table3" ~doc:"Table 3: exchange and revoke runtimes, local and group-spanning"
    ~points:(fun _ -> [ (Cost.Semperos, false); (Cost.Semperos, true); (Cost.M3, false) ])
    ~compute:(fun (mode, spanning) -> Microbench.exchange_revoke ~mode ~spanning)
    ~render:(function
      | [ (_, (sx, sr)); (_, (gx, gr)); (_, (mx, mr)) ] ->
        let row op scope measured paper m3_measured m3_paper =
          [ op; scope; Int64.to_string measured; paper; m3_measured; m3_paper ]
        in
        [
          {
            title = "Table 3: runtimes of capability operations (cycles)";
            header = [ "Operation"; "Scope"; "SemperOS"; "paper"; "M3"; "paper" ];
            rows =
              [
                row "Exchange" "Local" sx "3597" (Int64.to_string mx) "3250";
                row "Exchange" "Spanning" gx "6484" "-" "-";
                row "Revoke" "Local" sr "1997" (Int64.to_string mr) "1423";
                row "Revoke" "Spanning" gr "3876" "-" "-";
              ];
          };
        ]
      | _ -> invalid_arg "table3: result shape mismatch")

(* ------------------------------------------------------------------ *)
(* Figure 4: chain revocation                                          *)

let fig4 =
  paper ~name:"fig4" ~doc:"Figure 4: revoking capability chains over chain length"
    ~points:(fun preset ->
      List.concat_map
        (fun len ->
          List.map
            (fun (mode, spanning) -> Microbench.chain_spec ~mode ~spanning ~len ())
            [ (Cost.Semperos, false); (Cost.Semperos, true); (Cost.M3, false) ])
        (match preset with Smoke -> [ 0; 5 ] | Full -> List.init 11 (fun i -> 10 * i)))
    ~compute:Microbench.chain
    ~render:(fun pairs ->
      [
        plot
          ~title:
            "Figure 4: revoking capability chains (K cycles; paper @100: local ~95, spanning ~240, M3 ~45)"
          ~x_label:"chain_len"
          ~label:(fun (s : Microbench.chain_spec) ->
            sprintf "%s_%s_kcyc"
              (if s.c_spanning then "spanning" else "local")
              (match s.c_mode with Cost.Semperos -> "semperos" | Cost.M3 -> "m3"))
          ~x:(fun s -> s.Microbench.c_len)
          ~y:(fun (_, c) -> Some (Int64.to_float c /. 1000.0))
          (groups (fun s -> s.Microbench.c_len) pairs);
      ])

(* ------------------------------------------------------------------ *)
(* Figure 5: tree revocation across kernels                            *)

let fig5 =
  paper ~name:"fig5" ~doc:"Figure 5: parallel revocation of capability trees across kernels"
    ~points:(fun preset ->
      let counts, kernel_sets =
        match preset with
        | Smoke -> ([ 0; 16 ], [ 0; 4 ])
        | Full -> (List.init 9 (fun i -> 16 * i), [ 0; 1; 4; 8; 12 ])
      in
      List.concat_map
        (fun children ->
          List.map (fun extra_kernels -> Microbench.tree_spec ~extra_kernels ~children ()) kernel_sets)
        counts)
    ~compute:Microbench.tree
    ~render:(fun pairs ->
      [
        plot
          ~title:
            "Figure 5: parallel revocation of capability trees (us; paper: break-even at 80 children)"
          ~x_label:"children"
          ~label:(fun s -> sprintf "1+%d_kernels_us" s.Microbench.t_extra_kernels)
          ~x:(fun s -> s.Microbench.t_children)
          ~y:us
          (groups (fun s -> s.Microbench.t_children) pairs);
      ])

(* ------------------------------------------------------------------ *)
(* Table 4: capability operations of the applications                  *)

let table4 =
  paper ~name:"table4" ~doc:"Table 4: capability operations of the applications, 1 and 512 instances"
    ~points:(fun preset ->
      let kernels, services, instances, specs =
        match preset with Smoke -> (2, 2, 4, [ Workloads.tar ]) | Full -> (64, 64, 512, Workloads.all)
      in
      List.concat_map
        (fun spec ->
          [
            Experiment.config ~kernels:1 ~services:1 ~instances:1 spec;
            Experiment.config ~kernels ~services ~instances spec;
          ])
        specs)
    ~compute:Experiment.run
    ~render:(fun pairs ->
      [
        {
          title =
            "Table 4: capability operations (single instance and 512 instances on 64 kernels + 64 services)";
          header = [ "Benchmark"; "ops(1)"; "paper"; "ops/s(1)"; "paper"; "ops(512)"; "ops/s(512)" ];
          rows =
            List.map
              (function
                | [ ((p : Experiment.config), (s1 : Experiment.outcome)); (_, (sn : Experiment.outcome)) ] ->
                  let spec = p.Experiment.workload in
                  [
                    spec.Workloads.name;
                    string_of_int s1.Experiment.cap_ops;
                    string_of_int spec.Workloads.paper_cap_ops;
                    sprintf "%.0f" s1.Experiment.cap_ops_per_s;
                    string_of_int spec.Workloads.paper_cap_ops_per_s;
                    string_of_int sn.Experiment.cap_ops;
                    sprintf "%.0f" sn.Experiment.cap_ops_per_s;
                  ]
                | _ -> invalid_arg "table4: result shape mismatch")
              (groups workload_name pairs);
        };
      ])

(* ------------------------------------------------------------------ *)
(* Figures 6-9: parallel and system efficiency                         *)

let instances (c : Experiment.config) = c.Experiment.instances

(* The single-instance references that lead [pairs] are the columns;
   every following row holds the cells of one x value, each matched to
   its column by [column]. A column without a cell prints "-". *)
let reference_plot ~title ~x_label ~label ~x ~column ~eff pairs =
  let singles, cells = split_while (fun (p, _) -> instances p = 1) pairs in
  let s = T.Series.create ~x_label ~labels:(List.map (fun (p, _) -> label p) singles) in
  List.iter
    (fun row ->
      T.Series.add_row s
        ~x:(float_of_int (x (fst (List.hd row))))
        (List.map
           (fun (ref_point, single) ->
             List.find_map
               (fun (p, parallel) ->
                 if column p = column ref_point then Some (100.0 *. eff ~single ~parallel) else None)
               row)
           singles))
    (groups x cells);
  series ~title s

(* Figure 6: the single-instance reference of every workload, then the
   instance sweep with one column per workload. *)
let fig6 =
  paper ~name:"fig6" ~doc:"Figure 6: parallel efficiency of every application over instance counts"
    ~points:(fun preset ->
      let kernels, services, counts, specs =
        match preset with
        | Smoke -> (2, 1, [ 4 ], [ Workloads.tar ])
        | Full -> (32, 32, List.init 8 (fun i -> 64 * (i + 1)), Workloads.all)
      in
      List.map (fun spec -> Experiment.config ~kernels ~services ~instances:1 spec) specs
      @ List.concat_map
          (fun instances ->
            List.map (fun spec -> Experiment.config ~kernels ~services ~instances spec) specs)
          counts)
    ~compute:Experiment.run
    ~render:(fun pairs ->
      [
        reference_plot
          ~title:
            "Figure 6: parallel efficiency, 32 kernels + 32 services (paper @512: 70% (SQLite) .. 78% (tar))"
          ~x_label:"instances"
          ~label:(fun p -> workload_name p ^ "_pct")
          ~x:instances ~column:workload_name ~eff:Experiment.parallel_efficiency pairs;
      ])

(* Figures 7 and 8: per workload, one single-instance reference run and
   a (sweep value x instance count) grid, one series per workload. *)
let sweep ~name ~doc ~specs ~config_of ~label ~title =
  paper ~name ~doc
    ~points:(fun preset ->
      let specs, sweep_values, counts, single =
        match preset with
        | Smoke -> ([ Workloads.tar ], [ 1; 2 ], [ 4 ], 2)
        | Full -> (specs, [ 4; 8; 16; 32; 48; 64 ], [ 128; 256; 384; 512 ], 64)
      in
      List.concat_map
        (fun spec ->
          Experiment.config ~kernels:single ~services:single ~instances:1 spec
          :: List.concat_map
               (fun n -> List.map (fun v -> config_of ~single spec v n) sweep_values)
               counts)
        specs)
    ~compute:Experiment.run
    ~render:(fun pairs ->
      List.map
        (function
          | (p, single) :: grid ->
            plot ~title:(title (workload_name p)) ~x_label:"instances" ~label ~x:instances
              ~y:(fun (_, parallel) ->
                Some (100.0 *. Experiment.parallel_efficiency ~single ~parallel))
              (groups instances grid)
          | [] -> assert false)
        (groups workload_name pairs))

let fig7 =
  sweep ~name:"fig7" ~doc:"Figure 7: parallel efficiency with 64 kernels, varying services"
    ~specs:[ Workloads.tar; Workloads.sqlite ]
    ~config_of:(fun ~single spec services instances ->
      Experiment.config ~kernels:single ~services ~instances spec)
    ~label:(fun p -> sprintf "%ds_pct" p.Experiment.services)
    ~title:(sprintf "Figure 7 (%s): parallel efficiency with 64 kernels, varying services")

let fig8 =
  sweep ~name:"fig8" ~doc:"Figure 8: parallel efficiency with 64 services, varying kernels"
    ~specs:[ Workloads.postmark; Workloads.leveldb ]
    ~config_of:(fun ~single spec kernels instances ->
      Experiment.config ~kernels ~services:single ~instances spec)
    ~label:(fun p -> sprintf "%dk_pct" p.Experiment.kernels)
    ~title:(sprintf "Figure 8 (%s): parallel efficiency with 64 services, varying kernels")

(* Figure 9: system efficiency, OS PEs counted at zero. Per workload,
   one single-instance reference per (kernels, services) shape, then
   every (PE count, shape) cell with at least one instance per kernel;
   a shape without a cell at some PE count prints "-". *)
let fig9 =
  paper ~name:"fig9" ~doc:"Figure 9: system efficiency over total PE counts"
    ~points:(fun preset ->
      let shapes, pe_counts, specs =
        match preset with
        | Smoke -> ([ (1, 1); (2, 1) ], [ 4; 6 ], [ Workloads.tar ])
        | Full ->
          ( [ (8, 8); (16, 16); (32, 16); (32, 32); (48, 32); (64, 32) ],
            [ 128; 256; 384; 512; 640 ],
            [ Workloads.postmark; Workloads.sqlite ] )
      in
      List.concat_map
        (fun spec ->
          List.map
            (fun (kernels, services) -> Experiment.config ~kernels ~services ~instances:1 spec)
            shapes
          @ List.concat_map
              (fun pes ->
                List.filter_map
                  (fun (kernels, services) ->
                    let instances = pes - kernels - services in
                    if instances < kernels then None
                    else Some (Experiment.config ~kernels ~services ~instances spec))
                  shapes)
              pe_counts)
        specs)
    ~compute:Experiment.run
    ~render:(fun pairs ->
      let shape (c : Experiment.config) = (c.Experiment.kernels, c.Experiment.services) in
      List.map
        (fun group ->
          reference_plot
            ~title:
              (sprintf "Figure 9 (%s): system efficiency (OS PEs at zero; paper band 62-72%%)"
                 (workload_name (fst (List.hd group))))
            ~x_label:"PEs"
            ~label:(fun p -> sprintf "%dk%ds_pct" (fst (shape p)) (snd (shape p)))
            ~x:(fun p -> instances p + fst (shape p) + snd (shape p))
            ~column:shape ~eff:Experiment.system_efficiency group)
        (groups workload_name pairs))

(* ------------------------------------------------------------------ *)
(* Figure 10: Nginx webserver                                          *)

let fig10 =
  paper ~name:"fig10" ~doc:"Figure 10: Nginx requests/s over server processes"
    ~points:(fun preset ->
      let shapes, server_counts, duration =
        match preset with
        | Smoke -> ([ (1, 1); (2, 1) ], [ 2; 4 ], Some 200_000L)
        | Full ->
          ( [ (8, 8); (8, 16); (8, 32); (16, 16); (32, 16); (32, 32) ],
            List.init 8 (fun i -> 32 * (i + 1)),
            None )
      in
      List.concat_map
        (fun servers ->
          List.map
            (fun (kernels, services) -> Nginx.config ?duration ~kernels ~services ~servers ())
            shapes)
        server_counts)
    ~compute:Nginx.run
    ~render:(fun pairs ->
      [
        plot
          ~title:"Figure 10: Nginx requests/s (x1000; paper: near-linear with 32k/32s, flattening below)"
          ~x_label:"servers"
          ~label:(fun c -> sprintf "%dk%ds_kreq" c.Nginx.kernels c.Nginx.services)
          ~x:(fun c -> c.Nginx.servers)
          ~y:(fun (_, o) -> Some (o.Nginx.requests_per_s /. 1000.0))
          (groups (fun c -> c.Nginx.servers) pairs);
      ])

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md)                                               *)

type ablation =
  | Batching of Microbench.tree_spec  (** revoke message batching off / on *)
  | Broadcast of Microbench.tree_spec
      (** Barrelfish-style broadcast revocation (paper §6): relations are
          not stored, so a revoke messages every kernel and each scans
          its database; SemperOS's DDL links message only the kernels
          holding descendants *)
  | Burst of int  (** spanning obtains under the 4-in-flight IKC credit limit *)

let ablations =
  paper ~name:"ablations" ~doc:"ablations: revoke batching, broadcast revocation, in-flight limit"
    ~points:(fun preset ->
      let counts, extra, kernel_counts, children, background_caps, burst =
        match preset with
        | Smoke -> ([ 8 ], 2, [ 1; 3 ], 8, 100, 4)
        | Full -> ([ 16; 48; 80; 128 ], 12, [ 1; 3; 7; 15; 31; 63 ], 64, 2000, 32)
      in
      List.concat_map
        (fun children ->
          [
            Batching (Microbench.tree_spec ~extra_kernels:extra ~children ());
            Batching (Microbench.tree_spec ~batching:true ~extra_kernels:extra ~children ());
          ])
        counts
      @ List.concat_map
          (fun extra_kernels ->
            let t ?batching ?broadcast () =
              Broadcast
                (Microbench.tree_spec ?batching ?broadcast ~background_caps ~extra_kernels ~children ())
            in
            [ t (); t ~batching:true (); t ~broadcast:true () ])
          kernel_counts
      @ [ Burst burst ])
    ~compute:(function
      | Batching s | Broadcast s -> Microbench.tree s
      | Burst n -> Microbench.obtain_burst n)
    ~render:(fun pairs ->
      let pick f = List.filter_map (fun (p, c) -> Option.map (fun s -> (s, c)) (f p)) pairs in
      let batching = pick (function Batching s -> Some s | _ -> None) in
      let broadcast = pick (function Broadcast s -> Some s | _ -> None) in
      let bursts = pick (function Burst n -> Some n | _ -> None) in
      let first l = fst (List.hd l) in
      [
        plot
          ~title:
            (sprintf "Ablation: revoke message batching, 1+%d kernels (paper suggests batching in 5.2)"
               (first batching).Microbench.t_extra_kernels)
          ~x_label:"children"
          ~label:(fun s -> if s.Microbench.t_batching then "batching_us" else "no_batching_us")
          ~x:(fun s -> s.Microbench.t_children)
          ~y:us
          (groups (fun s -> s.Microbench.t_children) batching);
        plot
          ~title:
            (sprintf
               "Ablation: targeted (DDL links) vs Barrelfish-style broadcast revocation, %d children, %d background caps/kernel"
               (first broadcast).Microbench.t_children (first broadcast).Microbench.t_background_caps)
          ~x_label:"kernels"
          ~label:(fun s ->
            if s.Microbench.t_broadcast then "broadcast_us"
            else if s.Microbench.t_batching then "targeted_batched_us"
            else "targeted_us")
          ~x:(fun s -> 1 + s.Microbench.t_extra_kernels)
          ~y:us
          (groups (fun s -> s.Microbench.t_extra_kernels) broadcast);
        {
          title = "Ablation: burst of spanning obtains under the 4-in-flight IKC credit limit";
          header = [ "burst"; "makespan_cycles"; "per_op_cycles" ];
          rows =
            List.map
              (fun (n, c) ->
                [ string_of_int n; Int64.to_string c; Int64.to_string (Int64.div c (Int64.of_int n)) ])
              bursts;
        };
      ])

let all = [ table3; fig4; fig5; table4; fig6; fig7; fig8; fig9; fig10; ablations ]
