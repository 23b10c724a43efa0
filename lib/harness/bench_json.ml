module Json = Semper_obs.Obs.Json
module Cost = Semper_kernel.Cost
module Workloads = Semper_trace.Workloads

let write ~path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* Both documents print nothing but the "wrote" line. *)
let output json = { Entry.text = ""; json }

(* ------------------------------------------------------------------ *)
(* BENCH_micro.json: Table 3 + Figure 4 headline numbers               *)

type micro_point = Exchange of bool (* spanning *) | Chain of Microbench.chain_spec

(* One local and one spanning measurement per length, interleaved so
   each length's pair stays adjacent in the point list. *)
let micro_points lens =
  [ Exchange false; Exchange true ]
  @ List.concat_map
      (fun len ->
        List.map
          (fun spanning -> Chain (Microbench.chain_spec ~mode:Cost.Semperos ~spanning ~len ()))
          [ false; true ])
      lens

let default_lens = [ 0; 20; 40; 60; 80; 100 ]

let micro_spec =
  {
    Entry.name = "micro";
    doc = "BENCH_micro.json: Table 3 and Figure 4 headline cycles";
    points = (function Entry.Smoke -> micro_points [ 0; 10 ] | Full -> micro_points default_lens);
    compute =
      (function
      | Exchange spanning ->
        let x, r = Microbench.exchange_revoke ~mode:Cost.Semperos ~spanning in
        [ x; r ]
      | Chain s -> [ Microbench.chain s ]);
    render =
      (fun pts rs ->
        let open Json in
        let micro_row op scope cycles paper =
          Obj
            [
              ("op", Str op);
              ("scope", Str scope);
              ("cycles", Int (Int64.to_int cycles));
              ("paper_cycles", Int paper);
            ]
        in
        let rec chain_rows = function
          | [] -> []
          | (Chain s, [ local ]) :: (_, [ spanning ]) :: rest ->
            Obj
              [
                ("len", Int s.Microbench.c_len);
                ("local_cycles", Int (Int64.to_int local));
                ("spanning_cycles", Int (Int64.to_int spanning));
              ]
            :: chain_rows rest
          | _ -> invalid_arg "micro: result shape mismatch"
        in
        match List.combine pts rs with
        | (_, [ sx; sr ]) :: (_, [ gx; gr ]) :: chains ->
          output
            (Obj
               [
                 ( "table3",
                   Arr
                     [
                       micro_row "exchange" "local" sx 3597;
                       micro_row "exchange" "spanning" gx 6484;
                       micro_row "revoke" "local" sr 1997;
                       micro_row "revoke" "spanning" gr 3876;
                     ] );
                 ("fig4_chain_revocation", Arr (chain_rows chains));
               ])
        | _ -> invalid_arg "micro: result shape mismatch");
    host_timed = false;
    shape =
      Some
        {
          Entry.schema = "BENCH_micro.json";
          keys =
            [
              ("table3", Entry.Rows (Entry.leaves [ "op"; "scope"; "cycles"; "paper_cycles" ]));
              ( "fig4_chain_revocation",
                Entry.Rows (Entry.leaves [ "len"; "local_cycles"; "spanning_cycles" ]) );
            ];
        };
  }

let micro ?jobs ?(lens = default_lens) () =
  let pts = micro_points lens in
  (micro_spec.render pts (Entry.map ?jobs micro_spec pts)).Entry.json

(* ------------------------------------------------------------------ *)
(* BENCH_apps.json: single-instance application runs (Table 4, left)   *)

let apps_points workloads =
  List.map (fun spec -> Experiment.config ~kernels:1 ~services:1 ~instances:1 spec) workloads

let apps_spec =
  {
    Entry.name = "apps";
    doc = "BENCH_apps.json: single-instance application runs (Table 4, left half)";
    points =
      (function
      | Entry.Smoke -> apps_points [ Workloads.tar; Workloads.find ]
      | Full -> apps_points Workloads.all);
    compute = Experiment.run;
    render =
      (fun pts rs ->
        let open Json in
        let app (cfg : Experiment.config) (o : Experiment.outcome) =
          let spec = cfg.Experiment.workload in
          Obj
            [
              ("workload", Str spec.Workloads.name);
              ("cap_ops", Int o.Experiment.cap_ops);
              ("paper_cap_ops", Int spec.Workloads.paper_cap_ops);
              ("cap_ops_per_s", Float o.Experiment.cap_ops_per_s);
              ("makespan_cycles", Int (Int64.to_int o.Experiment.max_runtime));
              ("exchanges_spanning", Int o.Experiment.exchanges_spanning);
              ("revokes_spanning", Int o.Experiment.revokes_spanning);
            ]
        in
        output (Obj [ ("table4_single", Arr (List.map2 app pts rs)) ]));
    host_timed = false;
    shape =
      Some
        {
          Entry.schema = "BENCH_apps.json";
          keys =
            [
              ( "table4_single",
                Entry.Rows
                  (Entry.leaves
                     [
                       "workload"; "cap_ops"; "paper_cap_ops"; "cap_ops_per_s"; "makespan_cycles";
                       "exchanges_spanning"; "revokes_spanning";
                     ]) );
            ];
        };
  }

let apps ?jobs ?(workloads = Workloads.all) () =
  let pts = apps_points workloads in
  (apps_spec.render pts (Entry.map ?jobs apps_spec pts)).Entry.json

let entries = [ Entry.E micro_spec; Entry.E apps_spec ]
