module Obs = Semper_obs.Obs
module Engine = Semper_sim.Engine
module Workloads = Semper_trace.Workloads

type sample = {
  s_name : string;
  s_wall_s : float;
  s_events : int;
  s_events_per_s : float;
  s_cancelled : int;
  s_heap_peak : int;
  s_minor_collections : int;
  s_major_collections : int;
  s_promoted_words : float;
}

type point = { w_entry : string; w_preset : Entry.preset; w_extra : Experiment.config list }

(* With 32 services on 32 kernels every group hosts a service and the
   paper's placement keeps every session group-local, so Figure 6's
   grid alone never touches the inter-kernel retransmission machinery;
   the full preset therefore appends a services < kernels sweep of the
   same harness, which forces cross-group sessions and exercises the
   cancellable retry timers at application scale (see EXPERIMENTS.md). *)
let cross_group =
  List.concat_map
    (fun instances ->
      List.map (fun spec -> Experiment.config ~kernels:32 ~services:16 ~instances spec) Workloads.all)
    [ 64; 512 ]

let points preset =
  let p ?(extra = []) name = { w_entry = name; w_preset = preset; w_extra = extra } in
  [ p "table3"; p "fig4"; p "fig6" ~extra:(match preset with Entry.Full -> cross_group | Smoke -> []) ]

let compute_serially name preset =
  match List.find (fun e -> Entry.name e = name) Figures.all with
  | Entry.E e -> List.iter (fun p -> ignore (e.compute p)) (e.points preset)

let measure p =
  let p0 = Engine.Totals.processed () in
  let c0 = Engine.Totals.cancelled () in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  compute_serially p.w_entry p.w_preset;
  List.iter (fun c -> ignore (Experiment.run c)) p.w_extra;
  let wall = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let events = Engine.Totals.processed () - p0 in
  {
    s_name = p.w_entry;
    s_wall_s = wall;
    s_events = events;
    s_events_per_s = (if wall > 0.0 then float_of_int events /. wall else 0.0);
    s_cancelled = Engine.Totals.cancelled () - c0;
    s_heap_peak = Engine.Totals.heap_peak ();
    s_minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    s_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    s_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
  }

let sample_json s =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str s.s_name);
      ("wall_s", Obs.Json.Float s.s_wall_s);
      ("events_processed", Obs.Json.Int s.s_events);
      ("events_per_s", Obs.Json.Float s.s_events_per_s);
      ("events_cancelled", Obs.Json.Int s.s_cancelled);
      ("heap_peak", Obs.Json.Int s.s_heap_peak);
      ("gc_minor_collections", Obs.Json.Int s.s_minor_collections);
      ("gc_major_collections", Obs.Json.Int s.s_major_collections);
      ("gc_promoted_words", Obs.Json.Float s.s_promoted_words);
    ]

let render _ samples =
  {
    Entry.text =
      Entry.text
        [
          {
            title = "Wall-clock throughput of the simulator core (host-dependent)";
            header =
              [
                "workload"; "wall_s"; "events"; "events/s"; "cancelled"; "heap_peak"; "gc_minor";
                "gc_major"; "promoted_w";
              ];
            rows =
              List.map
                (fun s ->
                  [
                    s.s_name;
                    Printf.sprintf "%.3f" s.s_wall_s;
                    string_of_int s.s_events;
                    Printf.sprintf "%.0f" s.s_events_per_s;
                    string_of_int s.s_cancelled;
                    string_of_int s.s_heap_peak;
                    string_of_int s.s_minor_collections;
                    string_of_int s.s_major_collections;
                    Printf.sprintf "%.0f" s.s_promoted_words;
                  ])
                samples;
          };
        ];
    json =
      Obs.Json.Obj
        [
          ("schema", Obs.Json.Str "semperos-wallclock-2");
          ("jobs", Obs.Json.Int 1);
          ("workloads", Obs.Json.Arr (List.map sample_json samples));
        ];
  }

let entry =
  {
    Entry.name = "wallclock";
    doc = "BENCH_wallclock.json: host events/s regenerating table3, fig4 and fig6";
    points;
    compute = measure;
    render;
    host_timed = true;
    shape =
      Some
        {
          Entry.schema = "semperos-wallclock-2";
          keys =
            [
              ("jobs", Entry.Any);
              ( "workloads",
                Entry.Rows
                  (Entry.leaves
                     [
                       "name"; "wall_s"; "events_processed"; "events_per_s"; "events_cancelled";
                       "heap_peak"; "gc_minor_collections"; "gc_major_collections";
                       "gc_promoted_words";
                     ]) );
            ];
        };
  }
