module Engine = Semper_sim.Engine
module Obs = Semper_obs.Obs

type sample = {
  s_op : string;
  s_pending : int;
  s_wall_s : float;
  s_ops_per_s : float;
}

let sizes_of_preset = function
  | Entry.Full -> [ 1_000; 100_000; 1_000_000 ]
  | Smoke -> [ 1_000; 10_000 ]

(* Event times spread over an 8n-cycle window by a fixed odd stride:
   the wheel sees traffic across several levels (not one hot slot),
   identically on every run. *)
let time_of ~n i = Int64.of_int (i * 7919 mod (8 * n))

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* The no-op callback shared by every event, so allocation of closures
   does not drown the queue operations being measured. *)
let nop () = ()

let fill e n =
  for i = 0 to n - 1 do
    Engine.at e (time_of ~n i) nop
  done

let measure_op op n =
  match op with
  | "schedule" ->
    let e = Engine.create () in
    time (fun () -> fill e n)
  | "cancel" ->
    let e = Engine.create () in
    let hs = Array.init n (fun i -> Engine.at_cancellable e (time_of ~n i) nop) in
    time (fun () -> Array.iter (fun h -> Engine.cancel e h) hs)
  | "drain" ->
    let e = Engine.create () in
    fill e n;
    time (fun () -> ignore (Engine.run e))
  | _ -> invalid_arg "Enginebench.measure_op: unknown operation"

let ops = [ "schedule"; "cancel"; "drain" ]

let measure (op, n) =
  let wall = measure_op op n in
  {
    s_op = op;
    s_pending = n;
    s_wall_s = wall;
    s_ops_per_s = (if wall > 0.0 then float_of_int n /. wall else 0.0);
  }

let sample_json s =
  Obs.Json.Obj
    [
      (* The schema keeps the column from when a heap backend ran too. *)
      ("backend", Obs.Json.Str "wheel");
      ("op", Obs.Json.Str s.s_op);
      ("pending", Obs.Json.Int s.s_pending);
      ("wall_s", Obs.Json.Float s.s_wall_s);
      ("ops_per_s", Obs.Json.Float s.s_ops_per_s);
    ]

let render _ samples =
  {
    Entry.text =
      Entry.text
        [
          {
            title = "Engine event queue: schedule/cancel/drain throughput (host-dependent)";
            header = [ "pending"; "op"; "wall_s"; "ops/s" ];
            rows =
              List.map
                (fun s ->
                  [
                    string_of_int s.s_pending;
                    s.s_op;
                    Printf.sprintf "%.4f" s.s_wall_s;
                    Printf.sprintf "%.0f" s.s_ops_per_s;
                  ])
                samples;
          };
        ];
    json =
      Obs.Json.Obj
        [
          ("schema", Obs.Json.Str "semperos-engine-1");
          ("samples", Obs.Json.Arr (List.map sample_json samples));
        ];
  }

let entry =
  {
    Entry.name = "engine";
    doc = "BENCH_engine.json: event-queue schedule/cancel/drain throughput at 1K-1M pending events";
    points =
      (fun preset ->
        List.concat_map (fun n -> List.map (fun op -> (op, n)) ops) (sizes_of_preset preset));
    compute = measure;
    render;
    host_timed = true;
    shape =
      Some
        {
          Entry.schema = "semperos-engine-1";
          keys =
            [
              ( "samples",
                Entry.Rows (Entry.leaves [ "backend"; "op"; "pending"; "wall_s"; "ops_per_s" ]) );
            ];
        };
  }
