module Json = Semper_obs.Obs.Json

let paper = Figures.all

let all =
  paper
  @ Bench_json.entries
  @ Entry.
      [
        E Wallclock.entry;
        E Skew.entry;
        E Fleetbench.entry;
        E Batchbench.entry;
        E Scale.entry;
        E Enginebench.entry;
      ]

let find name = List.find_opt (fun e -> Entry.name e = name) all
let path e = Printf.sprintf "BENCH_%s.json" (Entry.name e)
let ( let* ) = Result.bind

let validate ?path json =
  let* key =
    match json with
    | Json.Obj fields -> (
      match (List.assoc_opt "schema" fields, path) with
      | Some (Json.Str tag), _ -> Ok tag
      | Some _, _ -> Error "schema field is not a string"
      | None, Some p -> Ok (Filename.basename p)
      | None, None -> Error "document has no schema field and no path was given")
    | _ -> Error "document is not a JSON object"
  in
  match
    List.find_map
      (fun (Entry.E e) ->
        match e.shape with Some s when s.Entry.schema = key -> Some s | _ -> None)
      all
  with
  | Some shape -> Entry.check shape json
  | None -> Error (Printf.sprintf "unknown schema %S" key)

let validate_file path =
  let* doc =
    try Ok (In_channel.with_open_bin path In_channel.input_all) with Sys_error e -> Error e
  in
  let* json = Json.parse doc in
  validate ~path json
