module Checkpoint = Semper_sim.Checkpoint

let manifest_tag = "semperos-recording 2"

type manifest = {
  m_entry : string;
  m_preset : Entry.preset;
  m_total : int;
  m_every : int;
}

let manifest_path dir = Filename.concat dir "manifest"
let image_path dir n = Filename.concat dir (Printf.sprintf "ckpt-%d.img" n)
let kind name = "recording/" ^ name

(* What an image's results are only valid for: this entry's point list
   (which differs between presets) computed by this executable. *)
let exe_digest = lazy (Digest.file Sys.executable_name)

let fingerprint name points =
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          [ name; Marshal.to_string points [ Marshal.Closures ]; Lazy.force exe_digest ]))

let write_manifest dir m =
  let oc = open_out (manifest_path dir) in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "%s\nentry %s\npreset %s\ntotal %d\nevery %d\n" manifest_tag m.m_entry
        (Entry.preset_to_string m.m_preset)
        m.m_total m.m_every)

let read_manifest dir =
  match open_in (manifest_path dir) with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let text = really_input_string ic (in_channel_length ic) in
        let lines =
          String.split_on_char '\n' text |> List.map String.trim |> List.filter (fun l -> l <> "")
        in
        match lines with
        | tag :: rest when tag = manifest_tag -> (
          let field name =
            List.find_map
              (fun l ->
                let p = name ^ " " in
                if String.length l > String.length p && String.sub l 0 (String.length p) = p then
                  Some (String.sub l (String.length p) (String.length l - String.length p))
                else None)
              rest
          in
          match (field "entry", Option.bind (field "preset") Entry.preset_of_string,
                 Option.bind (field "total") int_of_string_opt,
                 Option.bind (field "every") int_of_string_opt)
          with
          | Some entry, Some preset, Some total, Some every ->
            Ok { m_entry = entry; m_preset = preset; m_total = total; m_every = every }
          | _ -> Error "recording manifest: missing or malformed field")
        | _ -> Error "recording manifest: missing or unsupported format tag")

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let rec take n = function
  | [] -> ([], [])
  | l when n <= 0 -> ([], l)
  | x :: rest ->
    let chunk, rest = take (n - 1) rest in
    (x :: chunk, rest)

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: rest -> drop (n - 1) rest

(* Compute [points] in chunks of [every], appending to [prefix];
   [save] runs after each chunk with the results completed so far.
   Chunking only batches the domain fan-out — results always land in
   point order — so the outcome is independent of both [jobs] and where
   the chunk boundaries fall. *)
let compute_from ?jobs e ~every ~save prefix points =
  let rec go acc points =
    match points with
    | [] -> acc
    | _ ->
      let chunk, rest = take every points in
      let acc = acc @ Entry.map ?jobs e chunk in
      save (List.length acc) acc;
      go acc rest
  in
  go prefix points

let record ?jobs ?(every = 4) ~dir (Entry.E e) preset =
  if every < 1 then invalid_arg "Record.record: every must be >= 1";
  ensure_dir dir;
  let points = e.points preset in
  write_manifest dir
    { m_entry = e.name; m_preset = preset; m_total = List.length points; m_every = every };
  let fingerprint = fingerprint e.name points in
  let save done_ results =
    Checkpoint.write (image_path dir done_)
      (Checkpoint.save ~kind:(kind e.name) ~label:e.name ~position:(Int64.of_int done_)
         ~fingerprint results)
  in
  e.render points (compute_from ?jobs e ~every ~save [] points)

(* Locate the completed-prefix checkpoint nearest at or below [c],
   stepping down chunk boundaries. A checkpoint that exists but fails
   validation (another build or preset, version bump, corruption) is a
   hard error, not a fallback — silently recomputing from zero would
   mask exactly the states the format rules are there to reject. Only
   a missing file falls through to the previous chunk boundary. *)
let rec nearest_prefix dir ~name ~fingerprint ~every c =
  let path = image_path dir c in
  if c <= 0 then Ok (0, [])
  else
    match Checkpoint.read path with
    | Error _ -> nearest_prefix dir ~name ~fingerprint ~every ((c - 1) / every * every)
    | Ok image -> (
      match Checkpoint.header_of_bytes image with
      | Ok h when h.Checkpoint.fingerprint <> fingerprint ->
        Error
          (Printf.sprintf "%s: recorded by another build or for other points — re-record" path)
      | _ -> (
        match Checkpoint.load ~kind:(kind name) image with
        | Error e -> Error (Printf.sprintf "%s: %s" path e)
        | Ok (header, results) ->
          if Int64.to_int header.Checkpoint.position <> c || List.length results <> c then
            Error (Printf.sprintf "%s: results do not match recorded position" path)
          else Ok (c, results)))

let replay ?jobs ~dir ~from_ () =
  match read_manifest dir with
  | Error e -> Error e
  | Ok m -> (
    match Bench.find m.m_entry with
    | None -> Error (Printf.sprintf "recording references unknown entry %S" m.m_entry)
    | Some (Entry.E e) -> (
      let points = e.points m.m_preset in
      if List.length points <> m.m_total then
        Error "recording manifest does not match this build's point list"
      else
        (* The last checkpoint sits at the point count, which need not
           be a chunk boundary. *)
        let target = max 0 (min from_ m.m_total) in
        let start = if target = m.m_total then target else target / m.m_every * m.m_every in
        match
          nearest_prefix dir ~name:e.name ~fingerprint:(fingerprint e.name points)
            ~every:m.m_every start
        with
        | Error e -> Error e
        | Ok (done_, prefix) ->
          let results =
            compute_from ?jobs e ~every:m.m_every ~save:(fun _ _ -> ()) prefix (drop done_ points)
          in
          Ok (done_, e.render points results)))
