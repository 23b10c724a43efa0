(* Guard against polymorphic int-keyed hash tables on the message
   path. Reads the OCaml sources named on the command line and fails
   if any declares a stdlib [('k, 'v) Hashtbl.t] whose key type is not
   [string]: int-like keys ([int], [int * _], [kernel_id], selectors)
   belong in a dense array, [Semper_util.Flat_map] or
   [Semper_util.Int_table]. Only declared types are checked; a table
   whose type is never written down is not seen.

   Usage: table_guard.exe FILE... — exit 0 when clean, 1 otherwise. *)

let needle = "Hashtbl.t"

(* Key types (first argument, whitespace-normalised) that may stay
   polymorphic: string keys hash and compare as cheaply either way. *)
let allowed_keys = [ "string" ]

let normalise s =
  String.split_on_char '\n' s |> String.concat " " |> String.split_on_char ' '
  |> List.filter (( <> ) "")
  |> String.concat " "

(* The key type of the table type ending just before [stop], if the
   text there has the shape [( key , value ) Hashtbl.t]. *)
let key_before text stop =
  let rec skip_ws i = if i >= 0 && String.contains " \t\n\r" text.[i] then skip_ws (i - 1) else i in
  let close = skip_ws (stop - 1) in
  if close < 0 || text.[close] <> ')' then None
  else
    (* Walk back to the matching '(' and remember the last top-level
       comma seen, which (walking backwards) is the first one. *)
    let rec back i depth comma =
      if i < 0 then None
      else
        match text.[i] with
        | ')' -> back (i - 1) (depth + 1) comma
        | '(' when depth = 0 -> Some (i, comma)
        | '(' -> back (i - 1) (depth - 1) comma
        | ',' when depth = 0 -> back (i - 1) depth (Some i)
        | _ -> back (i - 1) depth comma
    in
    match back (close - 1) 0 None with
    | Some (openp, Some comma) -> Some (normalise (String.sub text (openp + 1) (comma - openp - 1)))
    | Some (_, None) | None -> None

let line_of text pos =
  let n = ref 1 in
  String.iteri (fun i c -> if i < pos && c = '\n' then incr n) text;
  !n

(* Offending [(line, key)] pairs of one source text. *)
let violations text =
  let found = ref [] in
  let rec scan from =
    match String.index_from_opt text from 'H' with
    | None -> ()
    | Some i ->
      let n = String.length needle in
      (if
         i + n <= String.length text
         && String.sub text i n = needle
         && (i = 0 || text.[i - 1] <> '.')
         && (i + n = String.length text || not (Char.equal text.[i + n] '_'))
       then
         match key_before text i with
         | Some key when not (List.mem key allowed_keys) -> found := (line_of text i, key) :: !found
         | Some _ | None -> ());
      scan (i + 1)
  in
  scan 0;
  List.rev !found

(* The guard must see what it is meant to catch, or it would pass
   vacuously after a change to its own parser. *)
let self_check () =
  let bad =
    [
      "x : (int, unit) Hashtbl.t;";
      "registry : (int, t) Hashtbl.t";
      "childset : (int * Key.t, int) Hashtbl.t;";
      "states : (kernel_id,\n    kernel_state) Hashtbl.t;";
      "credits : (int, int ref * (P.ikc * int) Queue.t) Hashtbl.t;";
    ]
  and good =
    [
      "directory : (string, Key.t) Hashtbl.t;";
      "t : (string, (int, int) Either.t) Hashtbl.t";
      "module T = Hashtbl.Make (struct end)";
      "let h = Hashtbl.hash x";
    ]
  in
  List.iter (fun s -> if violations s = [] then failwith ("table_guard misses: " ^ s)) bad;
  List.iter (fun s -> if violations s <> [] then failwith ("table_guard flags: " ^ s)) good

let () =
  self_check ();
  let files = List.tl (Array.to_list Sys.argv) in
  let bad =
    List.concat_map
      (fun file ->
        let text = In_channel.with_open_bin file In_channel.input_all in
        List.map (fun (line, key) -> (file, line, key)) (violations text))
      files
  in
  List.iter
    (fun (file, line, key) ->
      Printf.eprintf "%s:%d: polymorphic Hashtbl keyed by %s; use a dense array, Flat_map or Int_table\n"
        file line key)
    bad;
  if bad <> [] then exit 1;
  Printf.printf "table_guard: %d files, no polymorphic int-keyed Hashtbl\n" (List.length files)
