module Json = Semper_obs.Obs.Json
module T = Semper_util.Table

type preset = Smoke | Full

let preset_to_string = function Smoke -> "smoke" | Full -> "full"

let preset_of_string = function
  | "smoke" -> Some Smoke
  | "full" -> Some Full
  | _ -> None

type output = { text : string; json : Json.t }
type table = { title : string; header : string list; rows : string list list }

let series ~title s =
  let header, rows = T.Series.table s in
  { title; header; rows }

let text tables =
  String.concat ""
    (List.map
       (fun t -> Printf.sprintf "\n== %s ==\n%s\n" t.title (T.render ~header:t.header t.rows))
       tables)

let tables ts =
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  {
    text = text ts;
    json =
      Json.Obj
        [
          ( "tables",
            Json.Arr
              (List.map
                 (fun t ->
                   Json.Obj
                     [
                       ("title", Json.Str t.title);
                       ("header", strs t.header);
                       ("rows", Json.Arr (List.map strs t.rows));
                     ])
                 ts) );
        ];
  }

type field = Any | Keys of (string * field) list | Rows of (string * field) list
type shape = { schema : string; keys : (string * field) list }

let leaves ks = List.map (fun k -> (k, Any)) ks
let ( let* ) = Result.bind

let rec check_keys where keys = function
  | Json.Obj members ->
    List.fold_left
      (fun acc (k, field) ->
        let* () = acc in
        match List.assoc_opt k members with
        | Some v -> check_field (Printf.sprintf "%s.%s" where k) field v
        | None -> Error (Printf.sprintf "%s: missing key %S" where k))
      (Ok ()) keys
  | _ -> Error (where ^ ": not an object")

and check_field where field v =
  match (field, v) with
  | Any, _ -> Ok ()
  | Keys keys, v -> check_keys where keys v
  | Rows _, Json.Arr [] -> Error (where ^ ": empty")
  | Rows keys, Json.Arr rows ->
    List.fold_left
      (fun acc row ->
        let* () = acc in
        check_keys (where ^ "[]") keys row)
      (Ok ()) rows
  | Rows _, _ -> Error (where ^ ": not an array")

let check shape json = check_keys shape.schema shape.keys json

type ('p, 'r) spec = {
  name : string;
  doc : string;
  points : preset -> 'p list;
  compute : 'p -> 'r;
  render : 'p list -> 'r list -> output;
  host_timed : bool;
  shape : shape option;
}

type t = E : ('p, 'r) spec -> t

let name (E e) = e.name

let map ?jobs e pts =
  Semper_util.Domain_pool.map ?jobs:(if e.host_timed then Some 1 else jobs) e.compute pts

let run ?jobs (E e) preset =
  let pts = e.points preset in
  e.render pts (map ?jobs e pts)
