let render ~header rows =
  List.iter
    (fun row ->
      if List.length row <> List.length header then
        invalid_arg "Table.render: row arity differs from header")
    rows;
  let all = header :: rows in
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row -> List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let line row = String.concat "  " (List.mapi pad row) in
  let rule =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (line header :: rule :: List.map line rows)

let print ~title ~header rows =
  Printf.printf "\n== %s ==\n%s\n" title (render ~header rows)

module Series = struct
  type t = {
    x_label : string;
    labels : string list;
    mutable rows : (float * float option list) list; (* reversed *)
  }

  let create ~x_label ~labels = { x_label; labels; rows = [] }

  let add_row t ~x ys =
    if List.length ys <> List.length t.labels then
      invalid_arg "Series.add_row: arity differs from labels";
    t.rows <- (x, ys) :: t.rows

  let fmt_num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.2f" v

  let table t =
    ( t.x_label :: t.labels,
      List.rev_map
        (fun (x, ys) ->
          fmt_num x
          :: List.map (function None -> "-" | Some y -> fmt_num y) ys)
        t.rows )

  let render t =
    let header, rows = table t in
    render ~header rows
end
