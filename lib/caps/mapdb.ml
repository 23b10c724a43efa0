module Key = Semper_ddl.Key
module Int_table = Semper_util.Int_table

type t = {
  arena : Arena.t;
  mutable next_obj : int;
  (* Partitions (key PE numbers) touched by a structural change since
     the last [drain_dirty] — consumed by the incremental audit. Pure
     host-side bookkeeping: not part of snapshots or fingerprints. *)
  dirty : unit Int_table.t;
}

let create () = { arena = Arena.create (); next_obj = 0; dirty = Int_table.create 16 }

let touch t key = Int_table.replace t.dirty (Key.pe key) ()

let insert t cap =
  Arena.insert t.arena cap;
  touch t cap.Cap.key

let find t key = Arena.find t.arena key

let get t key =
  match find t key with
  | Some c -> c
  | None -> raise Not_found

let mem t key = Arena.mem t.arena key

let remove t key =
  if Arena.mem t.arena key then begin
    Arena.remove t.arena key;
    touch t key
  end

let count t = Arena.count t.arena
let iter f t = Arena.iter f t.arena
let fold f acc t = Arena.fold f acc t.arena

let caps_of_vpe t ~vpe = Arena.caps_of_vpe t.arena ~vpe
let caps_of_pe t ~pe = Arena.caps_of_pe t.arena ~pe

let add_child t ~parent key =
  Arena.add_child t.arena ~parent key;
  touch t parent;
  touch t key

let remove_child t ~parent key =
  Arena.remove_child t.arena ~parent key;
  touch t parent;
  touch t key

let has_child t ~parent key = Arena.has_child t.arena ~parent key
let children t parent = Arena.children t.arena parent
let child_count t parent = Arena.child_count t.arena parent
let iter_children t parent f = Arena.iter_children t.arena parent f
let exists_child t parent f = Arena.exists_child t.arena parent f

let set_children t parent keys =
  Arena.set_children t.arena parent keys;
  touch t parent;
  List.iter (fun k -> touch t k) keys

let drain_dirty t =
  let pes = Int_table.fold (fun pe () acc -> pe :: acc) t.dirty [] in
  Int_table.reset t.dirty;
  List.sort compare pes

let fresh_obj t =
  let obj = t.next_obj in
  t.next_obj <- obj + 1;
  obj

let bump_obj t n = if n >= t.next_obj then t.next_obj <- n + 1

(* Snapshots carry record copies plus their child keys, sorted by key:
   no slot or cell index escapes, so images are portable across
   allocation histories and fingerprints depend only on contents. *)
type snapshot = { s_caps : (Cap.t * Key.t list) list; s_next_obj : int }

let snapshot t =
  {
    s_caps =
      fold (fun acc c -> (Cap.copy c, Arena.children t.arena c.Cap.key) :: acc) [] t
      |> List.sort (fun (a, _) (b, _) -> Key.compare a.Cap.key b.Cap.key);
    s_next_obj = t.next_obj;
  }

let restore t s =
  (* Both the discarded and the incoming contents must be re-audited. *)
  iter (fun c -> touch t c.Cap.key) t;
  Arena.clear t.arena;
  List.iter
    (fun (c, _) ->
      Arena.insert t.arena (Cap.copy c);
      touch t c.Cap.key)
    s.s_caps;
  List.iter (fun (c, kids) -> set_children t c.Cap.key kids) s.s_caps;
  t.next_obj <- s.s_next_obj

let check_local_links t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  iter
    (fun cap ->
      iter_children t cap.Cap.key (fun child_key ->
          match find t child_key with
          | None -> () (* remote child: checked by the owning kernel *)
          | Some child -> (
            match child.Cap.parent with
            | Some p when Key.equal p cap.Cap.key -> ()
            | Some p ->
              err "child %s of %s has parent %s" (Key.to_string child_key)
                (Key.to_string cap.Cap.key) (Key.to_string p)
            | None ->
              err "child %s of %s has no parent" (Key.to_string child_key)
                (Key.to_string cap.Cap.key)));
      match cap.Cap.parent with
      | None -> ()
      | Some parent_key -> (
        match find t parent_key with
        | None -> () (* remote parent *)
        | Some _ ->
          if not (has_child t ~parent:parent_key cap.Cap.key) then
            err "parent %s does not list child %s" (Key.to_string parent_key)
              (Key.to_string cap.Cap.key)))
    t;
  !errors
