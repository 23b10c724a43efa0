module Key = Semper_ddl.Key
module Int_table = Semper_util.Int_table

type selector = int

(* [rev] is the inverse index, maintained alongside [slots]: revoking
   a capability drops it from its owner's space by key, and a fold
   over every slot there turned bulk revocation quadratic in the
   owner's capability count (service VPEs own one capability per
   granted extent, so theirs grow with client count). Keys are
   globally unique, so at most one selector binds a given key; if a
   caller ever aliases one anyway, [rev] keeps the latest binding and
   [remove] only drops a [rev] entry that points at the removed
   selector. *)
type t = {
  slots : Key.t Int_table.t;
  rev : selector Key.Table.t;
  mutable next_hint : int;
}

let create () = { slots = Int_table.create 16; rev = Key.Table.create 16; next_hint = 0 }

let insert t key =
  let rec free sel = if Int_table.mem t.slots sel then free (sel + 1) else sel in
  let sel = free t.next_hint in
  Int_table.add t.slots sel key;
  Key.Table.replace t.rev key sel;
  t.next_hint <- sel + 1;
  sel

let insert_at t sel key =
  if sel < 0 then invalid_arg "Capspace.insert_at: negative selector";
  if Int_table.mem t.slots sel then invalid_arg "Capspace.insert_at: selector taken";
  Int_table.add t.slots sel key;
  Key.Table.replace t.rev key sel

let find t sel = Int_table.find_opt t.slots sel

let selector_of t key = Key.Table.find_opt t.rev key

let remove t sel =
  (match Int_table.find_opt t.slots sel with
  | Some key -> (
    match Key.Table.find_opt t.rev key with
    | Some s when s = sel -> Key.Table.remove t.rev key
    | Some _ | None -> ())
  | None -> ());
  Int_table.remove t.slots sel;
  if sel < t.next_hint then t.next_hint <- sel

let remove_key t key =
  match selector_of t key with
  | Some sel -> remove t sel
  | None -> ()

let count t = Int_table.length t.slots
let iter f t = Int_table.iter f t.slots

type snapshot = { s_slots : (selector * Key.t) list; s_next_hint : int }  (* sorted by selector *)

let snapshot t =
  {
    s_slots =
      Int_table.fold (fun sel key acc -> (sel, key) :: acc) t.slots []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    s_next_hint = t.next_hint;
  }

let restore t s =
  Int_table.reset t.slots;
  Key.Table.reset t.rev;
  List.iter
    (fun (sel, key) ->
      Int_table.replace t.slots sel key;
      Key.Table.replace t.rev key sel)
    s.s_slots;
  t.next_hint <- s.s_next_hint
