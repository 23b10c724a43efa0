type kernel_id = int

exception Mid_handoff of int

type kernel_state = Spare | Joining | Active | Draining | Retired

module Int_table = Semper_util.Int_table

(* [table] entry of a PE no kernel owns. *)
let unassigned = -1

type t = {
  (* PE -> owning kernel, indexed by PE id. PE ids are dense (the
     system assigns 0 .. pe_count-1 at boot), so the table is an array
     grown on demand and every route is one bounds check and one read. *)
  mutable table : int array;
  mutable assigned : int;
  (* PEs whose records are in flight between two kernels, one byte per
     PE (non-zero = marked), indexed like [table]. While a PE is marked
     here, this replica refuses to route to it: the old owner may
     already have shed the records and the new owner may not have
     installed them yet, so any answer would be a silent misroute. *)
  mutable handoff : Bytes.t;
  (* Kernel lifecycle, replicated alongside the partition table. A
     kernel absent from this table is Active: boot-time fleets never
     touch it, so their replicas stay byte-identical to pre-fleet
     snapshots. *)
  states : kernel_state Int_table.t;
  mutable sealed : bool;
}

let create () =
  {
    table = Array.make 64 unassigned;
    assigned = 0;
    handoff = Bytes.make 64 '\000';
    states = Int_table.create 4;
    sealed = false;
  }

(* Widen [table] and [handoff] (always the same length) to cover [pe]. *)
let fit t pe =
  let n = Array.length t.table in
  if pe >= n then begin
    let m = max (2 * n) (pe + 1) in
    let table = Array.make m unassigned in
    Array.blit t.table 0 table 0 n;
    let handoff = Bytes.make m '\000' in
    Bytes.blit t.handoff 0 handoff 0 n;
    t.table <- table;
    t.handoff <- handoff
  end

let owner t pe = if pe >= 0 && pe < Array.length t.table then t.table.(pe) else unassigned
let is_assigned t pe = owner t pe <> unassigned

let in_handoff t pe =
  pe >= 0 && pe < Bytes.length t.handoff && Bytes.get t.handoff pe <> '\000'

let mark t pe on = Bytes.set t.handoff pe (if on then '\001' else '\000')

(* Bind an assigned PE, or a fresh one [fit] already covers. *)
let set t pe kernel =
  if t.table.(pe) = unassigned then t.assigned <- t.assigned + 1;
  t.table.(pe) <- kernel

let assign t ~pe ~kernel =
  if t.sealed then invalid_arg "Membership.assign: table is sealed";
  if is_assigned t pe then invalid_arg "Membership.assign: PE already assigned";
  if pe < 0 || kernel < 0 then invalid_arg "Membership.assign: negative id";
  fit t pe;
  set t pe kernel

let seal t = t.sealed <- true

let reassign t ~pe ~kernel =
  if not (is_assigned t pe) then raise Not_found;
  if in_handoff t pe then
    invalid_arg "Membership.reassign: PE is mid-handoff (use complete_handoff)";
  if kernel < 0 then invalid_arg "Membership.reassign: negative kernel";
  set t pe kernel

let begin_handoff t ~pe =
  if not (is_assigned t pe) then raise Not_found;
  if in_handoff t pe then invalid_arg "Membership.begin_handoff: PE already mid-handoff";
  mark t pe true

let complete_handoff t ~pe ~kernel =
  if not (in_handoff t pe) then
    invalid_arg "Membership.complete_handoff: PE is not mid-handoff";
  if kernel < 0 then invalid_arg "Membership.complete_handoff: negative kernel";
  mark t pe false;
  set t pe kernel

let is_sealed t = t.sealed

let reassign_partition t ~pes ~kernel =
  if kernel < 0 then invalid_arg "Membership.reassign_partition: negative kernel";
  (* Validate-then-flip: either the whole key range moves or none of it
     does, so a racing resolve can never observe a half-moved
     partition — it sees the old owner, Mid_handoff, or the new owner. *)
  List.iter
    (fun pe ->
      if not (is_assigned t pe) then raise Not_found;
      if in_handoff t pe then
        invalid_arg "Membership.reassign_partition: PE is mid-handoff (use complete_handoff)")
    pes;
  List.iter (fun pe -> set t pe kernel) pes

let kernel_state t kernel =
  match Int_table.find t.states kernel with s -> s | exception Not_found -> Active

let set_kernel_state t ~kernel state =
  if kernel < 0 then invalid_arg "Membership.set_kernel_state: negative kernel";
  Int_table.replace t.states kernel state

let kernel_states t =
  Int_table.fold (fun k s acc -> (k, s) :: acc) t.states []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let kernel_of_pe t pe =
  if in_handoff t pe then raise (Mid_handoff pe);
  let k = owner t pe in
  if k = unassigned then raise Not_found else k

let kernel_of_key t key = kernel_of_pe t (Key.pe key)

(* [f pe kernel] over assigned PEs, descending, so consing builds
   ascending lists. *)
let fold_down f t acc =
  let acc = ref acc in
  for pe = Array.length t.table - 1 downto 0 do
    let k = t.table.(pe) in
    if k <> unassigned then acc := f pe k !acc
  done;
  !acc

let pes_of_kernel t kernel = fold_down (fun pe k acc -> if k = kernel then pe :: acc else acc) t []
let size t = t.assigned
let kernels t = List.sort_uniq Int.compare (fold_down (fun _ k acc -> k :: acc) t [])

let copy t =
  {
    table = Array.copy t.table;
    assigned = t.assigned;
    handoff = Bytes.copy t.handoff;
    states = Int_table.copy t.states;
    sealed = t.sealed;
  }

type snapshot = {
  s_table : (int * kernel_id) list;  (* sorted by PE *)
  s_handoff : int list;  (* sorted *)
  s_states : (kernel_id * kernel_state) list;  (* sorted by kernel *)
  s_sealed : bool;
}

let snapshot t =
  {
    s_table = fold_down (fun pe k acc -> (pe, k) :: acc) t [];
    s_handoff =
      (let acc = ref [] in
       for pe = Bytes.length t.handoff - 1 downto 0 do
         if in_handoff t pe then acc := pe :: !acc
       done;
       !acc);
    s_states = kernel_states t;
    s_sealed = t.sealed;
  }

let restore t s =
  Array.fill t.table 0 (Array.length t.table) unassigned;
  Bytes.fill t.handoff 0 (Bytes.length t.handoff) '\000';
  t.assigned <- 0;
  List.iter
    (fun (pe, k) ->
      fit t pe;
      set t pe k)
    s.s_table;
  List.iter
    (fun pe ->
      fit t pe;
      mark t pe true)
    s.s_handoff;
  Int_table.reset t.states;
  List.iter (fun (k, st) -> Int_table.replace t.states k st) s.s_states;
  t.sealed <- s.s_sealed
