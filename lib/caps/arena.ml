module Key = Semper_ddl.Key

let nil = -1

(* Array cells need a placeholder; slot liveness is tracked by
   [slots.(i) <> None], cell liveness by membership in a parent's
   sibling list, so the placeholder value is never observed. *)
let dummy_key = Key.make ~pe:0 ~vpe:0 ~kind:Key.Vpe_obj ~obj:0

(* (parent slot, child key) -> child cell: the O(1) duplicate check.
   Chained buckets like [Hashtbl]'s, but both key halves sit inline in
   the bucket cell, so a probe builds no tuple, compares with
   [Key.equal] and returns [nil] rather than an option. Nothing ever
   iterates it, so its layout is never observed. *)
module Childset = struct
  type bucket = Empty | Cons of { slot : int; key : Key.t; cell : int; mutable next : bucket }
  type t = { mutable data : bucket array; mutable size : int }

  let create () = { data = Array.make 64 Empty; size = 0 }

  let index data slot key =
    (Key.hash key lxor (slot * 0x9E3779B1)) land (Array.length data - 1)

  let find t slot key =
    let rec go = function
      | Empty -> nil
      | Cons c -> if c.slot = slot && Key.equal c.key key then c.cell else go c.next
    in
    go t.data.(index t.data slot key)

  let resize t =
    let old = t.data in
    let data = Array.make (2 * Array.length old) Empty in
    let rec move = function
      | Empty -> ()
      | Cons c as b ->
        let next = c.next in
        let i = index data c.slot c.key in
        c.next <- data.(i);
        data.(i) <- b;
        move next
    in
    Array.iter move old;
    t.data <- data

  (* The caller has checked that the pair is absent. *)
  let add t slot key cell =
    let i = index t.data slot key in
    t.data.(i) <- Cons { slot; key; cell; next = t.data.(i) };
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.data then resize t

  let remove t slot key =
    let i = index t.data slot key in
    let rec go prev = function
      | Empty -> ()
      | Cons c as b ->
        if c.slot = slot && Key.equal c.key key then begin
          t.size <- t.size - 1;
          match prev with Empty -> t.data.(i) <- c.next | Cons p -> p.next <- c.next
        end
        else go b c.next
    in
    go Empty t.data.(i)

  let reset t =
    Array.fill t.data 0 (Array.length t.data) Empty;
    t.size <- 0
end

type t = {
  (* Record plane: one slot per capability. *)
  mutable slots : Cap.t option array;
  mutable slot_free : int list;
  mutable live : int;
  slot_of_key : int Key.Table.t;
  (* Per-slot child-list heads/tails/counts (cell indices). *)
  mutable first_child : int array;
  mutable last_child : int array;
  mutable n_children : int array;
  (* Per-slot intrusive ownership chains (slot indices). *)
  mutable vpe_next : int array;
  mutable vpe_prev : int array;
  mutable pe_next : int array;
  mutable pe_prev : int array;
  (* Chain heads (slot indices) by owner VPE id and by key PE, [nil]
     for an empty chain; grown on demand to cover the largest id seen. *)
  mutable vpe_head : int array;
  mutable pe_head : int array;
  (* Child-cell plane: flat doubly-linked sibling lists. *)
  mutable cell_key : Key.t array;
  mutable cell_next : int array;
  mutable cell_prev : int array;
  mutable cell_free : int list;
  mutable cell_cap : int;  (* cells handed out so far (free or live) *)
  childset : Childset.t;
}

let initial = 64

let create () =
  {
    slots = Array.make initial None;
    slot_free = [];
    live = 0;
    slot_of_key = Key.Table.create initial;
    first_child = Array.make initial nil;
    last_child = Array.make initial nil;
    n_children = Array.make initial 0;
    vpe_next = Array.make initial nil;
    vpe_prev = Array.make initial nil;
    pe_next = Array.make initial nil;
    pe_prev = Array.make initial nil;
    vpe_head = Array.make 16 nil;
    pe_head = Array.make 16 nil;
    cell_key = Array.make initial dummy_key;
    cell_next = Array.make initial nil;
    cell_prev = Array.make initial nil;
    cell_free = [];
    cell_cap = 0;
    childset = Childset.create ();
  }

let grow_int_array a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_slots t =
  let n = 2 * Array.length t.slots in
  let slots = Array.make n None in
  Array.blit t.slots 0 slots 0 (Array.length t.slots);
  t.slots <- slots;
  t.first_child <- grow_int_array t.first_child n nil;
  t.last_child <- grow_int_array t.last_child n nil;
  t.n_children <- grow_int_array t.n_children n 0;
  t.vpe_next <- grow_int_array t.vpe_next n nil;
  t.vpe_prev <- grow_int_array t.vpe_prev n nil;
  t.pe_next <- grow_int_array t.pe_next n nil;
  t.pe_prev <- grow_int_array t.pe_prev n nil

let grow_cells t =
  let n = 2 * Array.length t.cell_key in
  let ck = Array.make n dummy_key in
  Array.blit t.cell_key 0 ck 0 (Array.length t.cell_key);
  t.cell_key <- ck;
  t.cell_next <- grow_int_array t.cell_next n nil;
  t.cell_prev <- grow_int_array t.cell_prev n nil

let alloc_cell t key =
  let c =
    match t.cell_free with
    | c :: rest ->
      t.cell_free <- rest;
      c
    | [] ->
      if t.cell_cap = Array.length t.cell_key then grow_cells t;
      let c = t.cell_cap in
      t.cell_cap <- t.cell_cap + 1;
      c
  in
  t.cell_key.(c) <- key;
  t.cell_next.(c) <- nil;
  t.cell_prev.(c) <- nil;
  c

let free_cell t c =
  t.cell_key.(c) <- dummy_key;
  t.cell_free <- c :: t.cell_free

(* ---- intrusive ownership chains ---------------------------------- *)

(* [a] widened to cover index [id]. *)
let widen a id = grow_int_array a (max (2 * Array.length a) (id + 1)) nil

let fit_chains t ~vpe ~pe =
  if vpe >= Array.length t.vpe_head then t.vpe_head <- widen t.vpe_head vpe;
  if pe >= Array.length t.pe_head then t.pe_head <- widen t.pe_head pe

(* A chain runs through [next] from its head to [nil], and back through
   [prev], where the head's [prev] is the tail rather than [nil]: an
   append finds the tail in O(1) without a per-id tail array (which,
   indexed by global ids in every kernel's arena, would double the
   chains' O(kernels x ids) footprint). [head] already covers [id]
   ([fit_chains]). *)
let chain_append ~next ~prev ~head s id =
  let h = head.(id) in
  if h = nil then begin
    head.(id) <- s;
    prev.(s) <- s
  end
  else begin
    let last = prev.(h) in
    next.(last) <- s;
    prev.(s) <- last;
    prev.(h) <- s
  end

let chain_unlink ~next ~prev ~head s id =
  let h = head.(id) and p = prev.(s) and n = next.(s) in
  if s = h then begin
    head.(id) <- n;
    (* [p] is the tail. *)
    if n <> nil then prev.(n) <- p
  end
  else begin
    next.(p) <- n;
    if n = nil then prev.(h) <- p else prev.(n) <- p
  end;
  prev.(s) <- nil;
  next.(s) <- nil

(* ---- records ----------------------------------------------------- *)

let find t key =
  match Key.Table.find_opt t.slot_of_key key with
  | None -> None
  | Some s -> t.slots.(s)

let mem t key = Key.Table.mem t.slot_of_key key
let count t = t.live

let insert t (cap : Cap.t) =
  if mem t cap.Cap.key then invalid_arg "Mapdb.insert: duplicate key";
  if cap.Cap.owner_vpe < 0 then invalid_arg "Arena.insert: negative owner VPE";
  let s =
    match t.slot_free with
    | s :: rest ->
      t.slot_free <- rest;
      s
    | [] ->
      if t.live = Array.length t.slots then grow_slots t;
      (* Slots [0 .. live) are in use exactly when nothing was ever
         freed; otherwise the free list is non-empty. Either way the
         next virgin slot is the number of slots ever allocated, which
         equals [live] here because the free list is empty. *)
      t.live
  in
  t.slots.(s) <- Some cap;
  t.first_child.(s) <- nil;
  t.last_child.(s) <- nil;
  t.n_children.(s) <- 0;
  Key.Table.replace t.slot_of_key cap.Cap.key s;
  fit_chains t ~vpe:cap.Cap.owner_vpe ~pe:(Key.pe cap.Cap.key);
  chain_append ~next:t.vpe_next ~prev:t.vpe_prev ~head:t.vpe_head s cap.Cap.owner_vpe;
  chain_append ~next:t.pe_next ~prev:t.pe_prev ~head:t.pe_head s (Key.pe cap.Cap.key);
  t.live <- t.live + 1

let free_children_cells t s =
  let c = ref t.first_child.(s) in
  while !c <> nil do
    let next = t.cell_next.(!c) in
    Childset.remove t.childset s t.cell_key.(!c);
    free_cell t !c;
    c := next
  done;
  t.first_child.(s) <- nil;
  t.last_child.(s) <- nil;
  t.n_children.(s) <- 0

let remove t key =
  match Key.Table.find_opt t.slot_of_key key with
  | None -> ()
  | Some s ->
    let cap = match t.slots.(s) with Some c -> c | None -> assert false in
    free_children_cells t s;
    chain_unlink ~next:t.vpe_next ~prev:t.vpe_prev ~head:t.vpe_head s
      cap.Cap.owner_vpe;
    chain_unlink ~next:t.pe_next ~prev:t.pe_prev ~head:t.pe_head s
      (Key.pe cap.Cap.key);
    t.slots.(s) <- None;
    Key.Table.remove t.slot_of_key key;
    t.slot_free <- s :: t.slot_free;
    t.live <- t.live - 1

let iter f t =
  for s = 0 to Array.length t.slots - 1 do
    match t.slots.(s) with Some cap -> f cap | None -> ()
  done

let fold f acc t =
  let acc = ref acc in
  iter (fun cap -> acc := f !acc cap) t;
  !acc

(* ---- child links ------------------------------------------------- *)

let slot_exn t name parent =
  match Key.Table.find_opt t.slot_of_key parent with
  | Some s -> s
  | None -> invalid_arg (name ^ ": parent not in database")

let add_child t ~parent key =
  let s = slot_exn t "Mapdb.add_child" parent in
  if Childset.find t.childset s key <> nil then invalid_arg "Mapdb.add_child: duplicate child";
  let c = alloc_cell t key in
  (match t.last_child.(s) with
  | last when last = nil -> t.first_child.(s) <- c
  | last ->
    t.cell_next.(last) <- c;
    t.cell_prev.(c) <- last);
  t.last_child.(s) <- c;
  t.n_children.(s) <- t.n_children.(s) + 1;
  Childset.add t.childset s key c

let remove_child t ~parent key =
  match Key.Table.find_opt t.slot_of_key parent with
  | None -> ()
  | Some s -> (
    match Childset.find t.childset s key with
    | c when c = nil -> ()
    | c ->
      let p = t.cell_prev.(c) and n = t.cell_next.(c) in
      (if p = nil then t.first_child.(s) <- n else t.cell_next.(p) <- n);
      (if n = nil then t.last_child.(s) <- p else t.cell_prev.(n) <- p);
      Childset.remove t.childset s key;
      t.n_children.(s) <- t.n_children.(s) - 1;
      free_cell t c)

let has_child t ~parent key =
  match Key.Table.find_opt t.slot_of_key parent with
  | None -> false
  | Some s -> Childset.find t.childset s key <> nil

let iter_children t parent f =
  match Key.Table.find_opt t.slot_of_key parent with
  | None -> ()
  | Some s ->
    let c = ref t.first_child.(s) in
    while !c <> nil do
      let next = t.cell_next.(!c) in
      f t.cell_key.(!c);
      c := next
    done

let children t parent =
  let acc = ref [] in
  iter_children t parent (fun k -> acc := k :: !acc);
  List.rev !acc

let child_count t parent =
  match Key.Table.find_opt t.slot_of_key parent with
  | None -> 0
  | Some s -> t.n_children.(s)

let exists_child t parent f =
  match Key.Table.find_opt t.slot_of_key parent with
  | None -> false
  | Some s ->
    let c = ref t.first_child.(s) in
    let found = ref false in
    while (not !found) && !c <> nil do
      if f t.cell_key.(!c) then found := true else c := t.cell_next.(!c)
    done;
    !found

let set_children t parent keys =
  let s = slot_exn t "Mapdb.set_children" parent in
  free_children_cells t s;
  List.iter (fun k -> add_child t ~parent k) keys

(* ---- ownership queries ------------------------------------------- *)

let chain_to_list t ~head ~next id =
  let acc = ref [] in
  let s = ref (if id >= 0 && id < Array.length head then head.(id) else nil) in
  while !s <> nil do
    (match t.slots.(!s) with Some cap -> acc := cap :: !acc | None -> assert false);
    s := next.(!s)
  done;
  List.rev !acc

let caps_of_vpe t ~vpe = chain_to_list t ~head:t.vpe_head ~next:t.vpe_next vpe
let caps_of_pe t ~pe = chain_to_list t ~head:t.pe_head ~next:t.pe_next pe

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  Array.fill t.first_child 0 (Array.length t.first_child) nil;
  Array.fill t.last_child 0 (Array.length t.last_child) nil;
  Array.fill t.n_children 0 (Array.length t.n_children) 0;
  Array.fill t.vpe_next 0 (Array.length t.vpe_next) nil;
  Array.fill t.vpe_prev 0 (Array.length t.vpe_prev) nil;
  Array.fill t.pe_next 0 (Array.length t.pe_next) nil;
  Array.fill t.pe_prev 0 (Array.length t.pe_prev) nil;
  Array.fill t.cell_next 0 (Array.length t.cell_next) nil;
  Array.fill t.cell_prev 0 (Array.length t.cell_prev) nil;
  Array.fill t.cell_key 0 (Array.length t.cell_key) dummy_key;
  t.slot_free <- [];
  t.cell_free <- [];
  t.cell_cap <- 0;
  t.live <- 0;
  Key.Table.reset t.slot_of_key;
  Array.fill t.vpe_head 0 (Array.length t.vpe_head) nil;
  Array.fill t.pe_head 0 (Array.length t.pe_head) nil;
  Childset.reset t.childset
