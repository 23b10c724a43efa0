(* Tests for permissions, capability records, capability spaces, and
   the mapping database. *)

open Semperos

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Perms                                                               *)

let perms_gen =
  QCheck.Gen.(
    map3 (fun read write exec -> { Perms.read; write; exec }) bool bool bool)

let test_perms_basics () =
  check Alcotest.string "rwx" "rwx" (Perms.to_string Perms.rwx);
  check Alcotest.string "r" "r--" (Perms.to_string Perms.r);
  check Alcotest.bool "r subset rw" true (Perms.subset Perms.r ~of_:Perms.rw);
  check Alcotest.bool "rw not subset r" false (Perms.subset Perms.rw ~of_:Perms.r);
  check Alcotest.bool "none subset all" true (Perms.subset Perms.none ~of_:Perms.rwx);
  check Alcotest.bool "inter" true (Perms.equal Perms.r (Perms.inter Perms.rw Perms.rx))

let prop_perms_subset_refl =
  QCheck.Test.make ~name:"perms subset is reflexive" ~count:100 (QCheck.make perms_gen)
    (fun p -> Perms.subset p ~of_:p)

let prop_perms_inter_subset =
  QCheck.Test.make ~name:"intersection is a subset of both" ~count:100
    (QCheck.make QCheck.Gen.(pair perms_gen perms_gen))
    (fun (a, b) ->
      let i = Perms.inter a b in
      Perms.subset i ~of_:a && Perms.subset i ~of_:b)

let prop_perms_subset_antisym =
  QCheck.Test.make ~name:"mutual subset implies equality" ~count:100
    (QCheck.make QCheck.Gen.(pair perms_gen perms_gen))
    (fun (a, b) ->
      if Perms.subset a ~of_:b && Perms.subset b ~of_:a then Perms.equal a b else true)

(* ------------------------------------------------------------------ *)
(* Cap                                                                 *)

let key i = Key.make ~pe:0 ~vpe:0 ~kind:Key.Mem_obj ~obj:i

let mem_kind = Cap.Mem_cap { host_pe = 0; addr = 0L; size = 4096L; perms = Perms.rw }

let test_cap_children () =
  (* Child links live in the mapping database's arena, not in the
     record itself. *)
  let db = Mapdb.create () in
  let c = Cap.make ~key:(key 0) ~kind:mem_kind ~owner_vpe:1 () in
  check Alcotest.bool "not marked" false (Cap.is_marked c);
  Mapdb.insert db c;
  Mapdb.add_child db ~parent:(key 0) (key 1);
  Mapdb.add_child db ~parent:(key 0) (key 2);
  check Alcotest.bool "has child" true (Mapdb.has_child db ~parent:(key 0) (key 1));
  Alcotest.check_raises "duplicate child" (Invalid_argument "Mapdb.add_child: duplicate child")
    (fun () -> Mapdb.add_child db ~parent:(key 0) (key 1));
  Alcotest.check_raises "missing parent" (Invalid_argument "Mapdb.add_child: parent not in database")
    (fun () -> Mapdb.add_child db ~parent:(key 7) (key 8));
  Mapdb.remove_child db ~parent:(key 0) (key 1);
  check Alcotest.bool "removed" false (Mapdb.has_child db ~parent:(key 0) (key 1));
  Mapdb.remove_child db ~parent:(key 0) (key 9) (* no-op *);
  check Alcotest.int "one left" 1 (Mapdb.child_count db (key 0));
  check
    Alcotest.(list int)
    "insertion order" [ 2 ]
    (List.map Key.obj (Mapdb.children db (key 0)))

let test_cap_marking () =
  let c = Cap.make ~key:(key 0) ~kind:mem_kind ~owner_vpe:1 () in
  c.Cap.state <- Cap.Marked { revoke_op = 7 };
  check Alcotest.bool "marked" true (Cap.is_marked c)

(* ------------------------------------------------------------------ *)
(* Capspace                                                            *)

let test_capspace_alloc () =
  let cs = Capspace.create () in
  let s0 = Capspace.insert cs (key 0) in
  let s1 = Capspace.insert cs (key 1) in
  check Alcotest.int "first selector" 0 s0;
  check Alcotest.int "second selector" 1 s1;
  check Alcotest.(option int) "reverse lookup" (Some 1) (Capspace.selector_of cs (key 1));
  Capspace.remove cs s0;
  (* The freed selector is reused. *)
  check Alcotest.int "selector reuse" 0 (Capspace.insert cs (key 2));
  check Alcotest.int "count" 2 (Capspace.count cs)

let test_capspace_insert_at () =
  let cs = Capspace.create () in
  Capspace.insert_at cs 5 (key 0);
  check Alcotest.bool "find at 5" true (Capspace.find cs 5 = Some (key 0));
  Alcotest.check_raises "taken" (Invalid_argument "Capspace.insert_at: selector taken")
    (fun () -> Capspace.insert_at cs 5 (key 1));
  Alcotest.check_raises "negative" (Invalid_argument "Capspace.insert_at: negative selector")
    (fun () -> Capspace.insert_at cs (-1) (key 1))

let test_capspace_remove_key () =
  let cs = Capspace.create () in
  ignore (Capspace.insert cs (key 0));
  Capspace.remove_key cs (key 0);
  check Alcotest.int "gone" 0 (Capspace.count cs);
  Capspace.remove_key cs (key 0) (* idempotent *)

let prop_capspace_selectors_unique =
  QCheck.Test.make ~name:"live selectors are unique" ~count:100
    QCheck.(list (int_bound 50))
    (fun objs ->
      let cs = Capspace.create () in
      let sels = List.mapi (fun i _ -> Capspace.insert cs (key i)) objs in
      List.length (List.sort_uniq Int.compare sels) = List.length sels)

(* ------------------------------------------------------------------ *)
(* Mapdb                                                               *)

let test_mapdb_basic () =
  let db = Mapdb.create () in
  let c = Cap.make ~key:(key 0) ~kind:mem_kind ~owner_vpe:1 () in
  Mapdb.insert db c;
  check Alcotest.bool "mem" true (Mapdb.mem db (key 0));
  check Alcotest.bool "get" true (Mapdb.get db (key 0) == c);
  Alcotest.check_raises "duplicate" (Invalid_argument "Mapdb.insert: duplicate key") (fun () ->
      Mapdb.insert db c);
  Alcotest.check_raises "get missing" Not_found (fun () -> ignore (Mapdb.get db (key 1)));
  Mapdb.remove db (key 0);
  check Alcotest.int "count" 0 (Mapdb.count db)

let test_mapdb_caps_of_vpe () =
  let db = Mapdb.create () in
  Mapdb.insert db (Cap.make ~key:(key 0) ~kind:mem_kind ~owner_vpe:1 ());
  Mapdb.insert db (Cap.make ~key:(key 1) ~kind:mem_kind ~owner_vpe:2 ());
  Mapdb.insert db (Cap.make ~key:(key 2) ~kind:mem_kind ~owner_vpe:1 ());
  check Alcotest.int "vpe 1 owns two" 2 (List.length (Mapdb.caps_of_vpe db ~vpe:1))

(* Ownership chains are indexed by owner id: a negative owner is
   refused up front and leaves the database untouched. *)
let test_arena_negative_owner () =
  let arena = Semper_caps.Arena.create () in
  Alcotest.check_raises "negative owner" (Invalid_argument "Arena.insert: negative owner VPE")
    (fun () -> Semper_caps.Arena.insert arena (Cap.make ~key:(key 0) ~kind:mem_kind ~owner_vpe:(-1) ()));
  check Alcotest.int "nothing inserted" 0 (Semper_caps.Arena.count arena);
  check Alcotest.bool "key free" false (Semper_caps.Arena.mem arena (key 0));
  Semper_caps.Arena.insert arena (Cap.make ~key:(key 0) ~kind:mem_kind ~owner_vpe:0 ());
  check Alcotest.int "owner 0 accepted" 1 (List.length (Semper_caps.Arena.caps_of_vpe arena ~vpe:0))

let test_mapdb_fresh_obj_monotonic () =
  let db = Mapdb.create () in
  let a = Mapdb.fresh_obj db and b = Mapdb.fresh_obj db in
  check Alcotest.bool "monotonic" true (b > a)

let test_mapdb_link_check () =
  let db = Mapdb.create () in
  let parent = Cap.make ~key:(key 0) ~kind:mem_kind ~owner_vpe:1 () in
  let child = Cap.make ~key:(key 1) ~kind:mem_kind ~owner_vpe:1 ~parent:(key 0) () in
  Mapdb.insert db parent;
  Mapdb.insert db child;
  (* Parent does not list the child: inconsistent. *)
  check Alcotest.bool "violation found" true (Mapdb.check_local_links db <> []);
  Mapdb.add_child db ~parent:(key 0) (key 1);
  check Alcotest.(list string) "consistent now" [] (Mapdb.check_local_links db);
  (* A child entry pointing to a wrong parent is also caught. *)
  child.Cap.parent <- Some (key 2);
  check Alcotest.bool "wrong parent caught" true (Mapdb.check_local_links db <> [])

let suite =
  [
    Alcotest.test_case "perms basics" `Quick test_perms_basics;
    qcheck prop_perms_subset_refl;
    qcheck prop_perms_inter_subset;
    qcheck prop_perms_subset_antisym;
    Alcotest.test_case "cap children" `Quick test_cap_children;
    Alcotest.test_case "cap marking" `Quick test_cap_marking;
    Alcotest.test_case "capspace alloc" `Quick test_capspace_alloc;
    Alcotest.test_case "capspace insert_at" `Quick test_capspace_insert_at;
    Alcotest.test_case "capspace remove_key" `Quick test_capspace_remove_key;
    qcheck prop_capspace_selectors_unique;
    Alcotest.test_case "mapdb basic" `Quick test_mapdb_basic;
    Alcotest.test_case "mapdb caps_of_vpe" `Quick test_mapdb_caps_of_vpe;
    Alcotest.test_case "mapdb fresh_obj" `Quick test_mapdb_fresh_obj_monotonic;
    Alcotest.test_case "arena rejects a negative owner" `Quick test_arena_negative_owner;
    Alcotest.test_case "mapdb link check" `Quick test_mapdb_link_check;
  ]
