(* Tests for DDL keys and the membership table. *)

open Semperos

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let key_t = Alcotest.testable Key.pp Key.equal

let test_key_roundtrip () =
  let k = Key.make ~pe:3 ~vpe:17 ~kind:Key.Mem_obj ~obj:12345 in
  check Alcotest.int "pe" 3 (Key.pe k);
  check Alcotest.int "vpe" 17 (Key.vpe k);
  check Alcotest.string "kind" "mem" (Key.kind_to_string (Key.kind k));
  check Alcotest.int "obj" 12345 (Key.obj k);
  check key_t "int64 roundtrip" k (Key.of_int64 (Key.to_int64 k))

let test_key_bounds () =
  ignore (Key.make ~pe:Key.max_pe ~vpe:Key.max_vpe ~kind:Key.Kernel_obj ~obj:Key.max_obj);
  Alcotest.check_raises "pe too big" (Invalid_argument "Key.make: pe out of range") (fun () ->
      ignore (Key.make ~pe:(Key.max_pe + 1) ~vpe:0 ~kind:Key.Vpe_obj ~obj:0));
  Alcotest.check_raises "negative obj" (Invalid_argument "Key.make: obj out of range") (fun () ->
      ignore (Key.make ~pe:0 ~vpe:0 ~kind:Key.Vpe_obj ~obj:(-1)))

let all_kinds =
  [ Key.Vpe_obj; Key.Mem_obj; Key.Srv_obj; Key.Sess_obj; Key.Sgate_obj; Key.Rgate_obj; Key.Kernel_obj ]

let test_key_kinds () =
  List.iter
    (fun kind ->
      let k = Key.make ~pe:1 ~vpe:2 ~kind ~obj:3 in
      check Alcotest.string "kind survives packing" (Key.kind_to_string kind)
        (Key.kind_to_string (Key.kind k)))
    all_kinds

let key_gen =
  QCheck.Gen.(
    map
      (fun (pe, vpe, kind_idx, obj) ->
        Key.make ~pe ~vpe ~kind:(List.nth all_kinds kind_idx) ~obj)
      (tup4 (0 -- Key.max_pe) (0 -- Key.max_vpe) (0 -- 6) (0 -- Key.max_obj)))

let prop_key_roundtrip =
  QCheck.Test.make ~name:"key fields survive pack/unpack" ~count:500 (QCheck.make key_gen)
    (fun k -> Key.equal k (Key.of_int64 (Key.to_int64 k)))

let prop_key_injective =
  QCheck.Test.make ~name:"distinct fields give distinct keys" ~count:500
    (QCheck.make QCheck.Gen.(pair key_gen key_gen))
    (fun (a, b) ->
      let same_fields =
        Key.pe a = Key.pe b && Key.vpe a = Key.vpe b && Key.kind a = Key.kind b
        && Key.obj a = Key.obj b
      in
      Key.equal a b = same_fields)

let test_key_table () =
  let tbl = Key.Table.create 8 in
  let k1 = Key.make ~pe:1 ~vpe:1 ~kind:Key.Vpe_obj ~obj:1 in
  let k2 = Key.make ~pe:1 ~vpe:1 ~kind:Key.Vpe_obj ~obj:2 in
  Key.Table.add tbl k1 "one";
  check Alcotest.(option string) "find" (Some "one") (Key.Table.find_opt tbl k1);
  check Alcotest.(option string) "absent" None (Key.Table.find_opt tbl k2)

let test_membership () =
  let m = Membership.create () in
  Membership.assign m ~pe:0 ~kernel:0;
  Membership.assign m ~pe:1 ~kernel:0;
  Membership.assign m ~pe:2 ~kernel:1;
  check Alcotest.int "kernel of pe" 0 (Membership.kernel_of_pe m 1);
  check Alcotest.int "kernel of key" 1
    (Membership.kernel_of_key m (Key.make ~pe:2 ~vpe:9 ~kind:Key.Mem_obj ~obj:0));
  check Alcotest.(list int) "pes of kernel" [ 0; 1 ] (Membership.pes_of_kernel m 0);
  check Alcotest.(list int) "kernels" [ 0; 1 ] (Membership.kernels m);
  check Alcotest.int "size" 3 (Membership.size m);
  Alcotest.check_raises "unassigned" Not_found (fun () -> ignore (Membership.kernel_of_pe m 9));
  Alcotest.check_raises "double assign" (Invalid_argument "Membership.assign: PE already assigned")
    (fun () -> Membership.assign m ~pe:0 ~kernel:1)

(* PEs outside the assigned range — past the end, negative, in a gap —
   are unassigned: lookups raise [Not_found], [in_handoff] answers
   [false], and nothing else changes. *)
let test_membership_out_of_range () =
  let m = Membership.create () in
  Membership.assign m ~pe:0 ~kernel:0;
  Membership.assign m ~pe:5 ~kernel:1;
  List.iter
    (fun pe ->
      let what = Printf.sprintf "pe %d" pe in
      Alcotest.check_raises what Not_found (fun () -> ignore (Membership.kernel_of_pe m pe));
      check Alcotest.bool (what ^ " not in handoff") false (Membership.in_handoff m pe);
      Alcotest.check_raises (what ^ " reassign") Not_found (fun () ->
          Membership.reassign m ~pe ~kernel:0);
      Alcotest.check_raises (what ^ " begin_handoff") Not_found (fun () ->
          Membership.begin_handoff m ~pe))
    [ 3; 6; 1_000_000; -1; min_int ];
  Alcotest.check_raises "negative pe" (Invalid_argument "Membership.assign: negative id") (fun () ->
      Membership.assign m ~pe:(-2) ~kernel:0);
  check Alcotest.int "size" 2 (Membership.size m);
  check Alcotest.(list int) "kernels" [ 0; 1 ] (Membership.kernels m)

let test_membership_seal_and_copy () =
  let m = Membership.create () in
  Membership.assign m ~pe:0 ~kernel:0;
  let copy = Membership.copy m in
  Membership.seal m;
  check Alcotest.bool "sealed" true (Membership.is_sealed m);
  check Alcotest.bool "copy not sealed" false (Membership.is_sealed copy);
  Alcotest.check_raises "assign after seal" (Invalid_argument "Membership.assign: table is sealed")
    (fun () -> Membership.assign m ~pe:1 ~kernel:0);
  (* The copy is independent. *)
  Membership.assign copy ~pe:1 ~kernel:1;
  check Alcotest.int "copy extended" 2 (Membership.size copy);
  check Alcotest.int "original untouched" 1 (Membership.size m)

let suite =
  [
    Alcotest.test_case "key roundtrip" `Quick test_key_roundtrip;
    Alcotest.test_case "key bounds" `Quick test_key_bounds;
    Alcotest.test_case "key kinds" `Quick test_key_kinds;
    qcheck prop_key_roundtrip;
    qcheck prop_key_injective;
    Alcotest.test_case "key table" `Quick test_key_table;
    Alcotest.test_case "membership" `Quick test_membership;
    Alcotest.test_case "membership seal and copy" `Quick test_membership_seal_and_copy;
    Alcotest.test_case "membership out-of-range PEs" `Quick test_membership_out_of_range;
  ]
