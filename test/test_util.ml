(* Unit and property tests for the utility substrate (RNG, statistics,
   table rendering, the int-keyed tables of the message path) and for
   the binary heap behind the engine oracle. *)

open Semperos

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let int_heap () = Heap.create ~dummy:0 ~compare:Int.compare

let test_heap_basic () =
  let h = int_heap () in
  check Alcotest.bool "empty" true (Heap.is_empty h);
  Heap.push h 5;
  Heap.push h 1;
  Heap.push h 3;
  check Alcotest.int "length" 3 (Heap.length h);
  check Alcotest.(option int) "peek" (Some 1) (Heap.peek h);
  check Alcotest.int "pop 1" 1 (Heap.pop h);
  check Alcotest.int "pop 3" 3 (Heap.pop h);
  check Alcotest.int "pop 5" 5 (Heap.pop h);
  check Alcotest.bool "empty again" true (Heap.is_empty h)

let test_heap_pop_empty () =
  let h = int_heap () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty heap") (fun () ->
      ignore (Heap.pop h))

let test_heap_clear_and_fold () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 4; 2; 9 ];
  check Alcotest.int "fold sum" 15 (Heap.fold ( + ) 0 h);
  Heap.clear h;
  check Alcotest.int "cleared" 0 (Heap.length h)

let test_heap_duplicates () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 2; 2; 1; 2 ];
  check Alcotest.(list int) "pops sorted with dups" [ 1; 2; 2; 2 ]
    (List.init 4 (fun _ -> Heap.pop h))

let test_heap_shrink () =
  let h = int_heap () in
  check Alcotest.int "initial capacity" 16 (Heap.capacity h);
  for i = 1 to 1000 do
    Heap.push h i
  done;
  let grown = Heap.capacity h in
  check Alcotest.bool "capacity grew" true (grown >= 1000);
  (* Draining must hand storage back: once the population falls below a
     quarter of capacity, pop halves the array. *)
  for _ = 1 to 900 do
    ignore (Heap.pop h)
  done;
  check Alcotest.bool "capacity released" true (Heap.capacity h < grown);
  check Alcotest.bool "capacity still fits contents" true (Heap.capacity h >= Heap.length h);
  for _ = 1 to 100 do
    ignore (Heap.pop h)
  done;
  check Alcotest.bool "empty heap back at the floor" true (Heap.capacity h <= 16);
  (* Shrinking must never lose or reorder elements. *)
  let h2 = int_heap () in
  for i = 500 downto 1 do
    Heap.push h2 i
  done;
  let out = List.init 500 (fun _ -> Heap.pop h2) in
  check Alcotest.(list int) "drain still sorted across shrinks" (List.init 500 (fun i -> i + 1))
    out

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = int_heap () in
      List.iter (Heap.push h) xs;
      let out = List.init (List.length xs) (fun _ -> Heap.pop h) in
      out = List.sort Int.compare xs)

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap interleaved push/pop keeps min" ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = int_heap () in
      (* Model: sorted list of live elements. *)
      let model = ref [] in
      List.for_all
        (fun (is_pop, x) ->
          if is_pop then
            match !model with
            | [] -> true
            | m :: rest ->
              let got = Heap.pop h in
              model := rest;
              got = m
          else begin
            Heap.push h x;
            model := List.sort Int.compare (x :: !model);
            true
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "int out of bounds";
    let v = Rng.int_in r 5 9 in
    if v < 5 || v > 9 then Alcotest.fail "int_in out of bounds";
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of bounds"
  done

let test_rng_invalid () =
  let r = Rng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_split_independent () =
  let a = Rng.create 5L in
  let b = Rng.split a in
  check Alcotest.bool "split differs from parent" true (Rng.next a <> Rng.next b)

let test_rng_exponential_positive () =
  let r = Rng.create 11L in
  for _ = 1 to 100 do
    if Rng.exponential r ~mean:10.0 < 0.0 then Alcotest.fail "negative exponential"
  done

let prop_rng_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:100
    QCheck.(pair int64 (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Rng.shuffle (Rng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_acc () =
  let a = Stats.Acc.create () in
  List.iter (Stats.Acc.add a) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Stats.Acc.count a);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.Acc.mean a);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.Acc.min a);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.Acc.max a);
  check (Alcotest.float 1e-9) "sum" 10.0 (Stats.Acc.sum a);
  check (Alcotest.float 1e-6) "stddev" 1.2909944487 (Stats.Acc.stddev a)

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.percentile 50.0 xs);
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile 0.0 xs);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile 100.0 xs);
  check (Alcotest.float 1e-9) "p25" 2.0 (Stats.percentile 25.0 xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile 50.0 []))

let test_histogram () =
  let h = Stats.Histogram.create ~buckets:[| 10.0; 20.0 |] in
  List.iter (Stats.Histogram.add h) [ 5.0; 10.0; 15.0; 25.0; 100.0 ];
  check Alcotest.(array int) "counts" [| 2; 1; 2 |] (Stats.Histogram.counts h);
  check Alcotest.int "total" 5 (Stats.Histogram.total h)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let m = Stats.mean xs in
      let lo = List.fold_left min infinity xs and hi = List.fold_left max neg_infinity xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "line count" 4 (List.length lines);
  (* Aligned: every line has the same width. *)
  match lines with
  | first :: rest ->
    List.iter
      (fun l -> check Alcotest.int "width" (String.length first) (String.length l))
      rest
  | [] -> Alcotest.fail "no lines"

let test_table_arity () =
  Alcotest.check_raises "bad arity" (Invalid_argument "Table.render: row arity differs from header")
    (fun () -> ignore (Table.render ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_series () =
  let s = Table.Series.create ~x_label:"x" ~labels:[ "y1"; "y2" ] in
  Table.Series.add_row s ~x:1.0 [ Some 2.0; None ];
  Table.Series.add_row s ~x:2.0 [ Some 4.5; Some 1.0 ];
  let out = Table.Series.render s in
  check Alcotest.bool "contains dash for missing" true (String.contains out '-');
  check Alcotest.bool "contains 4.50" true
    (String.length out > 0
    && Str_contains.contains out "4.50")

(* ------------------------------------------------------------------ *)
(* Int_table: the polymorphic table's order, monomorphically           *)

module Int_table = Semper_util.Int_table
module Flat_map = Semper_util.Flat_map

type table_op = Add of int * int | Replace of int * int | Remove of int

let pp_table_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k

(* Keys mix small ids, negatives, wide strides and arbitrary ints. The
   script opens with 300 adds, so every table crosses at least four
   resizes (16 -> 256 buckets) before the mixed tail reshapes it. *)
let table_script_gen =
  QCheck.Gen.(
    let key =
      oneof
        [ int_range 0 700; int_range (-60) 60; map (fun k -> k * 4096) (int_range 0 400); int ]
    in
    let op =
      frequency
        [
          (4, map2 (fun k v -> Add (k, v)) key small_nat);
          (3, map2 (fun k v -> Replace (k, v)) key small_nat);
          (3, map (fun k -> Remove k) key);
        ]
    in
    triple (int_range 0 100)
      (list_size (return 300) (map2 (fun k v -> Add (k, v)) key small_nat))
      (list_size (int_range 0 900) op))

let arb_table_script =
  QCheck.make table_script_gen ~print:(fun (n, a, b) ->
      Printf.sprintf "create %d; %s" n (String.concat "; " (List.map pp_table_op (a @ b))))

let prop_int_table_order =
  QCheck.Test.make ~name:"Int_table iterates in the polymorphic Hashtbl's order" ~count:200
    arb_table_script (fun (n, prefix, tail) ->
      let mono = Int_table.create n and poly = Hashtbl.create n in
      List.iter
        (function
          | Add (k, v) ->
            Int_table.add mono k v;
            Hashtbl.add poly k v
          | Replace (k, v) ->
            Int_table.replace mono k v;
            Hashtbl.replace poly k v
          | Remove k ->
            Int_table.remove mono k;
            Hashtbl.remove poly k)
        (prefix @ tail);
      let folded fold tbl = fold (fun k v acc -> (k, v) :: acc) tbl [] in
      let iterated iter tbl =
        let acc = ref [] in
        iter (fun k v -> acc := (k, v) :: !acc) tbl;
        !acc
      in
      (Hashtbl.stats poly).Hashtbl.num_buckets >= 256
      && folded Int_table.fold mono = folded Hashtbl.fold poly
      && iterated Int_table.iter mono = iterated Hashtbl.iter poly)

(* ------------------------------------------------------------------ *)
(* Flat_map: differential against Hashtbl                              *)

type flat_op = Set of int * int | Raise of int * int | Find of int

let flat_script_gen =
  QCheck.Gen.(
    let key =
      oneof [ int_range 0 300; map (fun k -> k * 8192) (int_range 0 300); int_range 0 max_int ]
    in
    list_size (int_range 150 1500)
      (frequency
         [
           (3, map2 (fun k v -> Set (k, v)) key int);
           (3, map2 (fun k v -> Raise (k, v)) key int);
           (3, map (fun k -> Find k) key);
         ]))

let arb_flat_script =
  QCheck.make flat_script_gen ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Set (k, v) -> Printf.sprintf "set %d %d" k v
             | Raise (k, v) -> Printf.sprintf "raise %d %d" k v
             | Find k -> Printf.sprintf "find %d" k)
           ops))

let prop_flat_map_model =
  QCheck.Test.make ~name:"Flat_map agrees with Hashtbl across growths" ~count:200 arb_flat_script
    (fun ops ->
      let m = Flat_map.create 0 and model = Hashtbl.create 16 in
      let agrees =
        List.for_all
          (function
            | Set (k, v) ->
              Flat_map.replace m k v;
              Hashtbl.replace model k v;
              true
            | Raise (k, v) ->
              let want =
                match Hashtbl.find_opt model k with Some old when old >= v -> old | _ -> v
              in
              Hashtbl.replace model k want;
              Flat_map.raise_to m k v = want
            | Find k ->
              Flat_map.find_default m k ~default:min_int
              = Option.value (Hashtbl.find_opt model k) ~default:min_int)
          ops
      in
      let bindings iter t =
        let acc = ref [] in
        iter (fun k v -> acc := (k, v) :: !acc) t;
        List.sort compare !acc
      in
      agrees
      && Flat_map.length m = Hashtbl.length model
      && bindings Flat_map.iter m = bindings Hashtbl.iter model)

(* At least three growths from the smallest table, then a full check
   of every key, bound and unbound. *)
let test_flat_map_growth () =
  let m = Flat_map.create 0 in
  for k = 0 to 299 do
    Flat_map.replace m (k * 7) k
  done;
  check Alcotest.int "length" 300 (Flat_map.length m);
  for k = 0 to 2099 do
    let want = if k mod 7 = 0 then k / 7 else -1 in
    check Alcotest.int (Printf.sprintf "key %d" k) want (Flat_map.find_default m k ~default:(-1))
  done;
  Flat_map.clear m;
  check Alcotest.int "cleared" 0 (Flat_map.length m);
  check Alcotest.int "cleared key" (-1) (Flat_map.find_default m 7 ~default:(-1));
  Alcotest.check_raises "negative key" (Invalid_argument "Flat_map: negative key") (fun () ->
      Flat_map.replace m (-1) 0)

(* Fabric keys are [src * pe_count + dst]: long runs of keys sharing
   their low bits. A hash that keeps the low bits (the identity) piles
   them into one cluster; the multiplicative hash keeps every probe
   short. *)
let test_flat_map_spreads_strided_keys () =
  List.iter
    (fun stride ->
      let m = Flat_map.create 0 in
      for i = 0 to 999 do
        Flat_map.replace m (i * stride) i
      done;
      let d = Flat_map.max_displacement m in
      check Alcotest.bool (Printf.sprintf "stride %d: longest probe %d" stride d) true (d <= 32))
    [ 1; 64; 4096; 65536; 1 lsl 30 ]

let suite =
  [
    Alcotest.test_case "heap basic" `Quick test_heap_basic;
    Alcotest.test_case "heap pop empty" `Quick test_heap_pop_empty;
    Alcotest.test_case "heap clear/fold" `Quick test_heap_clear_and_fold;
    Alcotest.test_case "heap duplicates" `Quick test_heap_duplicates;
    Alcotest.test_case "heap shrinks when drained" `Quick test_heap_shrink;
    qcheck prop_heap_sorted;
    qcheck prop_heap_interleaved;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng invalid" `Quick test_rng_invalid;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng exponential" `Quick test_rng_exponential_positive;
    qcheck prop_rng_shuffle_permutation;
    Alcotest.test_case "stats acc" `Quick test_acc;
    Alcotest.test_case "stats percentile" `Quick test_percentile;
    Alcotest.test_case "stats histogram" `Quick test_histogram;
    qcheck prop_mean_bounded;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity;
    Alcotest.test_case "series render" `Quick test_series;
    qcheck prop_int_table_order;
    qcheck prop_flat_map_model;
    Alcotest.test_case "flat map growth" `Quick test_flat_map_growth;
    Alcotest.test_case "flat map spreads strided keys" `Quick test_flat_map_spreads_strided_keys;
  ]
