(* Unit tests for Dvbp_prelude: exact integer math, float helpers, list
   helpers and the splittable RNG. *)

open Dvbp_prelude

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let intmath_tests =
  [
    Alcotest.test_case "ceil_div exact" `Quick (fun () ->
        check_int "6/3" 2 (Intmath.ceil_div 6 3));
    Alcotest.test_case "ceil_div rounds up" `Quick (fun () ->
        check_int "7/3" 3 (Intmath.ceil_div 7 3);
        check_int "1/100" 1 (Intmath.ceil_div 1 100));
    Alcotest.test_case "ceil_div zero numerator" `Quick (fun () ->
        check_int "0/5" 0 (Intmath.ceil_div 0 5));
    Alcotest.test_case "ceil_div rejects bad input" `Quick (fun () ->
        Alcotest.check_raises "negative a" (Invalid_argument "Intmath.ceil_div: negative numerator")
          (fun () -> ignore (Intmath.ceil_div (-1) 2));
        Alcotest.check_raises "zero b" (Invalid_argument "Intmath.ceil_div: non-positive denominator")
          (fun () -> ignore (Intmath.ceil_div 1 0)));
    Alcotest.test_case "gcd basics" `Quick (fun () ->
        check_int "gcd 12 18" 6 (Intmath.gcd 12 18);
        check_int "gcd 0 0" 0 (Intmath.gcd 0 0);
        check_int "gcd negative" 6 (Intmath.gcd (-12) 18));
    Alcotest.test_case "lcm basics" `Quick (fun () ->
        check_int "lcm 4 6" 12 (Intmath.lcm 4 6);
        check_int "lcm 0 5" 0 (Intmath.lcm 0 5));
    Alcotest.test_case "pow basics" `Quick (fun () ->
        check_int "2^10" 1024 (Intmath.pow 2 10);
        check_int "x^0" 1 (Intmath.pow 99 0);
        check_int "x^1" 99 (Intmath.pow 99 1);
        check_int "0^3" 0 (Intmath.pow 0 3));
    Alcotest.test_case "pow rejects negative exponent" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Intmath.pow: negative exponent")
          (fun () -> ignore (Intmath.pow 2 (-1))));
    Alcotest.test_case "mul_checked overflow" `Quick (fun () ->
        check_int "small" 42 (Intmath.mul_checked 6 7);
        check_bool "overflow raises" true
          (try ignore (Intmath.mul_checked max_int 2); false
           with Failure _ -> true));
    Alcotest.test_case "sum_checked" `Quick (fun () ->
        check_int "sum" 10 (Intmath.sum_checked [ 1; 2; 3; 4 ]);
        check_bool "overflow raises" true
          (try ignore (Intmath.sum_checked [ max_int; 1 ]); false
           with Failure _ -> true));
  ]

let floatx_tests =
  [
    Alcotest.test_case "approx_equal near" `Quick (fun () ->
        check_bool "1 vs 1+1e-12" true (Floatx.approx_equal 1.0 (1.0 +. 1e-12));
        check_bool "1 vs 1.1" false (Floatx.approx_equal 1.0 1.1));
    Alcotest.test_case "approx_equal scales" `Quick (fun () ->
        check_bool "big numbers" true (Floatx.approx_equal 1e12 (1e12 +. 1.0)));
    Alcotest.test_case "kahan_sum accuracy" `Quick (fun () ->
        let xs = List.init 10_000 (fun _ -> 0.1) in
        Alcotest.(check (float 1e-9)) "10000 * 0.1" 1000.0 (Floatx.kahan_sum xs));
    Alcotest.test_case "kahan_sum empty" `Quick (fun () ->
        Alcotest.(check (float 0.0)) "empty" 0.0 (Floatx.kahan_sum []));
    Alcotest.test_case "clamp" `Quick (fun () ->
        Alcotest.(check (float 0.0)) "below" 0.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 (-3.0));
        Alcotest.(check (float 0.0)) "above" 1.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 2.0);
        Alcotest.(check (float 0.0)) "inside" 0.5 (Floatx.clamp ~lo:0.0 ~hi:1.0 0.5));
    Alcotest.test_case "clamp rejects inverted bounds" `Quick (fun () ->
        Alcotest.check_raises "lo>hi" (Invalid_argument "Floatx.clamp: lo > hi")
          (fun () -> ignore (Floatx.clamp ~lo:1.0 ~hi:0.0 0.5)));
  ]

let listx_tests =
  [
    Alcotest.test_case "sum_by" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "sum" 6.0
          (Listx.sum_by float_of_int [ 1; 2; 3 ]));
    Alcotest.test_case "max_by picks first among ties" `Quick (fun () ->
        Alcotest.(check (option (pair int int)))
          "ties" (Some (1, 5))
          (Listx.max_by snd [ (1, 5); (2, 5); (3, 4) ]));
    Alcotest.test_case "max_by empty" `Quick (fun () ->
        Alcotest.(check (option int)) "none" None (Listx.max_by Fun.id []));
    Alcotest.test_case "min_by picks first among ties" `Quick (fun () ->
        Alcotest.(check (option (pair int int)))
          "ties" (Some (2, 1))
          (Listx.min_by snd [ (1, 5); (2, 1); (3, 1) ]));
    Alcotest.test_case "range" `Quick (fun () ->
        Alcotest.(check (list int)) "1..4" [ 1; 2; 3; 4 ] (Listx.range 1 4);
        Alcotest.(check (list int)) "empty" [] (Listx.range 3 2));
    Alcotest.test_case "take" `Quick (fun () ->
        Alcotest.(check (list int)) "take 2" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
        Alcotest.(check (list int)) "take beyond" [ 1 ] (Listx.take 5 [ 1 ]));
    Alcotest.test_case "group_consecutive" `Quick (fun () ->
        Alcotest.(check (list (list int)))
          "runs"
          [ [ 1; 1 ]; [ 2 ]; [ 1 ] ]
          (Listx.group_consecutive ( = ) [ 1; 1; 2; 1 ]));
    Alcotest.test_case "pairs" `Quick (fun () ->
        Alcotest.(check int) "count" 6 (List.length (Listx.pairs [ 1; 2; 3; 4 ])));
  ]

let rng_tests =
  [
    Alcotest.test_case "same seed same stream" `Quick (fun () ->
        let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
        let xs = List.init 20 (fun _ -> Rng.int a 1000) in
        let ys = List.init 20 (fun _ -> Rng.int b 1000) in
        Alcotest.(check (list int)) "equal" xs ys);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
        let xs = List.init 20 (fun _ -> Rng.int a 1000) in
        let ys = List.init 20 (fun _ -> Rng.int b 1000) in
        check_bool "differ" true (xs <> ys));
    Alcotest.test_case "split is deterministic and consumption-independent" `Quick
      (fun () ->
        let a = Rng.create ~seed:42 in
        ignore (Rng.int a 10);
        (* consuming the parent must not change children *)
        let c1 = Rng.split a ~key:7 in
        let b = Rng.create ~seed:42 in
        let c2 = Rng.split b ~key:7 in
        let xs = List.init 10 (fun _ -> Rng.int c1 1000) in
        let ys = List.init 10 (fun _ -> Rng.int c2 1000) in
        Alcotest.(check (list int)) "equal children" xs ys);
    Alcotest.test_case "split children with distinct keys differ" `Quick (fun () ->
        let a = Rng.create ~seed:42 in
        let c1 = Rng.split a ~key:1 and c2 = Rng.split a ~key:2 in
        let xs = List.init 10 (fun _ -> Rng.int c1 1000) in
        let ys = List.init 10 (fun _ -> Rng.int c2 1000) in
        check_bool "differ" true (xs <> ys));
    Alcotest.test_case "consuming one child never perturbs a sibling" `Quick
      (fun () ->
        (* the determinism contract of the parallel runner: instance i's
           stream depends only on the derivation path, not on how much any
           other instance has consumed *)
        let a = Rng.create ~seed:42 in
        let c1 = Rng.split a ~key:1 in
        for _ = 1 to 1000 do
          ignore (Rng.int c1 1000)
        done;
        let c2 = Rng.split a ~key:2 in
        let b = Rng.create ~seed:42 in
        let c2' = Rng.split b ~key:2 in
        let xs = List.init 10 (fun _ -> Rng.int c2 1000) in
        let ys = List.init 10 (fun _ -> Rng.int c2' 1000) in
        Alcotest.(check (list int)) "sibling unaffected" xs ys);
    Alcotest.test_case "splits off a shared parent are domain-safe" `Quick
      (fun () ->
        (* split only reads the parent's immutable path, so concurrent
           splits from worker domains equal their sequential counterparts *)
        let a = Rng.create ~seed:42 in
        let draw key =
          let c = Rng.split a ~key in
          List.init 5 (fun _ -> Rng.int c 1000)
        in
        let expected = List.init 8 draw in
        let ds = List.init 8 (fun key -> Domain.spawn (fun () -> draw key)) in
        let got = List.map Domain.join ds in
        List.iter2
          (fun xs ys -> Alcotest.(check (list int)) "same stream" xs ys)
          expected got);
    Alcotest.test_case "int_incl bounds" `Quick (fun () ->
        let r = Rng.create ~seed:3 in
        for _ = 1 to 200 do
          let x = Rng.int_incl r ~lo:5 ~hi:9 in
          check_bool "in range" true (x >= 5 && x <= 9)
        done);
    Alcotest.test_case "int_incl degenerate range" `Quick (fun () ->
        let r = Rng.create ~seed:3 in
        check_int "singleton" 7 (Rng.int_incl r ~lo:7 ~hi:7));
    Alcotest.test_case "int_incl rejects inverted" `Quick (fun () ->
        let r = Rng.create ~seed:3 in
        Alcotest.check_raises "lo>hi" (Invalid_argument "Rng.int_incl: lo > hi")
          (fun () -> ignore (Rng.int_incl r ~lo:2 ~hi:1)));
    Alcotest.test_case "exponential positive with right mean" `Quick (fun () ->
        let r = Rng.create ~seed:11 in
        let n = 20_000 in
        let acc = ref 0.0 in
        for _ = 1 to n do
          let x = Rng.exponential r ~mean:4.0 in
          check_bool "positive" true (x >= 0.0);
          acc := !acc +. x
        done;
        let mean = !acc /. float_of_int n in
        check_bool "mean near 4" true (Float.abs (mean -. 4.0) < 0.2));
    Alcotest.test_case "pareto respects scale" `Quick (fun () ->
        let r = Rng.create ~seed:11 in
        for _ = 1 to 200 do
          check_bool "x >= scale" true (Rng.pareto r ~shape:2.0 ~scale:3.0 >= 3.0)
        done);
    Alcotest.test_case "seed_path records derivation" `Quick (fun () ->
        let a = Rng.create ~seed:42 in
        let c = Rng.split (Rng.split a ~key:3) ~key:17 in
        Alcotest.(check string) "path" "42/3/17" (Rng.seed_path c));
    Alcotest.test_case "pick rejects empty" `Quick (fun () ->
        let r = Rng.create ~seed:1 in
        Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
          (fun () -> ignore (Rng.pick r [||])));
  ]

let heap_tests =
  [
    Alcotest.test_case "pops in ascending order" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare () in
        List.iter (Heap.add h) [ 5; 1; 4; 1; 3 ];
        Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] (Heap.drain h);
        check_bool "empty after drain" true (Heap.is_empty h));
    Alcotest.test_case "peek does not remove" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare () in
        Heap.add h 2;
        Heap.add h 1;
        Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek_min h);
        check_int "size" 2 (Heap.size h));
    Alcotest.test_case "empty heap pops None" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare () in
        Alcotest.(check (option int)) "pop" None (Heap.pop_min h);
        Alcotest.(check (option int)) "peek" None (Heap.peek_min h));
    Alcotest.test_case "of_list heapifies" `Quick (fun () ->
        let h = Heap.of_list ~cmp:Int.compare [ 9; 2; 7; 2; 8 ] in
        Alcotest.(check (list int)) "sorted" [ 2; 2; 7; 8; 9 ] (Heap.drain h));
    Alcotest.test_case "custom comparison (max-heap)" `Quick (fun () ->
        let h = Heap.of_list ~cmp:(fun a b -> Int.compare b a) [ 1; 3; 2 ] in
        Alcotest.(check (option int)) "max first" (Some 3) (Heap.pop_min h));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"heap drain equals list sort" ~count:300
         QCheck2.Gen.(list (int_bound 1000))
         (fun xs ->
           let h = Heap.of_list ~cmp:Int.compare xs in
           Heap.drain h = List.sort Int.compare xs));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"interleaved add/pop maintains order" ~count:200
         QCheck2.Gen.(list (pair bool (int_bound 100)))
         (fun ops ->
           let h = Heap.create ~cmp:Int.compare () in
           let model = ref [] in
           List.for_all
             (fun (is_pop, x) ->
               if is_pop then (
                 let expected =
                   match !model with [] -> None | sorted -> Some (List.hd sorted)
                 in
                 let got = Heap.pop_min h in
                 (match !model with [] -> () | _ :: rest -> model := rest);
                 got = expected)
               else (
                 Heap.add h x;
                 model := List.sort Int.compare (x :: !model);
                 true))
             ops));
  ]


let int_table_tests =
  let module T = Dvbp_prelude.Int_table in
  [
    Alcotest.test_case "replace, find, mem" `Quick (fun () ->
        let t = T.create ~dummy:"-" () in
        T.replace t 3 "three";
        T.replace t 0 "zero";
        Alcotest.(check string) "find 3" "three" (T.find t 3);
        Alcotest.(check (option string)) "find_opt 0" (Some "zero") (T.find_opt t 0);
        Alcotest.(check bool) "mem 3" true (T.mem t 3);
        Alcotest.(check bool) "mem 7" false (T.mem t 7);
        Alcotest.(check (option string)) "absent" None (T.find_opt t 7);
        Alcotest.check_raises "find absent" Not_found (fun () ->
            ignore (T.find t 7));
        Alcotest.(check int) "length" 2 (T.length t));
    Alcotest.test_case "replace overwrites without growing" `Quick (fun () ->
        let t = T.create ~dummy:0 () in
        T.replace t 5 1;
        T.replace t 5 2;
        Alcotest.(check int) "value" 2 (T.find t 5);
        Alcotest.(check int) "length" 1 (T.length t));
    Alcotest.test_case "negative keys rejected" `Quick (fun () ->
        let t = T.create ~dummy:0 () in
        Alcotest.check_raises "replace" (Invalid_argument "Int_table.replace: negative key")
          (fun () -> T.replace t (-1) 0));
    Alcotest.test_case "grows past the size hint" `Quick (fun () ->
        let t = T.create ~expected:4 ~dummy:(-1) () in
        for k = 0 to 999 do T.replace t (7 * k) k done;
        Alcotest.(check int) "length" 1000 (T.length t);
        for k = 0 to 999 do
          Alcotest.(check int) (string_of_int k) k (T.find t (7 * k))
        done);
    Alcotest.test_case "fold visits every binding once" `Quick (fun () ->
        let t = T.create ~dummy:0 () in
        for k = 0 to 99 do T.replace t k (k * k) done;
        let count = T.fold t (fun _ _ acc -> acc + 1) 0 in
        let sum = T.fold t (fun k v acc -> Alcotest.(check int) "v" (k * k) v; acc + k) 0 in
        Alcotest.(check int) "count" 100 count;
        Alcotest.(check int) "sum of keys" 4950 sum);
    Alcotest.test_case "remove keeps the keys probed past the freed slot" `Quick (fun () ->
        let t = T.create ~dummy:(-1) () in
        for k = 0 to 999 do T.replace t k k done;
        for k = 0 to 999 do if k mod 3 <> 0 then T.remove t k done;
        T.remove t 5000;
        Alcotest.(check int) "length" 334 (T.length t);
        for k = 0 to 999 do
          Alcotest.(check (option int)) (string_of_int k)
            (if k mod 3 = 0 then Some k else None)
            (T.find_opt t k)
        done);
    QCheck_alcotest.to_alcotest
      (* A table created for 8 keys has 32 slots; the pool mixes small keys
         with keys whose home slot (the multiplicative hash the table uses)
         is one of the last three, so runs cluster and wrap past the end —
         where backward-shift deletion has to pull keys across the wrap. *)
      (let wrap_keys =
         List.filter (fun k -> (k * 0x9E3779B1) land 31 >= 29) (List.init 2000 Fun.id)
         |> List.filteri (fun i _ -> i < 12)
       in
       QCheck2.Test.make ~name:"interleaved replace/remove/find agrees with Hashtbl" ~count:500
         QCheck2.Gen.(
           list_size (int_range 1 200)
             (pair (int_bound 4)
                (frequency [ (2, oneofl wrap_keys); (1, int_bound 12); (1, int_bound 100) ])))
         (fun ops ->
           let t = T.create ~expected:8 ~dummy:(-1) () and model = Hashtbl.create 16 in
           let probe = wrap_keys @ List.init 101 Fun.id in
           List.for_all
             (fun (op, k) ->
               (match op with
               | 0 | 1 ->
                   T.replace t k (k + op);
                   Hashtbl.replace model k (k + op)
               | 2 | 3 ->
                   T.remove t k;
                   Hashtbl.remove model k
               | _ -> ());
               T.length t = Hashtbl.length model
               && T.mem t k = Hashtbl.mem model k
               && List.for_all (fun p -> T.find_opt t p = Hashtbl.find_opt model p) probe)
             ops));
  ]

let suites =
  [
    ("prelude.heap", heap_tests);
    ("prelude.intmath", intmath_tests);
    ("prelude.floatx", floatx_tests);
    ("prelude.listx", listx_tests);
    ("prelude.rng", rng_tests);
    ("prelude.int_table", int_table_tests);
  ]
