(* Unit tests for the prelude growable array and the open-bin registry —
   the data structures behind the allocation-free policy candidate view. *)

open Dvbp_core
module Vec = Dvbp_vec.Vec
module Dynarray = Dvbp_prelude.Dynarray

let v = Vec.of_list
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dynarray_tests =
  [
    Alcotest.test_case "push and get" `Quick (fun () ->
        let a = Dynarray.create ~dummy:0 () in
        check_bool "empty" true (Dynarray.is_empty a);
        for i = 0 to 99 do
          Dynarray.push a i
        done;
        check_int "length" 100 (Dynarray.length a);
        check_int "first" 0 (Dynarray.get a 0);
        check_int "last" 99 (Dynarray.get a 99));
    Alcotest.test_case "get out of bounds rejected" `Quick (fun () ->
        let a = Dynarray.of_list ~dummy:0 [ 1; 2 ] in
        check_bool "raises" true
          (try ignore (Dynarray.get a 2); false with Invalid_argument _ -> true);
        check_bool "negative" true
          (try ignore (Dynarray.get a (-1)); false with Invalid_argument _ -> true));
    Alcotest.test_case "set replaces in place" `Quick (fun () ->
        let a = Dynarray.of_list ~dummy:0 [ 1; 2; 3 ] in
        Dynarray.set a 1 9;
        Alcotest.(check (list int)) "list" [ 1; 9; 3 ] (Dynarray.to_list a));
    Alcotest.test_case "truncate shrinks, grow rejected" `Quick (fun () ->
        let a = Dynarray.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
        Dynarray.truncate a 2;
        Alcotest.(check (list int)) "kept prefix" [ 1; 2 ] (Dynarray.to_list a);
        check_bool "grow raises" true
          (try Dynarray.truncate a 3; false with Invalid_argument _ -> true));
    Alcotest.test_case "iter and fold in index order" `Quick (fun () ->
        let a = Dynarray.of_list ~dummy:0 [ 1; 2; 3 ] in
        let seen = ref [] in
        Dynarray.iter a (fun x -> seen := x :: !seen);
        Alcotest.(check (list int)) "iter" [ 3; 2; 1 ] !seen;
        check_int "fold" 6 (Dynarray.fold a ( + ) 0));
    Alcotest.test_case "find takes the first match" `Quick (fun () ->
        let a = Dynarray.of_list ~dummy:0 [ 1; 4; 6; 8 ] in
        Alcotest.(check (option int)) "even" (Some 4)
          (Dynarray.find a (fun x -> x mod 2 = 0));
        Alcotest.(check (option int)) "none" None (Dynarray.find a (fun x -> x > 10)));
    Alcotest.test_case "filter_in_place is stable" `Quick (fun () ->
        let a = Dynarray.of_list ~dummy:0 [ 1; 2; 3; 4; 5; 6 ] in
        Dynarray.filter_in_place a (fun x -> x mod 2 = 0);
        Alcotest.(check (list int)) "evens in order" [ 2; 4; 6 ] (Dynarray.to_list a);
        Dynarray.filter_in_place a (fun _ -> false);
        check_bool "emptied" true (Dynarray.is_empty a));
    Alcotest.test_case "clear then reuse" `Quick (fun () ->
        let a = Dynarray.of_list ~dummy:0 [ 1; 2; 3 ] in
        Dynarray.clear a;
        check_int "cleared" 0 (Dynarray.length a);
        Dynarray.push a 7;
        Alcotest.(check (list int)) "reused" [ 7 ] (Dynarray.to_list a));
  ]

(* Registry fixtures: bins of capacity (10,10); [close] empties then closes. *)
let cap2 = v [ 10; 10 ]

let bin ?(load = [ 0; 0 ]) id =
  let b = Bin.create ~id ~capacity:cap2 ~now:0.0 ~touch:id in
  if load <> [ 0; 0 ] then
    Bin.place b
      (Item.make ~id:(100 + id) ~arrival:0.0 ~departure:1.0 ~size:(v load))
      ~touch:id;
  b

let close (b : Bin.t) =
  List.iter (fun r -> Bin.remove b r) b.Bin.active_items;
  Bin.close b ~now:1.0

let ids bins = List.map (fun (b : Bin.t) -> b.Bin.id) bins
let registry ?kernel () = Bin_registry.create ?kernel ~capacity:cap2 ()

let registry_tests =
  [
    Alcotest.test_case "add and count" `Quick (fun () ->
        let t = registry () in
        check_int "empty" 0 (Bin_registry.count t);
        Bin_registry.add t (bin 0);
        Bin_registry.add t (bin 1);
        check_int "two" 2 (Bin_registry.count t);
        Alcotest.(check (list int)) "ascending" [ 0; 1 ]
          (ids (Bin_registry.to_list t)));
    Alcotest.test_case "adding a closed bin rejected" `Quick (fun () ->
        let t = registry () in
        let b = bin 0 in
        close b;
        check_bool "raises" true
          (try Bin_registry.add t b; false with Invalid_argument _ -> true));
    Alcotest.test_case "note_closed on an open bin rejected" `Quick (fun () ->
        let t = registry () in
        let b = bin 0 in
        Bin_registry.add t b;
        check_bool "raises" true
          (try Bin_registry.note_closed t b; false with Invalid_argument _ -> true));
    Alcotest.test_case "closed bins vanish from the view" `Quick (fun () ->
        let t = registry () in
        let bins = List.init 5 bin in
        List.iter (Bin_registry.add t) bins;
        let b2 = List.nth bins 2 in
        close b2;
        Bin_registry.note_closed t b2;
        check_int "count" 4 (Bin_registry.count t);
        Alcotest.(check (list int)) "view" [ 0; 1; 3; 4 ]
          (ids (Bin_registry.to_list t));
        check_bool "find skips closed" true
          (Bin_registry.find t (fun b -> b.Bin.id = 2) = None));
    Alcotest.test_case "order survives heavy closing (compaction)" `Quick (fun () ->
        let t = registry () in
        let bins = List.init 20 bin in
        List.iter (Bin_registry.add t) bins;
        (* close all even bins: dead outnumbers live midway, forcing an
           in-place compaction; ascending order must survive *)
        List.iter
          (fun (b : Bin.t) ->
            if b.Bin.id mod 2 = 0 then begin
              close b;
              Bin_registry.note_closed t b
            end)
          bins;
        check_int "count" 10 (Bin_registry.count t);
        Alcotest.(check (list int)) "odd ids ascending"
          [ 1; 3; 5; 7; 9; 11; 13; 15; 17; 19 ]
          (ids (Bin_registry.to_list t)));
    Alcotest.test_case "find / rfind direction" `Quick (fun () ->
        let t = registry () in
        List.iter (Bin_registry.add t) (List.init 4 bin);
        let id = function Some (b : Bin.t) -> Some b.Bin.id | None -> None in
        Alcotest.(check (option int)) "find" (Some 0)
          (id (Bin_registry.find t (fun _ -> true)));
        Alcotest.(check (option int)) "rfind" (Some 3)
          (id (Bin_registry.rfind t (fun _ -> true))));
    Alcotest.test_case "fitting primitives agree" `Quick (fun () ->
        let t = registry () in
        (* loads 9,1,8,2: a (5,5) item fits bins 1 and 3 only *)
        List.iteri
          (fun i load -> Bin_registry.add t (bin ~load:[ load; load ] i))
          [ 9; 1; 8; 2 ];
        let size = v [ 5; 5 ] in
        let id = function Some (b : Bin.t) -> Some b.Bin.id | None -> None in
        check_int "count_fitting" 2 (Bin_registry.count_fitting t size);
        Alcotest.(check (option int)) "first" (Some 1)
          (id (Bin_registry.find_fitting t size));
        Alcotest.(check (option int)) "last" (Some 3)
          (id (Bin_registry.rfind_fitting t size));
        Alcotest.(check (option int)) "nth 0" (Some 1)
          (id (Bin_registry.nth_fitting t size 0));
        Alcotest.(check (option int)) "nth 1" (Some 3)
          (id (Bin_registry.nth_fitting t size 1));
        Alcotest.(check (option int)) "nth out of range" None
          (id (Bin_registry.nth_fitting t size 2));
        check_bool "exists" true (Bin_registry.exists_fitting t size);
        check_bool "exists big" false (Bin_registry.exists_fitting t (v [ 10; 10 ]));
        check_int "fold over fitting" (1 + 3)
          (Bin_registry.fold_fitting t size (fun acc b -> acc + b.Bin.id) 0));
    Alcotest.test_case "best/worst fit test only bins with room in one dimension"
      `Quick (fun () ->
        List.iter
          (fun kernel ->
            let t = registry ~kernel () in
            (* residuals (1,1) (9,9) (2,8) (8,2) (10,10) (5,5) *)
            let bins =
              List.mapi
                (fun i load -> bin ~load i)
                [ [ 9; 9 ]; [ 1; 1 ]; [ 8; 2 ]; [ 2; 8 ]; [ 0; 0 ]; [ 5; 5 ] ]
            in
            List.iter (Bin_registry.add t) bins;
            (* (5,3) is largest relative to capacity in dimension 0, so only
               the bins with residual_0 >= 5 run the fit test *)
            let size = v [ 5; 3 ] in
            let id = function Some (b : Bin.t) -> b.Bin.id | None -> -1 in
            let tested f =
              let before = (Bin_registry.scan_stats t).Bin_registry.candidates in
              let r = id (f t ~measure:Load_measure.Linf size) in
              (r, (Bin_registry.scan_stats t).Bin_registry.candidates - before)
            in
            let bf = tested Bin_registry.most_loaded_fitting
            and wf = tested Bin_registry.least_loaded_fitting in
            Alcotest.(check (pair int int)) "bf: bins 1,3,4,5 tested" (5, 4) bf;
            Alcotest.(check (pair int int)) "wf" (4, 4) wf;
            (* a closed bin leaves the index at once, before compaction *)
            let b4 = List.nth bins 4 in
            close b4;
            Bin_registry.note_closed t b4;
            Alcotest.(check (pair int int)) "wf after close" (1, 3)
              (tested Bin_registry.least_loaded_fitting);
            (* a refresh moves the bin to the bucket of its new residual *)
            let b1 = List.nth bins 1 in
            Bin.place b1
              (Item.make ~id:99 ~arrival:0.0 ~departure:1.0 ~size:(v [ 5; 0 ]))
              ~touch:9;
            Bin_registry.refresh t b1;
            Alcotest.(check (pair int int)) "bf after refresh" (5, 2)
              (tested Bin_registry.most_loaded_fitting))
          [ `Auto; `Scalar ]);
  ]

(* ------------------------------------------------------------------ *)
(* SWAR fit kernel: selection boundary, forced fallback, and the
   differential property that both kernels are observationally
   identical — same bins returned, same scan statistics. *)

let kernel_of cap_list =
  Bin_registry.kernel_name (Bin_registry.create ~capacity:(v cap_list) ())

let kernel_selection_tests =
  [
    Alcotest.test_case "byte capacities up to d=6 select SWAR" `Quick (fun () ->
        let check_string = Alcotest.(check string) in
        check_string "d=1" "swar" (kernel_of [ 255 ]);
        check_string "d=2" "swar" (kernel_of [ 10; 10 ]);
        check_string "d=5 bin_size=100" "swar" (kernel_of [ 100; 100; 100; 100; 100 ]);
        check_string "d=6 at 255" "swar"
          (kernel_of [ 255; 255; 255; 255; 255; 255 ]));
    Alcotest.test_case "precondition boundary picks scalar" `Quick (fun () ->
        let check_string = Alcotest.(check string) in
        (* bin_size 256 exceeds a byte even at d=1 *)
        check_string "bin_size=256" "scalar" (kernel_of [ 256 ]);
        (* the 63-bit word narrows the payload at d=7 and d=8 *)
        check_string "d=7 at 127" "swar" (kernel_of (List.init 7 (fun _ -> 127)));
        check_string "d=7 at 128" "scalar" (kernel_of (List.init 7 (fun _ -> 128)));
        check_string "d=8 at 31" "swar" (kernel_of (List.init 8 (fun _ -> 31)));
        check_string "d=8 at 32" "scalar" (kernel_of (List.init 8 (fun _ -> 32)));
        check_string "d=9" "scalar" (kernel_of (List.init 9 (fun _ -> 1))));
    Alcotest.test_case "`Scalar forces the fallback kernel" `Quick (fun () ->
        Alcotest.(check string) "forced" "scalar"
          (Bin_registry.kernel_name (registry ~kernel:`Scalar ())));
    Alcotest.test_case "fitting primitives agree under forced scalar" `Quick
      (fun () ->
        (* the registry_tests fixture capacity is SWAR-eligible, so those
           suites pin the SWAR kernel; this one pins the fallback *)
        let t = registry ~kernel:`Scalar () in
        List.iteri
          (fun i load -> Bin_registry.add t (bin ~load:[ load; load ] i))
          [ 9; 1; 8; 2 ];
        let size = v [ 5; 5 ] in
        let id = function Some (b : Bin.t) -> Some b.Bin.id | None -> None in
        check_int "count_fitting" 2 (Bin_registry.count_fitting t size);
        Alcotest.(check (option int)) "first" (Some 1)
          (id (Bin_registry.find_fitting t size));
        Alcotest.(check (option int)) "last" (Some 3)
          (id (Bin_registry.rfind_fitting t size));
        check_bool "exists" true (Bin_registry.exists_fitting t size));
  ]

(* One generated scenario: a capacity, a bin population (initial load,
   an optional second placement after registration, a closed flag), and
   a batch of query sizes. Each twin registry gets its own freshly built
   bins (a bin can only live in one registry), driven through the exact
   same add / refresh / note_closed sequence, so compaction and the
   block-bound index evolve identically. *)
type diff_spec = {
  d : int;
  cap : int array;
  bins_raw : (int array * int array * bool * bool) list;
      (* load mode per dim, raw value per dim, place-second, close *)
  sizes_raw : (int array * int array) list;  (* size mode / raw per dim *)
}

let diff_gen =
  QCheck2.Gen.(
    let* d = 1 -- 8 in
    let maxp = Vec.max_packable ~lane_bits:(63 / d) in
    let* cap =
      array_repeat d
        (frequency [ (2, pure maxp); (1, pure 1); (4, 1 -- maxp) ])
    in
    let* nbins = 0 -- 40 in
    let* bins_raw =
      list_repeat nbins
        (let* mode = array_repeat d (0 -- 4) in
         let* raw = array_repeat d (0 -- 100_000) in
         let* second = bool in
         let* closed = frequency [ (3, pure false); (1, pure true) ] in
         pure (mode, raw, second, closed))
    in
    let* nq = 1 -- 8 in
    let* sizes_raw =
      list_repeat nq
        (let* mode = array_repeat d (0 -- 5) in
         let* raw = array_repeat d (0 -- 100_000) in
         pure (mode, raw))
    in
    pure { d; cap; bins_raw; sizes_raw })

(* mode 0/1 pin the extremes (empty bin → residual = cap, full bin →
   residual = 0); the rest spread uniformly *)
let load_of_mode cap_j mode raw =
  match mode with 0 -> 0 | 1 -> cap_j | _ -> raw mod (cap_j + 1)

(* query sizes also probe just-above-capacity (never fits) and far
   beyond the SWAR lane payload (the pack_size sentinel path) *)
let size_of_mode cap_j mode raw =
  match mode with
  | 0 -> 0
  | 1 -> cap_j
  | 2 -> cap_j + 1
  | 3 -> 300 + (raw mod 100)
  | _ -> raw mod (cap_j + 2)

let build_diff_registry ~kernel { d; cap; bins_raw; _ } =
  let capv = Vec.of_array cap in
  let t = Bin_registry.create ~kernel ~capacity:capv () in
  let bins =
    List.mapi
      (fun i (mode, raw, second, _) ->
        let b = Bin.create ~id:i ~capacity:capv ~now:0.0 ~touch:i in
        let load = Array.init d (fun j -> load_of_mode cap.(j) mode.(j) raw.(j)) in
        (if Array.exists (fun x -> x > 0) load then
           Bin.place b
             (Item.make ~id:(1000 + i) ~arrival:0.0 ~departure:1.0
                ~size:(Vec.of_array load))
             ~touch:i);
        Bin_registry.add t b;
        (* a placement after registration exercises the refresh path and
           the downward clamp of the block bounds *)
        let item2 =
          if second then begin
            let room = Array.init d (fun j -> (cap.(j) - load.(j)) / 2) in
            if Array.exists (fun x -> x > 0) room then begin
              let it =
                Item.make ~id:(2000 + i) ~arrival:0.0 ~departure:1.0
                  ~size:(Vec.of_array room)
              in
              Bin.place b it ~touch:(100 + i);
              Bin_registry.refresh t b;
              Some it
            end
            else None
          end
          else None
        in
        (b, item2))
      bins_raw
  in
  (* closes (with their compactions) interleave with the removals below *)
  List.iteri
    (fun i (_, _, _, closed) ->
      if closed then begin
        let b, _ = List.nth bins i in
        close b;
        Bin_registry.note_closed t b
      end)
    bins_raw;
  (* removing the second item grows the residual back — the upward clamp
     of the block bounds, and the stale-but-conservative lower bound *)
  List.iteri
    (fun i (_, _, _, closed) ->
      if not closed then
        match snd (List.nth bins i) with
        | Some it ->
            let b = fst (List.nth bins i) in
            Bin.remove b it;
            Bin_registry.refresh t b
        | None -> ())
    bins_raw;
  t

let id_of = function Some (b : Bin.t) -> b.Bin.id | None -> -1

let queries_agree swar scalar { d; cap; sizes_raw; _ } =
  List.for_all
    (fun (mode, raw) ->
      let size =
        Vec.of_array (Array.init d (fun j -> size_of_mode cap.(j) mode.(j) raw.(j)))
      in
      let agree f = f swar size = f scalar size in
      agree (fun t s -> id_of (Bin_registry.find_fitting t s))
      && agree (fun t s -> id_of (Bin_registry.rfind_fitting t s))
      && agree (fun t s -> Bin_registry.count_fitting t s)
      && agree (fun t s -> Bin_registry.exists_fitting t s)
      && agree (fun t s -> id_of (Bin_registry.nth_fitting t s 0))
      && agree (fun t s -> id_of (Bin_registry.nth_fitting t s 1))
      && agree (fun t s -> id_of (Bin_registry.recently_used_fitting t s))
      && List.for_all
           (fun m ->
             agree (fun t s -> id_of (Bin_registry.most_loaded_fitting t ~measure:m s))
             && agree (fun t s ->
                    id_of (Bin_registry.least_loaded_fitting t ~measure:m s)))
           [ Load_measure.Linf; Load_measure.L1; Load_measure.Lp 2.0 ]
      && agree (fun t s ->
             Bin_registry.fold_fitting t s (fun acc b -> (7 * acc) + b.Bin.id) 1))
    sizes_raw

let prop_kernels_agree =
  QCheck2.Test.make
    ~name:"SWAR and scalar kernels agree on every primitive and on scan_stats"
    ~count:300 diff_gen (fun spec ->
      let swar = build_diff_registry ~kernel:`Auto spec in
      let scalar = build_diff_registry ~kernel:`Scalar spec in
      (* every generated capacity is SWAR-eligible by construction *)
      Bin_registry.kernel_name swar = "swar"
      && Bin_registry.kernel_name scalar = "scalar"
      && Bin_registry.count swar = Bin_registry.count scalar
      && queries_agree swar scalar spec
      && Bin_registry.scan_stats swar = Bin_registry.scan_stats scalar)

(* ------------------------------------------------------------------ *)
(* Best Fit / Worst Fit against an independent reference. The kernel
   differential above cannot catch a bug in the candidate index the two
   kernels share, so here every selection is re-derived from the bin
   records alone — [Bin.fits] and [Bin.load_measure], earliest bin on
   ties — while adds, placements, removals and closes (with their
   compactions and array growth) interleave with the queries, so every
   mutation path runs both before and after the registry builds its
   index. *)

type ref_op =
  | Add of int array * int array  (* load mode / raw per dim *)
  | Place of int * int array  (* bin pick, raw share of the room per dim *)
  | Remove of int  (* bin pick: its latest item departs *)
  | Close of int  (* bin pick *)
  | Query of int array * int array  (* size mode / raw per dim *)

type ref_spec = { rd : int; rcap : int array; ops : ref_op list }

let ref_ops_gen d =
  QCheck2.Gen.(
    let per_dim = array_repeat d (0 -- 100_000) in
    let* n = 0 -- 1000 in
    list_repeat n
      (frequency
         [
           (6, map2 (fun m r -> Add (m, r)) (array_repeat d (0 -- 4)) per_dim);
           (3, map2 (fun k r -> Place (k, r)) nat per_dim);
           (2, map (fun k -> Remove k) nat);
           (2, map (fun k -> Close k) nat);
           (2, map2 (fun m r -> Query (m, r)) (array_repeat d (0 -- 6)) per_dim);
         ]))

(* byte-sized capacities: both kernels, one bucket per residual value *)
let ref_gen_swar =
  QCheck2.Gen.(
    let* rd = 1 -- 8 in
    let maxp = Vec.max_packable ~lane_bits:(63 / rd) in
    let* rcap =
      array_repeat rd (frequency [ (2, pure maxp); (1, pure 1); (4, 1 -- maxp) ])
    in
    let* ops = ref_ops_gen rd in
    pure { rd; rcap; ops })

(* at least one component above 255: scalar kernel only, coarse buckets on
   the wide dimensions, and components above the fill-ratio table limit *)
let ref_gen_scalar =
  QCheck2.Gen.(
    let* rd = 1 -- 6 in
    let* rcap =
      array_repeat rd
        (frequency [ (1, 1 -- 255); (4, 256 -- 5000); (1, 65_536 -- 300_000) ])
    in
    if Array.for_all (fun c -> c <= 255) rcap then rcap.(0) <- rcap.(0) + 256;
    let* ops = ref_ops_gen rd in
    pure { rd; rcap; ops })

(* query sizes: the diff_gen modes plus a small-item mode, which fits
   many bins of a wide population *)
let ref_size_of_mode cap_j mode raw =
  if mode = 6 then raw mod ((cap_j / 4) + 1) else size_of_mode cap_j mode raw

(* the reference: the bin records alone, ascending open order, strict
   improvement replaces, so ties keep the earliest bin *)
let reference_extremal bins size measure ~largest =
  List.fold_left
    (fun best (b : Bin.t) ->
      if Bin.is_open b && Bin.fits b size then
        let score = Bin.load_measure measure b in
        match best with
        | Some (_, s) when not (if largest then score > s else score < s) -> best
        | _ -> Some (b.Bin.id, score)
      else best)
    None bins
  |> Option.fold ~none:(-1) ~some:fst

let ref_measures = [ Load_measure.Linf; Load_measure.L1; Load_measure.Lp 2.0; Load_measure.Lp 3.5 ]

(* Drives one registry through the ops; returns false at the first
   selection that disagrees with the reference. *)
let run_against_reference ~kernel { rd; rcap; ops } =
  let capv = Vec.of_array rcap in
  let t = Bin_registry.create ~kernel ~capacity:capv () in
  let all = ref [] and live = ref [||] and next_id = ref 0 and next_item = ref 0 in
  let pick k = !live.(k mod Array.length !live) in
  let item size =
    incr next_item;
    Item.make ~id:!next_item ~arrival:0.0 ~departure:1.0 ~size:(Vec.of_array size)
  in
  let ok = ref true in
  List.iter
    (fun op ->
      if !ok then
        match op with
        | Add (mode, raw) ->
            let id = !next_id in
            incr next_id;
            let b = Bin.create ~id ~capacity:capv ~now:0.0 ~touch:id in
            let load = Array.init rd (fun j -> load_of_mode rcap.(j) mode.(j) raw.(j)) in
            if Array.exists (fun x -> x > 0) load then Bin.place b (item load) ~touch:id;
            Bin_registry.add t b;
            all := !all @ [ b ];
            live := Array.append !live [| b |]
        | Place (k, raw) when Array.length !live > 0 ->
            let b = pick k in
            let load = (b.Bin.load :> int array) in
            let size = Array.init rd (fun j -> raw.(j) mod (rcap.(j) - load.(j) + 1)) in
            if Array.exists (fun x -> x > 0) size then begin
              Bin.place b (item size) ~touch:!next_item;
              Bin_registry.refresh t b
            end
        | Remove k when Array.length !live > 0 -> (
            let b = pick k in
            match b.Bin.active_items with
            | r :: _ ->
                Bin.remove b r;
                Bin_registry.refresh t b
            | [] -> ())
        | Close k when Array.length !live > 0 ->
            let b = pick k in
            close b;
            Bin_registry.note_closed t b;
            live := Array.of_list (List.filter (fun x -> x != b) (Array.to_list !live))
        | Query (mode, raw) ->
            let size =
              Vec.of_array
                (Array.init rd (fun j -> ref_size_of_mode rcap.(j) mode.(j) raw.(j)))
            in
            List.iter
              (fun m ->
                List.iter
                  (fun largest ->
                    let got =
                      id_of
                        (if largest then Bin_registry.most_loaded_fitting t ~measure:m size
                         else Bin_registry.least_loaded_fitting t ~measure:m size)
                    in
                    if got <> reference_extremal !all size m ~largest then ok := false)
                  [ true; false ])
              ref_measures
        | Place _ | Remove _ | Close _ -> ())
    ops;
  (!ok && Bin_registry.count t = Array.length !live, Bin_registry.scan_stats t)

let prop_swar_matches_reference =
  QCheck2.Test.make
    ~name:"Best/Worst Fit match the bin-record reference under both kernels"
    ~count:60 ref_gen_swar (fun spec ->
      let ok_swar, stats_swar = run_against_reference ~kernel:`Auto spec in
      let ok_scalar, stats_scalar = run_against_reference ~kernel:`Scalar spec in
      ok_swar && ok_scalar && stats_swar = stats_scalar)

let prop_wide_scalar_matches_reference =
  QCheck2.Test.make
    ~name:"Best/Worst Fit match the bin-record reference above byte capacities"
    ~count:60 ref_gen_scalar (fun spec ->
      fst (run_against_reference ~kernel:`Auto spec))

let kernel_property_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_kernels_agree; prop_swar_matches_reference; prop_wide_scalar_matches_reference ]

let suites =
  [
    ("prelude.dynarray", dynarray_tests);
    ("core.bin_registry", registry_tests);
    ("core.fit_kernel", kernel_selection_tests);
    ("core.fit_kernel_props", kernel_property_tests);
  ]
