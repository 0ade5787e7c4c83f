(* Tests for the dependency-free observability library: histogram bucket
   boundaries (exact at powers of two), quantile monotonicity and clamping,
   merge associativity, the registry's render/parse round trip, the noop
   sink, and span ring buffering under a fake clock. *)

module H = Dvbp_obs.Histogram
module R = Dvbp_obs.Registry
module Prom = Dvbp_obs.Prom

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let observe_all h vs = List.iter (H.observe h) vs

let histogram_tests =
  [
    Alcotest.test_case "empty histogram snapshots to zeros, never NaN" `Quick (fun () ->
        let s = H.snapshot (H.create ()) in
        check_int "n" 0 s.H.n;
        check_float "total" 0.0 s.H.total;
        check_float "mean" 0.0 s.H.mean;
        check_float "p50" 0.0 s.H.p50;
        check_float "p99" 0.0 s.H.p99;
        check_float "max" 0.0 s.H.max_v;
        check_bool "no NaN anywhere" false
          (List.exists Float.is_nan [ s.H.total; s.H.mean; s.H.min_v; s.H.max_v; s.H.p50; s.H.p90; s.H.p99 ]));
    Alcotest.test_case "powers of two are bucket-exact at every quantile" `Quick
      (fun () ->
        (* covers negative exponents (sub-second latencies), 1.0, and large *)
        List.iter
          (fun k ->
            let x = Float.ldexp 1.0 k in
            let h = H.create () in
            for _ = 1 to 17 do H.observe h x done;
            List.iter
              (fun q ->
                Alcotest.(check (float 0.0))
                  (Printf.sprintf "2^%d at q=%g" k q)
                  x (H.quantile h q))
              [ 0.0; 0.01; 0.5; 0.9; 0.99; 1.0 ])
          [ -20; -10; -3; -1; 0; 1; 7; 20 ]);
    Alcotest.test_case "relative bucket error is within 1/8" `Quick (fun () ->
        let h = H.create () in
        (* single value: every quantile clamps to [min,max] = the value *)
        H.observe h 3.7e-4;
        check_float "single value exact via clamping" 3.7e-4 (H.quantile h 0.5);
        (* two distinct values: the p50 bucket lower bound is within 12.5%
           below the smaller value *)
        let h2 = H.create () in
        H.observe h2 10.0;
        H.observe h2 1000.0;
        let p50 = H.quantile h2 0.5 in
        check_bool "p50 lower-bounds the rank-1 value within an eighth" true
          (p50 <= 10.0 && p50 >= 10.0 *. 0.875));
    Alcotest.test_case "zero, negative and NaN land in the zero bucket" `Quick
      (fun () ->
        let h = H.create () in
        observe_all h [ 0.0; -5.0; Float.nan ];
        check_int "all counted" 3 (H.count h);
        check_int "zero bucket holds them" 3 (H.bucket_counts h).(0);
        check_float "p50 of nonpositives is 0" 0.0 (H.quantile h 0.5);
        (* min saw the raw -5 (NaN excluded) *)
        check_float "min" (-5.0) (H.min_value h));
    Alcotest.test_case "count/sum/min/max are exact" `Quick (fun () ->
        let h = H.create () in
        observe_all h [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ];
        check_int "count" 8 (H.count h);
        check_float "sum" 31.0 (H.sum h);
        check_float "min" 1.0 (H.min_value h);
        check_float "max" 9.0 (H.max_value h);
        check_float "mean" (31.0 /. 8.0) (H.snapshot h).H.mean);
    Alcotest.test_case "quantiles clamp to the observed range" `Quick (fun () ->
        let h = H.create () in
        observe_all h [ 5.0; 5.5; 5.9 ];
        List.iter
          (fun q ->
            let x = H.quantile h q in
            check_bool (Printf.sprintf "q=%g in range" q) true (x >= 5.0 && x <= 5.9))
          [ 0.0; 0.25; 0.5; 0.75; 0.99; 1.0 ]);
    Alcotest.test_case "merge equals feeding one histogram" `Quick (fun () ->
        let a = H.create () and b = H.create () and all = H.create () in
        let xs = [ 0.001; 0.5; 2.0; 2.0; 64.0 ] and ys = [ 0.25; 3.0; 1e6 ] in
        observe_all a xs;
        observe_all b ys;
        observe_all all (xs @ ys);
        let m = H.merge a b in
        check_int "count" (H.count all) (H.count m);
        check_float "sum" (H.sum all) (H.sum m);
        check_float "min" (H.min_value all) (H.min_value m);
        check_float "max" (H.max_value all) (H.max_value m);
        check_bool "buckets" true (H.bucket_counts all = H.bucket_counts m))
  ]

(* qcheck generators: positive latency-like floats, plus integer-valued
   floats for the associativity law (float addition over ints is exact, so
   sums compare with =) *)
let pos_float_gen =
  QCheck2.Gen.(
    let* mag = -30 -- 25 in
    let* m = float_range 1.0 2.0 in
    return (Float.ldexp m mag))

let obs_list_gen = QCheck2.Gen.(list_size (0 -- 40) pos_float_gen)
let int_obs_list_gen = QCheck2.Gen.(list_size (0 -- 30) (map float_of_int (0 -- 1_000_000)))

let of_list vs =
  let h = H.create () in
  observe_all h vs;
  h

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"quantile is monotone in q" ~count:300 obs_list_gen
        (fun vs ->
          let h = of_list vs in
          let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
          let xs = List.map (H.quantile h) qs in
          let rec mono = function
            | a :: (b :: _ as rest) -> a <= b && mono rest
            | _ -> true
          in
          mono xs);
      QCheck2.Test.make ~name:"merge is associative and commutative" ~count:200
        QCheck2.Gen.(triple int_obs_list_gen int_obs_list_gen int_obs_list_gen)
        (fun (xs, ys, zs) ->
          let a = of_list xs and b = of_list ys and c = of_list zs in
          let l = H.merge (H.merge a b) c and r = H.merge a (H.merge b c) in
          let com = H.merge b a and com' = H.merge a b in
          H.snapshot l = H.snapshot r
          && H.bucket_counts l = H.bucket_counts r
          && H.snapshot com = H.snapshot com'
          && H.bucket_counts com = H.bucket_counts com');
      QCheck2.Test.make ~name:"merge with empty is identity" ~count:200 obs_list_gen
        (fun vs ->
          let h = of_list vs in
          let m = H.merge h (H.create ()) in
          H.snapshot m = H.snapshot h && H.bucket_counts m = H.bucket_counts h);
      QCheck2.Test.make ~name:"quantile(1) is the exact max, quantile(0) the min"
        ~count:300 obs_list_gen (fun vs ->
          let h = of_list vs in
          match vs with
          | [] -> H.quantile h 1.0 = 0.0 && H.quantile h 0.0 = 0.0
          | _ ->
              H.quantile h 1.0 = List.fold_left Float.max neg_infinity vs
              && H.quantile h 0.0 = List.fold_left Float.min infinity vs);
    ]

let find_exn rows ?labels name =
  match Prom.find rows ?labels name with
  | Some r -> r
  | None -> Alcotest.failf "metric %s not found" name

let registry_tests =
  [
    Alcotest.test_case "render/parse round trip with labels" `Quick (fun () ->
        let r = R.create () in
        let c = R.Counter.make r "test_requests_total" ~help:"requests" in
        R.Counter.add c 41;
        R.Counter.incr c;
        let g = R.Gauge.make r "test_temp" ~labels:[ ("room", "a b") ] in
        R.Gauge.set g 1.5;
        R.Counter.pull r "test_pulled_total" (fun () -> 7);
        let h = R.Histo.make r "test_lat_seconds" ~labels:[ ("kind", "x") ] in
        R.Histo.observe h 2.0;
        R.Histo.observe h 2.0;
        let text = R.render r in
        let rows = Result.get_ok (Prom.parse text) in
        check_float "counter" 42.0 (find_exn rows "test_requests_total").Prom.value;
        check_float "gauge label" 1.5
          (find_exn rows ~labels:[ ("room", "a b") ] "test_temp").Prom.value;
        check_float "pull counter" 7.0 (find_exn rows "test_pulled_total").Prom.value;
        check_float "summary count" 2.0
          (find_exn rows ~labels:[ ("kind", "x") ] "test_lat_seconds_count").Prom.value;
        check_float "summary sum" 4.0
          (find_exn rows ~labels:[ ("kind", "x") ] "test_lat_seconds_sum").Prom.value;
        check_float "p50 exact at a power of two" 2.0
          (find_exn rows ~labels:[ ("kind", "x"); ("quantile", "0.5") ] "test_lat_seconds")
            .Prom.value);
    Alcotest.test_case "duplicate and invalid registrations are refused" `Quick
      (fun () ->
        let r = R.create () in
        let _ = R.Counter.make r "dup_total" in
        check_bool "duplicate raises" true
          (match R.Counter.make r "dup_total" with
          | _ -> false
          | exception Invalid_argument _ -> true);
        check_bool "same name, different labels is fine" true
          (match R.Counter.make r "dup_total" ~labels:[ ("k", "v") ] with
          | _ -> true
          | exception Invalid_argument _ -> false);
        check_bool "bad name raises" true
          (match R.Counter.make r "9bad" with
          | _ -> false
          | exception Invalid_argument _ -> true));
    Alcotest.test_case "50k label sets register in linear time, in render order" `Quick
      (fun () ->
        (* one labelled series per tenant: the duplicate check must not scan
           the registry, or tenant k's first event costs O(k) *)
        let n = 50_000 in
        let r = R.create () in
        R.Counter.pull r "first_total" ~help:"before" (fun () -> 1);
        let t0 = Sys.time () in
        for i = 0 to n - 1 do
          R.Counter.pull r "tenant_events_total" ~help:"per tenant"
            ~labels:[ ("tenant", string_of_int i) ]
            (fun () -> i)
        done;
        let secs = Sys.time () -. t0 in
        R.Gauge.pull r "last_gauge" (fun () -> 2.0);
        (* linear: tens of ms here; a scan per registration takes seconds *)
        check_bool (Printf.sprintf "%d registrations in %.3f s CPU" n secs) true (secs < 1.0);
        check_bool "a duplicate still raises" true
          (match R.Counter.pull r "tenant_events_total" ~labels:[ ("tenant", "777") ] (fun () -> 0) with
          | () -> false
          | exception Invalid_argument _ -> true);
        let text = R.render r in
        let rows = Result.get_ok (Prom.parse text) in
        check_int "every series rendered once" (n + 2) (List.length rows);
        let expected =
          ("first_total", "")
          :: List.init n (fun i -> ("tenant_events_total", string_of_int i))
          @ [ ("last_gauge", "") ]
        in
        check_bool "rows come out in registration order" true
          (List.for_all2
             (fun (row : Prom.row) (name, tenant) ->
               row.Prom.name = name
               && Option.value (List.assoc_opt "tenant" row.Prom.labels) ~default:"" = tenant)
             rows expected);
        let count_sub sub =
          let k = String.length sub in
          let c = ref 0 in
          for i = 0 to String.length text - k do
            if String.sub text i k = sub then incr c
          done;
          !c
        in
        check_int "one HELP line for the labelled family" 1
          (count_sub "# HELP tenant_events_total "));
    Alcotest.test_case "noop registry records and renders nothing" `Quick (fun () ->
        let r = R.noop () in
        check_bool "is_noop" true (R.is_noop r);
        let c = R.Counter.make r "ignored_total" in
        R.Counter.incr c;
        check_int "instrument still usable" 1 (R.Counter.value c);
        let start = R.Span.enter r "s" in
        R.Span.exit r "s" start;
        check_bool "no spans" true (R.Span.recent r = []);
        Alcotest.(check string) "empty render" "" (R.render ~spans:true r);
        check_float "clock never consulted" 0.0 (R.now r));
    Alcotest.test_case "span ring keeps the most recent spans, fake clock" `Quick
      (fun () ->
        let time = ref 0.0 in
        let r = R.create ~clock:(fun () -> !time) () in
        for i = 1 to R.Span.capacity + 5 do
          time := float_of_int i;
          let t0 = R.Span.enter r (Printf.sprintf "op%d" i) in
          time := !time +. 0.25;
          R.Span.exit r (Printf.sprintf "op%d" i) t0
        done;
        let spans = R.Span.recent r in
        check_int "ring capacity" R.Span.capacity (List.length spans);
        let first = List.hd spans and last = List.nth spans (List.length spans - 1) in
        Alcotest.(check string) "oldest surviving" "op6" first.R.Span.sp_name;
        Alcotest.(check string) "newest" (Printf.sprintf "op%d" (R.Span.capacity + 5))
          last.R.Span.sp_name;
        check_float "duration from the fake clock" 0.25 last.R.Span.sp_dur;
        (* spans render as comments and parse back *)
        let text = R.render ~spans:true r in
        let parsed = Prom.parse_spans text in
        check_int "parsed spans" R.Span.capacity (List.length parsed);
        check_bool "sample parse unaffected by span comments" true
          (Result.is_ok (Prom.parse text)));
    Alcotest.test_case "parse rejects malformed lines" `Quick (fun () ->
        check_bool "garbage" true (Result.is_error (Prom.parse "!!!\n"));
        check_bool "missing value" true (Result.is_error (Prom.parse "name_only\n"));
        check_bool "unterminated labels" true
          (Result.is_error (Prom.parse "m{k=\"v\" 1\n"));
        check_bool "non-numeric value" true (Result.is_error (Prom.parse "m wat\n")));
  ]

let suites =
  [
    ("obs / histogram", histogram_tests);
    ("obs / histogram laws", qcheck_tests);
    ("obs / registry", registry_tests);
  ]
