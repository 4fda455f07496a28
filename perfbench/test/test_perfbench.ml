(* Tests of the benchmark's own code: percentile and tail selection,
   self-time arithmetic, and the round trip of the results file and of
   BENCHMARK.json. *)

open Perfbench_core
module J = Pte_util.Json

let floats = Alcotest.float 1e-12

(* ------------------------------------------------------------------ *)
(* percentiles                                                        *)
(* ------------------------------------------------------------------ *)

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_rank () =
  Alcotest.(check int) "p90 of 100" 90 (Pct.rank ~n:100 90.0);
  Alcotest.(check int) "p50 of 10" 5 (Pct.rank ~n:10 50.0);
  Alcotest.(check int) "p99.9 of 10" 10 (Pct.rank ~n:10 99.9);
  Alcotest.(check int) "never below 1" 1 (Pct.rank ~n:3 1.0);
  Alcotest.check floats "percentile" 90.0 (Pct.percentile (samples 100) 90.0)

let test_median () =
  Alcotest.check floats "odd" 3.0 (Pct.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.check floats "even" 2.5 (Pct.median [| 4.0; 1.0; 3.0; 2.0 |])

let check_tail n ~q ~beyond =
  let t = Pct.tail (samples n) in
  Alcotest.check floats (Fmt.str "q for n=%d" n) q t.Pct.q;
  Alcotest.(check int) (Fmt.str "beyond for n=%d" n) beyond t.Pct.beyond;
  Alcotest.(check int) "n" n t.Pct.n;
  Alcotest.check floats "value is the nearest-rank sample"
    (float_of_int (n - beyond)) t.Pct.value

let test_tail_ladder () =
  check_tail 1000 ~q:99.0 ~beyond:10;
  check_tail 100 ~q:90.0 ~beyond:10;
  (* one sample short of p90: p90's rank is 90, leaving only 9 *)
  check_tail 99 ~q:75.0 ~beyond:24;
  check_tail 20 ~q:50.0 ~beyond:10;
  (* too few for any: the median, flagged by beyond < 10 *)
  check_tail 7 ~q:50.0 ~beyond:3

let test_tail_rule () =
  for n = 1 to 2500 do
    let t = Pct.tail (samples n) in
    if n >= 20 && t.Pct.beyond < 10 then Alcotest.failf "n=%d: only %d beyond" n t.Pct.beyond;
    List.iter
      (fun q ->
        if q > t.Pct.q && n - Pct.rank ~n q >= 10 then
          Alcotest.failf "n=%d: p%g also has 10 beyond but p%g was chosen" n q t.Pct.q)
      Pct.ladder
  done

let test_hist () =
  let rng = Random.State.make [| 7 |] in
  let xs = Array.init 5000 (fun _ -> 1 + Random.State.int rng 1_000_000) in
  let h = Pct.Hist.create () in
  Array.iter (Pct.Hist.add h) xs;
  Alcotest.(check int) "count" 5000 (Pct.Hist.count h);
  Alcotest.(check int) "sum" (Array.fold_left ( + ) 0 xs) (Pct.Hist.sum h);
  let exact = Array.map float_of_int xs in
  List.iter
    (fun q ->
      let e = Pct.percentile exact q and a = Pct.Hist.quantile h q in
      if Float.abs (a -. e) /. e > 0.025 then
        Alcotest.failf "p%g: histogram %g vs exact %g" q a e)
    [ 1.0; 50.0; 90.0; 99.0; 100.0 ];
  Alcotest.check floats "empty" 0.0 (Pct.Hist.quantile (Pct.Hist.create ()) 50.0)

(* ------------------------------------------------------------------ *)
(* spans and self time                                                *)
(* ------------------------------------------------------------------ *)

let test_recorder () =
  let clock = ref 0.0 in
  let tick d = clock := !clock +. d in
  let r = Span.create ~now:(fun () -> !clock) () in
  Span.with_span r "trial" (fun () ->
      tick 1.0;
      Span.with_span r "build" (fun () -> tick 2.0);
      Span.with_span r "run" (fun () ->
          tick 1.0;
          Span.with_span r "step" (fun () -> tick 2.5);
          tick 0.5);
      tick 0.5);
  (try Span.with_span r "monitor" (fun () -> tick 1.0; failwith "boom") with Failure _ -> ());
  let totals = Span.totals (Span.spans r) in
  let get name = List.find (fun (n, _, _) -> n = name) totals in
  let _, d, s = get "trial" in
  Alcotest.check floats "trial duration" 7.5 d;
  Alcotest.check floats "trial self: parent minus its direct children" 1.5 s;
  let _, d, s = get "run" in
  Alcotest.check floats "run duration" 4.0 d;
  Alcotest.check floats "run self: the grandchild is not subtracted twice" 1.5 s;
  let _, d, s = get "step" in
  Alcotest.check floats "leaf self = duration" d s;
  let _, d, _ = get "monitor" in
  Alcotest.check floats "a raising span is still closed" 1.0 d;
  Alcotest.(check (list string)) "start order" [ "trial"; "build"; "run"; "step"; "monitor" ]
    (List.map (fun (n, _, _) -> n) totals);
  Alcotest.check floats "self times sum to the outer durations" 8.5
    (List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 totals)

let test_nest () =
  (* outer [0, 10] with nested [2, 5] which itself nests [3, 4] *)
  let n = Span.Nest.create () in
  Span.Nest.enter n 0.0;
  Span.Nest.enter n 2.0;
  Span.Nest.enter n 3.0;
  let d, s = Span.Nest.leave n 4.0 in
  Alcotest.check floats "innermost duration" 1.0 d;
  Alcotest.check floats "innermost self" 1.0 s;
  let d, s = Span.Nest.leave n 5.0 in
  Alcotest.check floats "middle duration" 3.0 d;
  Alcotest.check floats "middle self" 2.0 s;
  let d, s = Span.Nest.leave n 10.0 in
  Alcotest.check floats "outer duration" 10.0 d;
  Alcotest.check floats "outer self" 7.0 s;
  Alcotest.(check int) "calls" 3 (Span.Nest.calls n);
  Alcotest.check floats "self times sum to the outer duration" 10.0 (Span.Nest.self n);
  Alcotest.check_raises "leave without enter"
    (Invalid_argument "Span.Nest.leave: no open call") (fun () -> ignore (Span.Nest.leave n 11.0))

(* ------------------------------------------------------------------ *)
(* results file and BENCHMARK.json                                    *)
(* ------------------------------------------------------------------ *)

let results =
  {
    Report.workload = "table1";
    seed = 42;
    seconds = 12;
    trace = false;
    correct = true;
    attempted = 68;
    failed = 0;
    metrics =
      [
        ("sim_s_per_wall_s", { Report.value = 10234.567891234567; unit_ = "s/s" });
        ("setup_s", { Report.value = 0.000387381; unit_ = "s" });
      ];
    checks = [ ("with-lease trials have no PTE failure", true) ];
    notes = [ ("trial_ms_tail", "p75 of n=68 (17 beyond)") ];
  }

let reparse j =
  match J.of_string (J.to_string j) with Ok j -> j | Error e -> Alcotest.fail e

let test_results_round_trip () =
  let traced = { results with Report.workload = "scale"; trace = true; seed = 7 } in
  match J.of_string (Report.file [ results; traced ]) with
  | Error e -> Alcotest.fail e
  | Ok (J.Arr [ a; b ]) -> (
      match (Report.of_json (reparse a), Report.of_json b) with
      | Ok a, Ok b ->
          Alcotest.(check bool) "identical after the round trip" true ([ a; b ] = [ results; traced ])
      | Error e, _ | _, Error e -> Alcotest.fail e)
  | Ok _ -> Alcotest.fail "expected an array of two runs"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_result_line () =
  match Report.line results with
  | J.Obj kvs ->
      Alcotest.(check (list string)) "exactly the result keys"
        [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kvs);
      let line = J.to_string (Report.line results) in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      Alcotest.(check bool) "every digit kept" true
        (contains line "10234.567891234567")
  | _ -> Alcotest.fail "not an object"

let read path = In_channel.with_open_text path In_channel.input_all

let parse file =
  match J.of_string (read file) with Ok j -> j | Error e -> Alcotest.failf "%s: %s" file e

let runs file =
  match parse file with
  | J.Arr runs ->
      List.map
        (fun j ->
          match Report.of_json j with
          | Ok r -> (j, r)
          | Error e -> Alcotest.failf "%s: %s" file e)
        runs
  | _ -> Alcotest.failf "%s: expected an array of results" file

let test_baseline_files () =
  List.iter
    (fun file ->
      List.iter
        (fun (j, r) ->
          Alcotest.(check bool) (file ^ " run is correct") true r.Report.correct;
          Alcotest.(check string) (file ^ " round trip") (J.to_string j)
            (J.to_string (Report.to_json r)))
        (runs file))
    [ "../baseline_e2e.json"; "../baseline_layers.json" ]

(* The metrics and workloads BENCHMARK.json registers are exactly the
   ones the benchmark prints, by name and unit, in the baseline runs. *)
let test_benchmark_json () =
  let spec = parse "../../BENCHMARK.json" in
  Alcotest.(check bool) "round trip" true (reparse spec = spec);
  let entries key fields =
    match J.member key spec with
    | Some (J.Arr xs) ->
        List.map
          (fun x ->
            List.map
              (fun f ->
                match Option.bind (J.member f x) J.to_str with
                | Some v -> v
                | None -> Alcotest.failf "%s: entry without %s" key f)
              fields)
          xs
    | _ -> Alcotest.failf "BENCHMARK.json: no %s array" key
  in
  let workloads = List.concat (entries "workloads" [ "name" ]) in
  let check file key =
    let registered = entries key [ "name"; "unit" ] in
    let rs = runs file in
    Alcotest.(check (list string)) (file ^ ": the registered workloads") workloads
      (List.map (fun (_, r) -> r.Report.workload) rs);
    List.iter
      (fun (_, r) ->
        Alcotest.(check (list (list string)))
          (Fmt.str "%s: %s prints the registered %s" file r.Report.workload key)
          registered
          (List.map (fun (k, v) -> [ k; v.Report.unit_ ]) r.Report.metrics))
      rs
  in
  check "../baseline_e2e.json" "end_to_end";
  check "../baseline_layers.json" "per_layer"

let () =
  Alcotest.run "perfbench"
    [
      ( "pct",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail ladder" `Quick test_tail_ladder;
          Alcotest.test_case "tail keeps 10 beyond" `Quick test_tail_rule;
          Alcotest.test_case "histogram quantiles" `Quick test_hist;
        ] );
      ( "span",
        [
          Alcotest.test_case "recorder self time" `Quick test_recorder;
          Alcotest.test_case "nested call self time" `Quick test_nest;
        ] );
      ( "report",
        [
          Alcotest.test_case "results round trip" `Quick test_results_round_trip;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "BENCHMARK.json matches the printed metrics" `Quick
            test_benchmark_json;
          Alcotest.test_case "baseline files" `Quick test_baseline_files;
        ] );
    ]
