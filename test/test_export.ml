(* Trace export: JSONL and sampled CSV. *)

open Pte_hybrid

let sample_trace =
  [
    { Trace.time = 0.0;
      event = Trace.Enter_location { automaton = "a"; location = "L\"1\"" } };
    { Trace.time = 0.5;
      event = Trace.Sample { automaton = "a"; var = "x"; value = 1.5 } };
    { Trace.time = 0.5;
      event = Trace.Sample { automaton = "b"; var = "y"; value = -2.0 } };
    { Trace.time = 1.0;
      event =
        Trace.Transition
          { automaton = "a"; src = "L1"; dst = "L2";
            label = Some (Label.Send "evt"); forced = false } };
    { Trace.time = 1.2;
      event = Trace.Message_lost { receiver = "b"; root = "evt" } };
    { Trace.time = 1.5;
      event = Trace.Sample { automaton = "a"; var = "x"; value = 2.5 } };
    { Trace.time = 2.0; event = Trace.Note "end of scenario" };
  ]

let lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.length l > 0)

let test_jsonl_shape () =
  let out = Pte_sim.Export.to_jsonl sample_trace in
  let ls = lines out in
  Alcotest.(check int) "one line per entry" (List.length sample_trace)
    (List.length ls);
  List.iter
    (fun l ->
      Alcotest.(check bool) "looks like json object" true
        (l.[0] = '{' && l.[String.length l - 1] = '}');
      Alcotest.(check bool) "has time field" true
        (String.length l > 8 && String.sub l 0 8 = "{\"time\":"))
    ls

let test_jsonl_escaping () =
  let out = Pte_sim.Export.to_jsonl sample_trace in
  (* the quoted location L"1" must be escaped *)
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped quotes" true (contains {|L\"1\"|} out);
  Alcotest.(check bool) "no raw inner quotes" false (contains {|"L"1""|} out);
  (* control characters: the short escapes, \u00XX for the rest *)
  let note =
    Pte_sim.Export.to_jsonl
      [ { Trace.time = 0.0; event = Trace.Note "a\rb\nc\001" } ]
  in
  Alcotest.(check bool) "carriage return" true
    (contains {|a\rb\nc\u0001|} note)

let test_csv_shape () =
  let out = Pte_sim.Export.samples_to_csv sample_trace in
  match lines out with
  | header :: rows ->
      Alcotest.(check string) "header" "time,a.x,b.y" header;
      Alcotest.(check int) "two sample instants" 2 (List.length rows);
      (* simultaneous samples share a row *)
      Alcotest.(check string) "merged row" "0.500000,1.5,-2" (List.nth rows 0);
      Alcotest.(check string) "partial row" "1.500000,2.5," (List.nth rows 1)
  | [] -> Alcotest.fail "empty csv"

let test_roundtrip_from_engine () =
  let a =
    Automaton.make ~name:"plant" ~vars:[ "level" ]
      ~locations:[ Location.make ~flow:(Flow.Rates [ ("level", 2.0) ]) "Run" ]
      ~edges:[] ~initial_location:"Run" ()
  in
  let config =
    { Executor.default_config with
      sample_vars = [ ("plant", "level") ];
      sample_period = 0.25 }
  in
  let engine =
    Pte_sim.Engine.create ~config ~seed:1 (System.make ~name:"t" [ a ])
  in
  Pte_sim.Engine.run engine ~until:1.0;
  let csv = Pte_sim.Export.samples_to_csv (Pte_sim.Engine.trace engine) in
  Alcotest.(check bool) "several rows" true (List.length (lines csv) >= 4);
  let jsonl = Pte_sim.Export.to_jsonl (Pte_sim.Engine.trace engine) in
  Alcotest.(check bool) "jsonl non-empty" true (String.length jsonl > 100)

let suite =
  [
    ( "sim.export",
      [
        Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
        Alcotest.test_case "jsonl escaping" `Quick test_jsonl_escaping;
        Alcotest.test_case "csv shape" `Quick test_csv_shape;
        Alcotest.test_case "engine roundtrip" `Quick test_roundtrip_from_engine;
      ] );
  ]
