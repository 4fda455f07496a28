(* Simulation engine: processes, stimuli, wired sensors, couplings. *)

open Pte_hybrid

let listener_automaton =
  Automaton.make ~name:"listener" ~vars:[ "x" ]
    ~locations:[ Location.make "Idle"; Location.make "Active" ]
    ~edges:
      [
        Edge.make ~label:(Label.Recv "go") ~src:"Idle" ~dst:"Active" ();
        Edge.make ~label:(Label.Recv "stop") ~src:"Active" ~dst:"Idle" ();
      ]
    ~initial_location:"Idle" ()

let mk_engine ?(automata = [ listener_automaton ]) () =
  Pte_sim.Engine.create ~seed:7 (System.make ~name:"t" automata)

let test_run_advances_time () =
  let engine = mk_engine () in
  Pte_sim.Engine.run engine ~until:2.5;
  Alcotest.(check bool) "time ~2.5" true
    (Float.abs (Pte_sim.Engine.time engine -. 2.5) < 0.01)

let test_process_period () =
  let engine = mk_engine () in
  let fired = ref 0 in
  Pte_sim.Engine.add_process engine ~period:0.5 ~name:"probe"
    (fun _ ~time:_ -> incr fired);
  Pte_sim.Engine.run engine ~until:2.0;
  (* fires at 0.0, 0.5, 1.0, 1.5, 2.0 *)
  Alcotest.(check bool) "about 5 firings" true (!fired >= 4 && !fired <= 6)

let test_inject () =
  let engine = mk_engine () in
  Pte_sim.Engine.inject engine ~receiver:"listener" ~root:"go";
  Alcotest.(check string) "moved" "Active"
    (Pte_sim.Engine.location_of engine "listener")

let test_one_shot () =
  let engine = mk_engine () in
  Pte_sim.Scenario.one_shot engine ~at:1.0 ~automaton:"listener" ~armed_in:"Idle"
    ~root:"go";
  Pte_sim.Engine.run engine ~until:0.9;
  Alcotest.(check string) "not yet" "Idle"
    (Pte_sim.Engine.location_of engine "listener");
  Pte_sim.Engine.run engine ~until:1.2;
  Alcotest.(check string) "fired once" "Active"
    (Pte_sim.Engine.location_of engine "listener")

let test_exponential_stimulus_rearms () =
  (* with a tiny mean the stimulus keeps firing each time the automaton
     returns to the armed location *)
  let engine = mk_engine () in
  Pte_sim.Scenario.exponential_stimulus engine ~mean:0.05 ~automaton:"listener"
    ~armed_in:"Idle" ~root:"go" ();
  Pte_sim.Scenario.exponential_stimulus engine ~mean:0.05 ~automaton:"listener"
    ~armed_in:"Active" ~root:"stop" ();
  Pte_sim.Engine.run engine ~until:10.0;
  let flips =
    Pte_sim.Metrics.entries (Pte_sim.Engine.trace engine) ~automaton:"listener"
      ~location:"Active"
  in
  Alcotest.(check bool) "many cycles" true (flips > 10)

let test_stimulus_only_in_armed_location () =
  let engine = mk_engine () in
  (* armed in Active, but the automaton stays Idle: never fires *)
  Pte_sim.Scenario.exponential_stimulus engine ~mean:0.01 ~automaton:"listener"
    ~armed_in:"Active" ~root:"stop" ();
  Pte_sim.Engine.run engine ~until:2.0;
  Alcotest.(check string) "untouched" "Idle"
    (Pte_sim.Engine.location_of engine "listener")

let two_plants () =
  let plant name =
    Automaton.make ~name ~vars:[ "level"; "mirror" ]
      ~locations:
        [ Location.make ~flow:(Flow.Rates [ ("level", 1.0) ]) "Run" ]
      ~edges:[] ~initial_location:"Run" ()
  in
  (plant "source", plant "sink")

let test_wired_sensor () =
  let src, dst = two_plants () in
  let engine = mk_engine ~automata:[ src; dst ] () in
  Pte_sim.Scenario.wired_sensor engine ~period:0.25
    ~from:("source", "level") ~to_:("sink", "mirror") ();
  Pte_sim.Engine.run engine ~until:2.0;
  let copied = Pte_sim.Engine.value_of engine "sink" "mirror" in
  let actual = Pte_sim.Engine.value_of engine "source" "level" in
  Alcotest.(check bool)
    (Fmt.str "mirror %.3f tracks level %.3f" copied actual)
    true
    (Float.abs (copied -. actual) <= 0.3)

let test_wired_sensor_transform () =
  let src, dst = two_plants () in
  let engine = mk_engine ~automata:[ src; dst ] () in
  Pte_sim.Scenario.wired_sensor engine ~period:0.1 ~from:("source", "level")
    ~to_:("sink", "mirror")
    ~transform:(fun _rng v -> if v > 1.0 then 1.0 else 0.0)
    ();
  Pte_sim.Engine.run engine ~until:0.5;
  Alcotest.(check (float 0.0)) "below threshold" 0.0
    (Pte_sim.Engine.value_of engine "sink" "mirror");
  Pte_sim.Engine.run engine ~until:1.5;
  Alcotest.(check (float 0.0)) "above threshold" 1.0
    (Pte_sim.Engine.value_of engine "sink" "mirror")

let test_coupling_every_step () =
  let src, dst = two_plants () in
  let engine = mk_engine ~automata:[ src; dst ] () in
  Pte_sim.Scenario.coupling engine ~automaton:"sink" ~var:"mirror" (fun engine ->
      2.0 *. Pte_sim.Engine.value_of engine "source" "level");
  Pte_sim.Engine.run engine ~until:1.0;
  let mirror = Pte_sim.Engine.value_of engine "sink" "mirror" in
  Alcotest.(check bool) "doubled" true (Float.abs (mirror -. 2.0) < 0.05)

let test_fork_rng_deterministic () =
  let e1 = mk_engine () and e2 = mk_engine () in
  let r1 = Pte_sim.Engine.fork_rng e1 and r2 = Pte_sim.Engine.fork_rng e2 in
  Alcotest.(check (float 0.0)) "same seed, same fork" (Pte_util.Rng.float r1)
    (Pte_util.Rng.float r2)

let test_metrics_series () =
  let src, _ = two_plants () in
  let config =
    { Executor.default_config with
      sample_vars = [ ("source", "level") ];
      sample_period = 0.5 }
  in
  let engine =
    Pte_sim.Engine.create ~config ~seed:1 (System.make ~name:"t" [ src ])
  in
  Pte_sim.Engine.run engine ~until:2.0;
  let series =
    Pte_sim.Metrics.series (Pte_sim.Engine.trace engine) ~automaton:"source"
      ~var:"level"
  in
  Alcotest.(check bool) "several samples" true (List.length series >= 4);
  List.iter
    (fun (t, v) ->
      if Float.abs (v -. t) > 0.02 then
        Alcotest.failf "sample (%g, %g) off the level=t line" t v)
    series

(* ---- registration errors: an unknown automaton or location, or an
        undeclared written variable, used to register silently and raise
        from inside a later step ---- *)

let expect_registration_error what fragments register =
  let src, dst = two_plants () in
  let engine = mk_engine ~automata:[ listener_automaton; src; dst ] () in
  match register engine with
  | () -> Alcotest.failf "%s: expected Invalid_argument at registration" what
  | exception Invalid_argument msg ->
      List.iter
        (fun fragment ->
          let n = String.length fragment and l = String.length msg in
          let rec at i =
            i + n <= l && (String.sub msg i n = fragment || at (i + 1))
          in
          if not (at 0) then
            Alcotest.failf "%s: %S does not name %S" what msg fragment)
        fragments

let test_stimulus_rejects_unknown () =
  expect_registration_error "automaton" [ "ghost" ] (fun engine ->
      Pte_sim.Scenario.exponential_stimulus engine ~mean:1.0 ~automaton:"ghost"
        ~armed_in:"Idle" ~root:"go" ());
  expect_registration_error "location" [ "listener"; "Nowhere" ] (fun engine ->
      Pte_sim.Scenario.exponential_stimulus engine ~mean:1.0
        ~automaton:"listener" ~armed_in:"Nowhere" ~root:"go" ())

let test_one_shot_rejects_unknown () =
  expect_registration_error "automaton" [ "ghost" ] (fun engine ->
      Pte_sim.Scenario.one_shot engine ~at:1.0 ~automaton:"ghost"
        ~armed_in:"Idle" ~root:"go");
  expect_registration_error "location" [ "listener"; "Nowhere" ] (fun engine ->
      Pte_sim.Scenario.one_shot engine ~at:1.0 ~automaton:"listener"
        ~armed_in:"Nowhere" ~root:"go")

let test_sensor_rejects_unknown () =
  let sensor ~from ~to_ engine =
    Pte_sim.Scenario.wired_sensor engine ~period:0.1 ~from ~to_ ()
  in
  expect_registration_error "source automaton" [ "ghost" ]
    (sensor ~from:("ghost", "level") ~to_:("sink", "mirror"));
  expect_registration_error "target automaton" [ "ghost" ]
    (sensor ~from:("source", "level") ~to_:("ghost", "mirror"));
  expect_registration_error "written variable" [ "sink"; "nothing" ]
    (sensor ~from:("source", "level") ~to_:("sink", "nothing"));
  (* a read variable keeps the read-as-0 convention *)
  let src, dst = two_plants () in
  let engine = mk_engine ~automata:[ src; dst ] () in
  Pte_sim.Engine.set_value engine "sink" "mirror" 5.0;
  sensor ~from:("source", "nothing") ~to_:("sink", "mirror") engine;
  Pte_sim.Engine.run engine ~until:0.2;
  Alcotest.(check (float 0.0)) "undeclared source reads 0" 0.0
    (Pte_sim.Engine.value_of engine "sink" "mirror")

let test_coupling_rejects_unknown () =
  expect_registration_error "automaton" [ "ghost" ] (fun engine ->
      Pte_sim.Scenario.coupling engine ~automaton:"ghost" ~var:"mirror"
        (fun _ -> 1.0));
  expect_registration_error "written variable" [ "sink"; "nothing" ]
    (fun engine ->
      Pte_sim.Scenario.coupling engine ~automaton:"sink" ~var:"nothing"
        (fun _ -> 1.0))

let test_coupling_same_value_is_free () =
  (* rewriting the value a frozen slot holds is a no-op write: it
     neither replays nor wakes the automaton *)
  let src, dst = two_plants () in
  let engine = mk_engine ~automata:[ src; dst ] () in
  Pte_sim.Scenario.coupling engine ~automaton:"sink" ~var:"mirror" (fun _ -> 0.0);
  Pte_sim.Engine.run engine ~until:1.0;
  let stats = Executor.stats (Pte_sim.Engine.executor engine) in
  Alcotest.(check int) "every write skipped" (stats.Executor.steps + 1)
    stats.Executor.writes_skipped;
  Alcotest.(check int) "two first bodies, then asleep" 2
    stats.Executor.step_bodies

let suite =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "run advances time" `Quick test_run_advances_time;
        Alcotest.test_case "process period" `Quick test_process_period;
        Alcotest.test_case "inject" `Quick test_inject;
        Alcotest.test_case "one-shot stimulus" `Quick test_one_shot;
        Alcotest.test_case "exponential stimulus re-arms" `Quick
          test_exponential_stimulus_rearms;
        Alcotest.test_case "stimulus gated by location" `Quick
          test_stimulus_only_in_armed_location;
        Alcotest.test_case "wired sensor" `Quick test_wired_sensor;
        Alcotest.test_case "sensor transform" `Quick test_wired_sensor_transform;
        Alcotest.test_case "per-step coupling" `Quick test_coupling_every_step;
        Alcotest.test_case "fork rng deterministic" `Quick
          test_fork_rng_deterministic;
        Alcotest.test_case "sample series" `Quick test_metrics_series;
        Alcotest.test_case "stimulus rejects unknown names" `Quick
          test_stimulus_rejects_unknown;
        Alcotest.test_case "one-shot rejects unknown names" `Quick
          test_one_shot_rejects_unknown;
        Alcotest.test_case "sensor rejects unknown names" `Quick
          test_sensor_rejects_unknown;
        Alcotest.test_case "coupling rejects unknown names" `Quick
          test_coupling_rejects_unknown;
        Alcotest.test_case "coupling rewriting its value is free" `Quick
          test_coupling_same_value_is_free;
      ] );
  ]
