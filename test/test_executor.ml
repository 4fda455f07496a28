(* Executor semantics: continuous evolution, forced (invariant-boundary)
   transitions, eager urgency, event transport, time-block and zeno
   detection. The ventilator of Fig. 2 doubles as the acceptance test for
   boundary handling. *)

open Pte_hybrid

let system_of automata = System.make ~name:"test" automata

let test_ventilator_period () =
  (* Fig. 2: 0.3 m of travel at 0.1 m/s = 3 s per stroke *)
  let vent = Pte_tracheotomy.Ventilator.stand_alone in
  let exec = Executor.create (system_of [ vent ]) in
  Executor.run exec ~until:12.5;
  let transitions =
    Trace.transitions_of (Executor.trace exec) ~automaton:"vent-standalone"
  in
  (* H starts at 0 in PumpOut: immediate flip, then flips every 3 s:
     ~0, 3, 6, 9, 12 -> 5 transitions by t=12.5 *)
  Alcotest.(check int) "stroke count" 5 (List.length transitions);
  List.iteri
    (fun i (time, _, _, _) ->
      let expected = 3.0 *. Float.of_int i in
      if Float.abs (time -. expected) > 0.01 then
        Alcotest.failf "stroke %d at %.4f, expected %.1f" i time expected)
    transitions

let test_ventilator_height_bounds () =
  let vent = Pte_tracheotomy.Ventilator.stand_alone in
  let exec = Executor.create (system_of [ vent ]) in
  for _ = 1 to 8000 do
    Executor.step exec;
    let h = Executor.value_of exec "vent-standalone" "Hvent" in
    if h < -1e-6 || h > 0.3 +. 1e-6 then
      Alcotest.failf "height out of bounds: %g at t=%g" h (Executor.time exec)
  done

let test_eager_fires_at_guard () =
  let a =
    Automaton.make ~name:"timer" ~vars:[ "c" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "c" ]) "Wait";
          Location.make ~flow:(Flow.clocks [ "c" ]) "Done" ]
      ~edges:
        [ Edge.make ~guard:[ Guard.atom "c" Guard.Ge 2.0 ]
            ~reset:(Reset.set "c" 0.0) ~src:"Wait" ~dst:"Done" () ]
      ~initial_location:"Wait" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.run exec ~until:1.9;
  Alcotest.(check string) "still waiting" "Wait" (Executor.location_of exec "timer");
  Executor.run exec ~until:2.1;
  Alcotest.(check string) "fired" "Done" (Executor.location_of exec "timer")

let test_instant_chain () =
  (* zero-dwell dispatch locations collapse within one instant *)
  let a =
    Automaton.make ~name:"chain" ~vars:[]
      ~locations:[ Location.make "A"; Location.make "B"; Location.make "C" ]
      ~edges:
        [ Edge.make ~src:"A" ~dst:"B" (); Edge.make ~src:"B" ~dst:"C" () ]
      ~initial_location:"A" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.step exec;
  Alcotest.(check string) "chained to C" "C" (Executor.location_of exec "chain")

let test_time_block_detected () =
  (* invariant hits its boundary with no enabled egress *)
  let a =
    Automaton.make ~name:"stuck" ~vars:[ "c" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "c" ])
            ~invariant:[ Guard.atom "c" Guard.Le 1.0 ] "Trap" ]
      ~edges:[] ~initial_location:"Trap" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  match Executor.run exec ~until:2.0 with
  | () -> Alcotest.fail "expected Time_block"
  | exception Executor.Time_block { automaton = "stuck"; _ } -> ()

let test_zeno_detected () =
  let a =
    Automaton.make ~name:"zeno" ~vars:[]
      ~locations:[ Location.make "A"; Location.make "B" ]
      ~edges:[ Edge.make ~src:"A" ~dst:"B" (); Edge.make ~src:"B" ~dst:"A" () ]
      ~initial_location:"A" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  match Executor.step exec with
  | () -> Alcotest.fail "expected Zeno"
  | exception Executor.Zeno _ -> ()

let talker_listener () =
  let talker =
    Automaton.make ~name:"talker" ~vars:[ "c" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "c" ]) "Idle";
          Location.make ~flow:(Flow.clocks [ "c" ]) "Sent" ]
      ~edges:
        [ Edge.make ~guard:[ Guard.atom "c" Guard.Ge 1.0 ]
            ~label:(Label.Send "go") ~src:"Idle" ~dst:"Sent" () ]
      ~initial_location:"Idle" ()
  in
  let listener =
    Automaton.make ~name:"listener" ~vars:[]
      ~locations:[ Location.make "Waiting"; Location.make "Got"; Location.make "Deaf" ]
      ~edges:
        [ Edge.make ~label:(Label.Recv_lossy "go") ~src:"Waiting" ~dst:"Got" () ]
      ~initial_location:"Waiting" ()
  in
  (talker, listener)

let test_event_delivery () =
  let talker, listener = talker_listener () in
  let exec = Executor.create (system_of [ talker; listener ]) in
  Executor.run exec ~until:1.5;
  Alcotest.(check string) "delivered" "Got" (Executor.location_of exec "listener")

let test_event_loss_via_router () =
  let talker, listener = talker_listener () in
  let exec = Executor.create (system_of [ talker; listener ]) in
  Executor.set_router exec (fun ~time:_ ~sender:_ ~root:_ ~receiver:_ ->
      Executor.Lose);
  Executor.run exec ~until:1.5;
  Alcotest.(check string) "lost" "Waiting" (Executor.location_of exec "listener");
  let lost =
    Trace.count (Executor.trace exec) (fun e ->
        match e.Trace.event with Trace.Message_lost _ -> true | _ -> false)
  in
  Alcotest.(check int) "loss recorded" 1 lost

let test_event_delayed_delivery () =
  let talker, listener = talker_listener () in
  let exec = Executor.create (system_of [ talker; listener ]) in
  Executor.set_router exec (fun ~time:_ ~sender:_ ~root:_ ~receiver:_ ->
      Executor.Deliver 0.5);
  Executor.run exec ~until:1.3;
  Alcotest.(check string) "in flight" "Waiting" (Executor.location_of exec "listener");
  Executor.run exec ~until:1.6;
  Alcotest.(check string) "arrived" "Got" (Executor.location_of exec "listener")

let test_event_ignored_when_not_listening () =
  let talker, listener = talker_listener () in
  (* move the listener into a location with no matching receive edge *)
  let listener = { listener with Automaton.initial_location = "Deaf" } in
  let exec = Executor.create (system_of [ talker; listener ]) in
  Executor.run exec ~until:1.5;
  Alcotest.(check string) "ignored" "Deaf" (Executor.location_of exec "listener");
  let ignored =
    Trace.count (Executor.trace exec) (fun e ->
        match e.Trace.event with
        | Trace.Message_delivered { consumed = false; _ } -> true
        | _ -> false)
  in
  Alcotest.(check int) "drop recorded" 1 ignored

let test_inject_stimulus () =
  let _, listener = talker_listener () in
  let exec = Executor.create (system_of [ listener ]) in
  let consumed = Executor.inject exec ~receiver:"listener" ~root:"go" in
  Alcotest.(check bool) "consumed" true consumed;
  Alcotest.(check string) "moved" "Got" (Executor.location_of exec "listener")

let test_dwell_time_and_set_value () =
  let a =
    Automaton.make ~name:"plain" ~vars:[ "x" ]
      ~locations:[ Location.make "L" ]
      ~edges:[] ~initial_location:"L" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.run exec ~until:0.5;
  Alcotest.(check bool) "dwell ~0.5" true
    (Float.abs (Executor.dwell_time exec "plain" -. 0.5) < 1e-6);
  Executor.set_value exec "plain" "x" 42.0;
  Alcotest.(check (float 0.0)) "set_value" 42.0
    (Executor.value_of exec "plain" "x")

let expect_invalid_arg what fragments f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" what
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

let test_set_value_undeclared () =
  (* the flat valuation has no slot for an undeclared variable: writing
     one is an error naming both, reading one is 0 *)
  let a =
    Automaton.make ~name:"plain" ~vars:[ "x" ]
      ~locations:[ Location.make "L" ]
      ~edges:[] ~initial_location:"L" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  expect_invalid_arg "set_value" [ "plain"; "ghost" ] (fun () ->
      Executor.set_value exec "plain" "ghost" 1.0);
  Alcotest.(check (float 0.0)) "undeclared reads 0" 0.0
    (Executor.value_of exec "plain" "ghost")

let test_ode_undeclared_derivative () =
  (* the field declares what it drives, so validation names the
     undeclared variable before the first step *)
  let a =
    Automaton.make ~name:"leaky" ~vars:[ "x" ]
      ~locations:
        [ Location.make
            ~flow:
              (Flow.Ode
                 { reads = [];
                   writes = [ "x"; "ghost" ];
                   f = (fun _t _x dx -> dx.(0) <- 1.0; dx.(1) <- 1.0) })
            "Run" ]
      ~edges:[] ~initial_location:"Run" ()
  in
  expect_invalid_arg "ODE derivative" [ "leaky"; "ghost" ] (fun () ->
      ignore (Executor.create (system_of [ a ])))

let test_reset_is_simultaneous () =
  (* a := b; b := a swaps: every right-hand side reads the
     pre-transition valuation *)
  let a =
    Automaton.make ~name:"swap" ~vars:[ "a"; "b" ]
      ~locations:[ Location.make "L"; Location.make "M" ]
      ~edges:
        [ Edge.make ~reset:[ ("a", Reset.Copy "b"); ("b", Reset.Copy "a") ]
            ~src:"L" ~dst:"M" () ]
      ~initial_location:"L"
      ~initial_values:[ ("a", 1.0); ("b", 2.0) ]
      ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.step exec;
  Alcotest.(check string) "fired" "M" (Executor.location_of exec "swap");
  Alcotest.(check (float 0.0)) "a := b" 2.0 (Executor.value_of exec "swap" "a");
  Alcotest.(check (float 0.0)) "b := a" 1.0 (Executor.value_of exec "swap" "b")

let test_forced_transition_flag () =
  (* a Delayed edge never fires on its own; only the invariant boundary
     forces it, and the executor must flag that *)
  let a =
    Automaton.make ~name:"delayed" ~vars:[ "c" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "c" ])
            ~invariant:[ Guard.atom "c" Guard.Le 1.0 ] "Hold";
          Location.make ~flow:(Flow.clocks [ "c" ]) "Out" ]
      ~edges:
        [ Edge.make ~urgency:Edge.Delayed
            ~guard:[ Guard.atom "c" Guard.Ge 0.5 ] ~src:"Hold" ~dst:"Out" () ]
      ~initial_location:"Hold" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.run exec ~until:2.0;
  Alcotest.(check string) "left at boundary" "Out" (Executor.location_of exec "delayed");
  let forced_at =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.Trace.event with
        | Trace.Transition { forced = true; _ } -> Some e.Trace.time
        | _ -> None)
      (Executor.trace exec)
  in
  match forced_at with
  | [ t ] -> Alcotest.(check bool) "at c=1" true (Float.abs (t -. 1.0) < 0.01)
  | _ -> Alcotest.failf "expected exactly one forced transition"

let test_ode_integration_accuracy () =
  (* exponential decay x' = -x from 1: after 2 s, x = e^-2; Euler at 1 ms
     should land within 0.2% *)
  let a =
    Automaton.make ~name:"decay" ~vars:[ "x" ]
      ~locations:
        [ Location.make
            ~flow:
              (Flow.Ode
                 { reads = [ "x" ]; writes = [ "x" ];
                   f = (fun _t x dx -> dx.(0) <- -.x.(0)) })
            "Run" ]
      ~edges:[] ~initial_location:"Run" ~initial_values:[ ("x", 1.0) ] ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.run exec ~until:2.0;
  let x = Executor.value_of exec "decay" "x" in
  let exact = exp (-2.0) in
  if Float.abs (x -. exact) /. exact > 2e-3 then
    Alcotest.failf "Euler drift: %.6f vs %.6f" x exact

(* ---- revocable scheduling: the primitive behind the event-driven
        ARQ transport ---- *)

let idle_system () =
  let a =
    Automaton.make ~name:"idle" ~vars:[]
      ~locations:[ Location.make "A" ]
      ~edges:[] ~initial_location:"A" ()
  in
  system_of [ a ]

let test_schedule_and_cancel () =
  let exec = Executor.create (idle_system ()) in
  let fired = ref [] in
  let note name (_ : Executor.t) = fired := name :: !fired in
  let _t1 = Executor.schedule exec ~at:0.5 (note "first") in
  let t2 = Executor.schedule exec ~at:0.7 (note "second") in
  let _t3 = Executor.schedule exec ~at:0.9 (note "third") in
  Executor.cancel exec t2;
  Executor.run exec ~until:1.0;
  Alcotest.(check (list string)) "cancelled timer skipped, order kept"
    [ "first"; "third" ] (List.rev !fired);
  (* cancelling an already-fired or already-cancelled token is a no-op *)
  Executor.cancel exec t2;
  (* a timer scheduled in the past fires at the current instant *)
  let _t4 = Executor.schedule exec ~at:0.0 (note "late") in
  Executor.step exec;
  Alcotest.(check (list string)) "past-due timer fires now"
    [ "first"; "third"; "late" ]
    (List.rev !fired)

let test_timer_chain_reschedules () =
  (* a callback arming its own successor is exactly the retransmission
     pattern; each link of the chain must fire on the same timeline *)
  let exec = Executor.create (idle_system ()) in
  let fired_at = ref [] in
  let rec again exec0 =
    fired_at := Executor.time exec0 :: !fired_at;
    if List.length !fired_at < 3 then
      ignore (Executor.schedule exec0 ~at:(Executor.time exec0 +. 0.25) again)
  in
  ignore (Executor.schedule exec ~at:0.25 again);
  Executor.run exec ~until:1.0;
  Alcotest.(check int) "chained three times" 3 (List.length !fired_at);
  List.iteri
    (fun i t ->
      let expected = 0.25 *. Float.of_int (i + 1) in
      if Float.abs (t -. expected) > 0.01 then
        Alcotest.failf "link %d fired at %.4f, expected %.2f" i t expected)
    (List.rev !fired_at)

let test_timer_delivers_now () =
  (* a timer callback can hand an event to an automaton at its instant —
     the delivery half of a Deferred routing decision *)
  let _, listener = talker_listener () in
  let exec = Executor.create (system_of [ listener ]) in
  ignore
    (Executor.schedule exec ~at:0.4 (fun exec0 ->
         ignore (Executor.deliver_now exec0 ~receiver:"listener" ~root:"go")));
  Executor.run exec ~until:0.3;
  Alcotest.(check string) "not yet" "Waiting"
    (Executor.location_of exec "listener");
  Executor.run exec ~until:0.5;
  Alcotest.(check string) "timer delivered" "Got"
    (Executor.location_of exec "listener")

let test_schedule_rejects_non_finite () =
  (* regression: a NaN/infinite due time would sit at the head of the
     timeline and never fire (Float.max nan now is nan), silently
     wedging its exchange — reject it at the API edge like set_rate *)
  let exec = Executor.create (idle_system ()) in
  List.iter
    (fun at ->
      match Executor.schedule exec ~at (fun _ -> ()) with
      | _ -> Alcotest.failf "schedule accepted due time %g" at
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_zeno_blames_timer_owner () =
  (* a timer callback that re-arms itself at the same instant is a Zeno
     chain; the diagnostic must name the automaton the timer was armed
     for, not the anonymous "<timer>" *)
  let exec = Executor.create (idle_system ()) in
  let rec storm exec0 =
    ignore
      (Executor.schedule exec0 ~owner:"culprit" ~at:(Executor.time exec0)
         storm)
  in
  ignore (Executor.schedule exec ~owner:"culprit" ~at:0.1 storm);
  match Executor.run exec ~until:1.0 with
  | () -> Alcotest.fail "expected Zeno"
  | exception Executor.Zeno { automaton; _ } ->
      Alcotest.(check string) "blames the owner" "culprit" automaton

let test_sampler_catches_up () =
  (* with dt > sample_period the old one-period bump fell permanently
     behind [now], so every later step emitted a stale sample burst;
     the sampler must instead record once per due step and jump its
     next deadline past [now] *)
  let a =
    Automaton.make ~name:"clk" ~vars:[ "c" ]
      ~locations:[ Location.make ~flow:(Flow.clocks [ "c" ]) "L" ]
      ~edges:[] ~initial_location:"L" ()
  in
  let config =
    { Executor.default_config with
      dt = 0.3;
      sample_period = 0.1;
      sample_vars = [ ("clk", "c") ];
    }
  in
  let exec = Executor.create ~config (system_of [ a ]) in
  Executor.run exec ~until:1.5;
  let samples =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.Trace.event with
        | Trace.Sample { value; _ } -> Some (e.Trace.time, value)
        | _ -> None)
      (Executor.trace exec)
  in
  Alcotest.(check int) "one sample per step, no stale burst" 5
    (List.length samples);
  List.iteri
    (fun i (time, value) ->
      let expected = 0.3 *. Float.of_int (i + 1) in
      if Float.abs (time -. expected) > 1e-9 then
        Alcotest.failf "sample %d at t=%g, expected %g" i time expected;
      if Float.abs (value -. expected) > 1e-9 then
        Alcotest.failf "sample %d read %g, expected %g" i value expected)
    samples

(* The trace of a busy N = 3 pattern run as the sorted-list, full-scan
   engine recorded it (the engine the heap timeline replaced): one line
   per entry, the time printed exactly ([%h]) then the rendered event. *)
let legacy_fixture = "fixtures/legacy-busy-n3.trace"

(* Check [trace] against a recorded fixture entry by entry, naming the
   first difference; returns the fixture's lines. Times and sampled
   values are rendered exactly ([%h]). *)
let replay_fixture fixture trace =
  let actual =
    List.map
      (fun (e : Trace.entry) ->
        match e.Trace.event with
        | Trace.Sample { automaton; var; value } ->
            Fmt.str "%h %s.%s = %h" e.Trace.time automaton var value
        | event -> Fmt.str "%h %a" e.Trace.time Trace.pp_event event)
      trace
  in
  let expected =
    In_channel.with_open_text fixture In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun line -> line <> "")
  in
  let rec walk i = function
    | [], [] -> ()
    | e :: es, a :: as_ ->
        if not (String.equal e a) then
          Alcotest.failf "entry %d differs:@ expected %S@ got      %S" i e a;
        walk (i + 1) (es, as_)
    | e :: _, [] -> Alcotest.failf "entry %d missing: expected %S" i e
    | [], a :: _ -> Alcotest.failf "entry %d extra: got %S" i a
  in
  walk 0 (expected, actual);
  expected

let show_stats (s : Executor.stats) =
  [ s.steps; s.step_bodies; s.catchup_steps; s.ode_steps; s.writes_skipped;
    s.tombstones_skipped; s.queue_high_water ]

let test_heap_legacy_traces_identical () =
  (* the heap timeline plus activity-set stabilization must replay the
     legacy engine's trace entry for entry *)
  let system, _ = Pte_core.Scale.system ~n:3 () in
  let exec = Executor.create system in
  let init = Pte_core.Scale.initializer_name in
  let request = Pte_core.Events.stim_request ~initializer_:init in
  let cancel = Pte_core.Events.stim_cancel ~initializer_:init in
  List.iter
    (fun (at, root) ->
      ignore
        (Executor.schedule exec ~at (fun exec0 ->
             ignore (Executor.deliver_now exec0 ~receiver:init ~root))))
    [ (0.5, request); (9.0, cancel); (12.0, request); (40.0, cancel) ];
  Executor.run exec ~until:60.0;
  let expected = replay_fixture legacy_fixture (Executor.trace exec) in
  Alcotest.(check int) "fixture length" 122 (List.length expected);
  (* steps, bodies, catch-up, ODE steps, skipped writes, tombstones,
     queue high water *)
  Alcotest.(check (list int)) "work counters" [ 60001; 43; 175965; 0; 0; 0; 4 ]
    (show_stats (Executor.stats exec))

(* Five automata whose clocks run untouched for long stretches, driven
   from timers through every external read and write of the executor:
   - [down] counts down from a nonzero start (rate -1, later 1.25 after
     [set_rate]); its [c > 0] invariant is bisected after 124k steps,
     and an eager [c < 10 /\ k >= 1] edge (Lt, and a rate-0 atom) moves
     it to [Low] on later rounds;
   - [up] climbs from 0.25 to an eager [x > 120] edge (119,750 steps of
     dwell) that sends [ping], then leaves [Busy] when its [x < 126]
     invariant is bisected;
   - [data]'s eager edges read a rate-0 [flag] through Eq atoms, flipped
     by [set_value] while its clock [t] runs, and a [t > 200] Gt atom;
   - [listener] takes [ping] only once its clock passed 50;
   - [sleeper] has no invariant and no eager edge; it gets [set_rate],
     [halt], [value_of] reads and [restart].
   Samples of every clock each 25 s. *)
let sleep_edge_cases () =
  let open Guard in
  let reload = [ ("c", Reset.Set_const 37.5); ("k", Reset.Add_const 1.0) ] in
  let countdown = Flow.Rates [ ("c", -1.0) ] in
  let down =
    Automaton.make ~name:"down" ~vars:[ "c"; "k" ]
      ~locations:
        [ Location.make ~flow:countdown ~invariant:[ "c" >. 0.0 ] "Count";
          Location.make ~flow:countdown ~invariant:[ "c" >. 0.0 ] "Low" ]
      ~edges:
        [ Edge.make ~guard:[ "c" <. 10.0; "k" >=. 1.0 ] ~src:"Count" ~dst:"Low" ();
          Edge.make ~urgency:Edge.Delayed ~reset:reload ~src:"Count" ~dst:"Count" ();
          Edge.make ~urgency:Edge.Delayed ~reset:reload ~src:"Low" ~dst:"Count" () ]
      ~initial_location:"Count" ~initial_values:[ ("c", 150.0) ] ()
  in
  let up =
    Automaton.make ~name:"up" ~vars:[ "x" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "x" ]) "Idle";
          Location.make ~flow:(Flow.clocks [ "x" ]) ~invariant:[ "x" <. 126.0 ] "Busy" ]
      ~edges:
        [ Edge.make ~guard:[ "x" >. 120.0 ] ~label:(Label.Send "ping") ~src:"Idle"
            ~dst:"Busy" ();
          Edge.make ~urgency:Edge.Delayed ~reset:(Reset.set "x" 0.5) ~src:"Busy"
            ~dst:"Idle" () ]
      ~initial_location:"Idle" ~initial_values:[ ("x", 0.25) ] ()
  in
  let data =
    Automaton.make ~name:"data" ~vars:[ "flag"; "t" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "t" ]) "Off";
          Location.make ~flow:(Flow.clocks [ "t" ]) "On" ]
      ~edges:
        [ Edge.make ~guard:[ "flag" =. 1.0 ] ~src:"Off" ~dst:"On" ();
          Edge.make ~guard:[ "flag" =. 0.0; "t" >. 200.0 ] ~src:"On" ~dst:"Off" () ]
      ~initial_location:"Off" ()
  in
  let listener =
    Automaton.make ~name:"listener" ~vars:[ "y" ]
      ~locations:[ Location.make ~flow:(Flow.clocks [ "y" ]) "Rx" ]
      ~edges:
        [ Edge.make ~guard:[ "y" >. 50.0 ] ~reset:(Reset.set "y" 0.0)
            ~label:(Label.Recv "ping") ~src:"Rx" ~dst:"Rx" () ]
      ~initial_location:"Rx" ()
  in
  let sleeper =
    Automaton.make ~name:"sleeper" ~vars:[ "z" ]
      ~locations:[ Location.make ~flow:(Flow.Rates [ ("z", 2.0) ]) "Drift" ]
      ~edges:[] ~initial_location:"Drift" ~initial_values:[ ("z", 3.0) ] ()
  in
  let config =
    { Executor.default_config with
      sample_period = 25.0;
      sample_vars =
        [ ("sleeper", "z"); ("down", "c"); ("up", "x"); ("data", "t");
          ("listener", "y") ] }
  in
  let exec =
    Executor.create ~config (system_of [ down; up; data; listener; sleeper ])
  in
  let read name var ex =
    Executor.note ex
      (Printf.sprintf "%s.%s %h" name var (Executor.value_of ex name var))
  in
  List.iter
    (fun (at, f) -> ignore (Executor.schedule exec ~at f))
    [ (20.0, fun ex -> Executor.set_rate ex "down" 1.25);
      (30.0, fun ex -> Executor.set_rate ex "sleeper" 0.5);
      (50.0, read "down" "c");
      (60.0, fun ex -> Executor.set_value ex "data" "flag" 1.0);
      (70.0, read "up" "x");
      (80.0, fun ex -> Executor.halt ex "sleeper");
      (90.0, fun ex -> Executor.set_value ex "data" "flag" 0.0);
      (95.0, read "sleeper" "z");
      (100.0, fun ex -> Executor.restart ex "sleeper");
      (170.0, read "sleeper" "z");
      (230.0, read "listener" "y") ];
  Executor.run exec ~until:300.0;
  Executor.trace exec

let sleep_fixture = "fixtures/sleep-edge-cases.trace"

(* ---- config validation: each bad value used to hang [run], return a
        NaN clock or raise a misleading Zeno ---- *)

let clock_system () =
  system_of
    [ Automaton.make ~name:"clk" ~vars:[ "c" ]
        ~locations:[ Location.make ~flow:(Flow.clocks [ "c" ]) "L" ]
        ~edges:[] ~initial_location:"L" () ]

let expect_bad_config field configs =
  List.iter
    (fun config ->
      expect_invalid_arg field [ field ] (fun () ->
          ignore (Executor.create ~config (clock_system ()))))
    configs

let test_config_rejects_bad_dt () =
  expect_bad_config "config.dt"
    (List.map
       (fun dt -> { Executor.default_config with dt })
       [ 0.0; -1e-3; nan; infinity ])

let test_config_rejects_bad_sample_period () =
  let sampling sample_period =
    { Executor.default_config with
      sample_period; sample_vars = [ ("clk", "c") ] }
  in
  expect_bad_config "config.sample_period"
    (List.map sampling [ 0.0; -1.0; nan; infinity ]);
  (* without sample_vars the period is never read *)
  ignore
    (Executor.create
       ~config:{ Executor.default_config with sample_period = 0.0 }
       (clock_system ()))

let test_config_rejects_bad_max_chain () =
  expect_bad_config "config.max_chain"
    (List.map
       (fun max_chain -> { Executor.default_config with max_chain })
       [ 0; -5 ])

let test_reads_during_the_step_loop () =
  (* a router runs inside the step loop, here from [mid]'s forced
     transition: it must see [lo], which the loop has passed, with the
     current step taken and [hi] without it, as when every automaton
     stepped every step; its write to [lo] puts [lo]'s invariant
     boundary 5 steps ahead, which [lo] must not sleep through *)
  let clock name =
    Automaton.make ~name ~vars:[ "c" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "c" ])
            ~invariant:[ Guard.atom "c" Guard.Le 200.0 ] "L";
          Location.make "M" ]
      ~edges:
        [ Edge.make ~label:(Label.Recv "go") ~src:"L" ~dst:"L" ();
          Edge.make ~urgency:Edge.Delayed ~src:"L" ~dst:"M" () ]
      ~initial_location:"L" ()
  in
  let mid =
    Automaton.make ~name:"mid" ~vars:[ "x" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "x" ])
            ~invariant:[ Guard.atom "x" Guard.Le 0.5 ] "L" ]
      ~edges:
        [ Edge.make ~urgency:Edge.Delayed ~reset:(Reset.set "x" 0.0)
            ~label:(Label.Send "go") ~src:"L" ~dst:"L" () ]
      ~initial_location:"L" ()
  in
  let exec = Executor.create (system_of [ clock "lo"; mid; clock "hi" ]) in
  let seen = ref [] in
  Executor.set_router exec (fun ~time:_ ~sender:_ ~root:_ ~receiver ->
      seen :=
        ( receiver,
          (Executor.stats exec).steps,
          Executor.value_of exec receiver "c" )
        :: !seen;
      if receiver = "lo" then Executor.set_value exec "lo" "c" 199.995;
      Executor.Lose);
  Executor.run exec ~until:0.6;
  (match Trace.transitions_of (Executor.trace exec) ~automaton:"lo" with
  | [ (time, "L", "M", _) ] ->
      if Float.abs (time -. 0.505) > 1.5e-3 then
        Alcotest.failf "lo left L at %g, expected 0.505" time
  | _ -> Alcotest.fail "expected lo to be forced out of L once");
  let replay n =
    let c = ref 0.0 in
    for _ = 1 to n do c := !c +. (1.0 *. 1e-3) done;
    !c
  in
  match List.rev !seen with
  | [ ("lo", s, lo); ("hi", s', hi) ] ->
      Alcotest.(check int) "one step" s s';
      Alcotest.(check (float 0.0)) "lo has taken the step" (replay (s + 1)) lo;
      Alcotest.(check (float 0.0)) "hi has not" (replay s) hi
  | _ -> Alcotest.failf "expected one routed send to lo and hi"

let test_slot_listed_twice () =
  (* [x' = 1, x' = 1] adds twice per step: the boundary of [x <= 1] is
     reached at 0.5 s, whatever the wake prediction makes of the flow *)
  let a =
    Automaton.make ~name:"twice" ~vars:[ "x" ]
      ~locations:
        [ Location.make ~flow:(Flow.Rates [ ("x", 1.0); ("x", 1.0) ])
            ~invariant:[ Guard.atom "x" Guard.Le 1.0 ] "Up";
          Location.make "Done" ]
      ~edges:[ Edge.make ~urgency:Edge.Delayed ~src:"Up" ~dst:"Done" () ]
      ~initial_location:"Up" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.run exec ~until:2.0;
  match Trace.transitions_of (Executor.trace exec) ~automaton:"twice" with
  | [ (time, "Up", "Done", _) ] ->
      if Float.abs (time -. 0.5) > 1e-3 then
        Alcotest.failf "forced at %g, expected 0.5" time
  | _ -> Alcotest.fail "expected one forced transition"

let test_idle_automata_sleep () =
  (* an automaton with no invariant and no eager edge runs its step body
     once, then sleeps; a read replays the skipped additions exactly *)
  let exec = Executor.create (clock_system ()) in
  for _ = 1 to 1000 do Executor.step exec done;
  let s = Executor.stats exec in
  Alcotest.(check (list int)) "steps, bodies, catch-up before the read"
    [ 1000; 1; 0 ] [ s.steps; s.step_bodies; s.catchup_steps ];
  let c = ref 0.0 in
  for _ = 1 to 1000 do c := !c +. (1.0 *. 1e-3) done;
  Alcotest.(check (float 0.0)) "replayed value" !c
    (Executor.value_of exec "clk" "c");
  Alcotest.(check int) "catch-up after the read" 999
    (Executor.stats exec).catchup_steps

let test_sleep_edge_cases_replay () =
  let expected = replay_fixture sleep_fixture (sleep_edge_cases ()) in
  Alcotest.(check int) "fixture length" 122 (List.length expected)

(* Four automata around a sleeping ODE, recorded by the always-step
   engine (every ODE location stepping every dt) at dt = 10 ms:
   - [tank] fills under a field that reads [time], until its [h <= 4]
     invariant is bisected and forces it to [Drain] (sending [full]);
     [Drain]'s eager [h < 1] edge sends [refill] — both locations wake
     every step;
   - [body] is an ODE with no invariant and no eager edge, so it sleeps:
     [Live]'s field reads [time], a frozen [v] and drives [s] and a clock
     [k]; it swaps to [Rest] on [full] and back on [refill]. It is read by
     timers at irregular instants ([value_of]), by a process every
     0.73 s, and sampled every 0.377 s; it gets [set_rate], [halt],
     [restart]; [v] is rewritten every step by a coupling (mostly the
     value it holds) and once with [-0.0], [k] is rewritten with its own
     value and with [-0.0] over the [0.0] of a restart;
   - [clk] is a constant-rate sleeper whose moving [z] is rewritten with
     its own value, and later set back to a value read 0.15 s earlier
     (the value its unsynced slot still holds); its frozen [f] gets
     [0.0] over [0.0], then [-0.0] over [0.0], then its own value;
   - [mixed] sleeps in a constant-rate location and enters a sleeping
     ODE (reading [time]) on [full], so its replayed step times start
     from that entry. *)
let ode_replay () =
  let open Guard in
  let ode reads writes f = Flow.Ode { reads; writes; f } in
  let tank =
    Automaton.make ~name:"tank" ~vars:[ "h"; "c" ]
      ~locations:
        [ Location.make ~invariant:[ "h" <=. 4.0 ]
            ~flow:
              (ode [ "h" ] [ "h"; "c" ] (fun time x dx ->
                   dx.(0) <- 0.5 +. (0.02 *. time) -. (0.1 *. x.(0));
                   dx.(1) <- 1.0))
            "Fill";
          Location.make
            ~flow:(ode [ "h" ] [ "h" ] (fun _ x dx -> dx.(0) <- -0.3 *. x.(0)))
            "Drain" ]
      ~edges:
        [ Edge.make ~urgency:Edge.Delayed ~guard:[ "h" >=. 3.0 ]
            ~reset:(Reset.set "c" 0.0) ~label:(Label.Send "full") ~src:"Fill"
            ~dst:"Drain" ();
          Edge.make ~guard:[ "h" <. 1.0 ] ~label:(Label.Send "refill")
            ~src:"Drain" ~dst:"Fill" () ]
      ~initial_location:"Fill" ~initial_values:[ ("h", 0.5) ] ()
  in
  let body =
    Automaton.make ~name:"body" ~vars:[ "s"; "v"; "k" ]
      ~locations:
        [ Location.make
            ~flow:
              (ode [ "s"; "v" ] [ "s"; "k" ] (fun time x dx ->
                   let s = x.(0) in
                   dx.(0) <-
                     (if x.(1) >= 0.5 then 0.25 *. (98.0 -. s) else -0.16)
                     +. (1e-4 *. time);
                   dx.(1) <- 1.0))
            "Live";
          Location.make
            ~flow:
              (ode [ "s" ] [ "k"; "s" ] (fun _ x dx ->
                   dx.(0) <- 1.0;
                   dx.(1) <- -0.05 *. (x.(0) -. 90.0)))
            "Rest" ]
      ~edges:
        [ Edge.make ~label:(Label.Recv "full") ~reset:(Reset.set "k" 0.0)
            ~src:"Live" ~dst:"Rest" ();
          Edge.make ~label:(Label.Recv "refill") ~src:"Rest" ~dst:"Live" () ]
      ~initial_location:"Live" ~initial_values:[ ("s", 97.0); ("v", 1.0) ] ()
  in
  let clk =
    Automaton.make ~name:"clk" ~vars:[ "z"; "f" ]
      ~locations:[ Location.make ~flow:(Flow.Rates [ ("z", 2.0) ]) "Run" ]
      ~edges:[] ~initial_location:"Run" ()
  in
  let mixed =
    Automaton.make ~name:"mixed" ~vars:[ "y"; "w" ]
      ~locations:
        [ Location.make ~flow:(Flow.Rates [ ("w", 1.0) ]) "Wait";
          Location.make
            ~flow:
              (ode [ "y" ] [ "y"; "w" ] (fun time x dx ->
                   dx.(0) <- (0.01 *. time) -. (0.2 *. x.(0));
                   dx.(1) <- 0.5))
            "Grow" ]
      ~edges:
        [ Edge.make ~label:(Label.Recv "full") ~src:"Wait" ~dst:"Grow" ();
          Edge.make ~label:(Label.Recv "refill") ~src:"Grow" ~dst:"Wait" () ]
      ~initial_location:"Wait" ()
  in
  let config =
    { Executor.default_config with
      dt = 0.01;
      sample_period = 0.377;
      sample_vars =
        [ ("body", "s"); ("body", "k"); ("body", "v"); ("tank", "h");
          ("clk", "z"); ("clk", "f"); ("mixed", "y"); ("mixed", "w") ] }
  in
  let module E = Pte_sim.Engine in
  let engine =
    E.create ~config ~seed:1 (system_of [ tank; body; clk; mixed ])
  in
  let exec = E.executor engine in
  E.add_process engine ~name:"vent" (fun e ~time:_ ->
      E.set_value e "body" "v" (if E.location_of e "tank" = "Fill" then 1.0 else 0.0));
  E.add_process engine ~period:0.73 ~name:"probe" (fun e ~time:_ ->
      E.note e (Printf.sprintf "probe body.s %h" (E.value_of e "body" "s")));
  let read name var ex =
    Executor.note ex
      (Printf.sprintf "%s.%s %h" name var (Executor.value_of ex name var))
  in
  let rewrite name var ex =
    Executor.set_value ex name var (Executor.value_of ex name var)
  in
  let saved = ref 0.0 in
  List.iter
    (fun (at, f) -> ignore (Executor.schedule exec ~at f))
    [ (5.123, read "body" "s");
      (7.0, fun ex -> Executor.set_rate ex "body" 0.8);
      (11.111, rewrite "body" "v");
      (12.345, rewrite "body" "k");
      (12.345, read "body" "k");
      (13.0, rewrite "clk" "z");
      (13.0, fun ex -> Executor.set_value ex "clk" "f" 0.0);
      (14.0, fun ex -> Executor.set_value ex "clk" "f" (-0.0));
      (15.5, fun ex -> Executor.halt ex "body");
      (17.25, read "body" "s");
      (19.0, fun ex -> Executor.restart ex "body");
      (19.0, fun ex -> Executor.set_value ex "body" "k" (-0.0));
      (19.0, read "body" "k");
      (21.003, fun ex -> Executor.set_value ex "body" "v" (-0.0));
      (23.0, fun ex -> Executor.set_rate ex "body" 1.0);
      (26.5, rewrite "clk" "f");
      (27.15, fun ex -> saved := Executor.value_of ex "clk" "z");
      (27.3, fun ex -> Executor.set_value ex "clk" "z" !saved);
      (29.9, read "tank" "h");
      (33.33, read "body" "s") ];
  E.run engine ~until:40.0;
  (E.trace engine, Executor.stats exec)

let ode_fixture = "fixtures/ode-replay.trace"

let test_ode_replay () =
  let trace, stats = ode_replay () in
  let expected = replay_fixture ode_fixture trace in
  Alcotest.(check int) "fixture length" 987 (List.length expected);
  (* [body] slept: its ODE ran as replays, not step bodies *)
  Alcotest.(check bool) "body slept" true
    (stats.Executor.step_bodies < 2 * stats.Executor.steps);
  Alcotest.(check bool) "no-op writes skipped" true
    (stats.Executor.writes_skipped > 3000)

(* The work counters are a function of the system, the config and the
   inputs: pinned on the legacy N = 3 run and on a 300-s Table-I trial
   (with lease, E(Toff) 18 s), where the patient's ODE sleeps between the
   oximeter's 1-s readings and the per-step lung coupling's unchanged
   writes are skipped. *)
let test_work_counters_pinned () =
  (* a revoked timer stays in the queue as a tombstone until it
     surfaces *)
  let exec = Executor.create (idle_system ()) in
  let revoked = Executor.schedule exec ~at:0.0105 ignore in
  ignore (Executor.schedule exec ~at:0.02 ignore);
  Executor.cancel exec revoked;
  Executor.run exec ~until:0.03;
  Alcotest.(check (list int)) "one tombstone"
    [ 30; 1; 0; 0; 0; 1; 2 ] (show_stats (Executor.stats exec));
  let config =
    { Pte_tracheotomy.Emulation.default with horizon = 300.0; seed = 2013 }
  in
  let built = Pte_tracheotomy.Emulation.build config in
  ignore (Pte_tracheotomy.Emulation.run built);
  Alcotest.(check (list int)) "300-s trial"
    [ 30001; 330; 109313; 30000; 30297; 0; 2 ]
    (show_stats (Executor.stats (Pte_sim.Engine.executor built.engine)))

(* ---- timeline oracle: random schedule / cancel traffic through the
        public API against a sorted-list model ---- *)

(* Entry [j] names the [j mod n]-th of the [n] entries issued so far; a
   negative [j], or [n = 0], names a token this executor never issued. *)
type op =
  | At of int  (* a timer [k] ticks out ([k < 0]: in the past) *)
  | Cancel_at of int * int  (* a timer [k] ticks out that cancels entry [j] *)
  | Cancel of int  (* cancel entry [j] now *)
  | Steps of int

let show_op = function
  | At k -> Printf.sprintf "At %d" k
  | Cancel_at (k, j) -> Printf.sprintf "Cancel_at (%d, %d)" k j
  | Cancel j -> Printf.sprintf "Cancel %d" j
  | Steps n -> Printf.sprintf "Steps %d" n

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> At k) (int_range (-2) 6));
        ( 1,
          map2 (fun k j -> Cancel_at (k, j)) (int_range 0 6) (int_range (-1) 40)
        );
        (2, map (fun j -> Cancel j) (int_range (-1) 40));
        (2, map (fun n -> Steps n) (int_range 1 5));
      ])

let tick = 0.002 (* two default steps: offsets collide, so due-ties abound *)

let fire_order ops =
  let exec = Executor.create (idle_system ()) in
  (* a token this executor never issued: the last of a longer run *)
  let foreign =
    let other = Executor.create (idle_system ()) in
    let last = ref None in
    for _ = 0 to List.length ops do
      last := Some (Executor.schedule other ~at:1.0 ignore)
    done;
    Option.get !last
  in
  let fired = ref [] and expected = ref [] in
  (* the model: live entries as (due, id), sorted by due then issue order,
     and the entry each cancelling timer revokes *)
  let pending = ref [] and revokes = Hashtbl.create 16 in
  let issued = ref [||] in
  let resolve j =
    let n = Array.length !issued in
    if j < 0 || n = 0 then (foreign, -1) else (!issued.(j mod n), j mod n)
  in
  let revoke id = pending := List.filter (fun (_, i) -> i <> id) !pending in
  let schedule k target =
    let id = Array.length !issued in
    let at = Executor.time exec +. (Float.of_int k *. tick) in
    let token =
      Executor.schedule exec ~at (fun ex ->
          fired := id :: !fired;
          Option.iter (fun (tok, _) -> Executor.cancel ex tok) target)
    in
    issued := Array.append !issued [| token |];
    Option.iter (fun (_, tid) -> Hashtbl.replace revokes id tid) target;
    let due = Float.max at (Executor.time exec) in
    let rec insert = function
      | ((d, _) as e) :: rest when d <= due -> e :: insert rest
      | later -> (due, id) :: later
    in
    pending := insert !pending
  in
  let rec model_fire upto =
    match !pending with
    | (due, id) :: rest when due <= upto ->
        pending := rest;
        expected := id :: !expected;
        Option.iter revoke (Hashtbl.find_opt revokes id);
        model_fire upto
    | _ -> ()
  in
  let step () =
    Executor.step exec;
    model_fire (Executor.time exec +. 1e-12)
  in
  List.iter
    (function
      | At k -> schedule k None
      | Cancel_at (k, j) -> schedule k (Some (resolve j))
      | Cancel j ->
          let token, id = resolve j in
          Executor.cancel exec token;
          revoke id
      | Steps n -> for _ = 1 to n do step () done)
    ops;
  (* drain: every due time lies within 6 ticks of the last schedule *)
  for _ = 1 to 7 * 2 do step () done;
  (List.rev !fired, List.rev !expected)

let prop_timeline_matches_sorted_list =
  QCheck.Test.make ~name:"timeline fires in sorted-list order" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_op ops))
        (* <= 60 timers: under the 64-firing Zeno budget per instant of
           a one-automaton system *)
        Gen.(list_size (int_range 0 60) gen_op))
    (fun ops ->
      let fired, expected = fire_order ops in
      if fired <> expected then
        QCheck.Test.fail_reportf "fired [%s], model [%s]"
          (String.concat "; " (List.map string_of_int fired))
          (String.concat "; " (List.map string_of_int expected));
      true)

let test_trace_sink_streams () =
  let seen = ref 0 in
  let vent = Pte_tracheotomy.Ventilator.stand_alone in
  let exec =
    Executor.create ~trace_sink:(fun _ -> incr seen) (system_of [ vent ])
  in
  Executor.run exec ~until:7.0;
  Alcotest.(check bool) "sink saw entries" true (!seen >= 3);
  Alcotest.(check int) "sink count = trace length" !seen
    (List.length (Executor.trace exec))

let suite =
  [
    ( "hybrid.executor",
      [
        Alcotest.test_case "ventilator 3s strokes (Fig 2)" `Quick
          test_ventilator_period;
        Alcotest.test_case "ventilator height bounded" `Quick
          test_ventilator_height_bounds;
        Alcotest.test_case "eager fires at guard" `Quick test_eager_fires_at_guard;
        Alcotest.test_case "instant chains" `Quick test_instant_chain;
        Alcotest.test_case "time-block detected" `Quick test_time_block_detected;
        Alcotest.test_case "zeno detected" `Quick test_zeno_detected;
        Alcotest.test_case "event delivery" `Quick test_event_delivery;
        Alcotest.test_case "event loss via router" `Quick test_event_loss_via_router;
        Alcotest.test_case "delayed delivery" `Quick test_event_delayed_delivery;
        Alcotest.test_case "ignored when not listening" `Quick
          test_event_ignored_when_not_listening;
        Alcotest.test_case "inject stimulus" `Quick test_inject_stimulus;
        Alcotest.test_case "dwell time / set_value" `Quick
          test_dwell_time_and_set_value;
        Alcotest.test_case "set_value on an undeclared variable" `Quick
          test_set_value_undeclared;
        Alcotest.test_case "ODE derivative of an undeclared variable" `Quick
          test_ode_undeclared_derivative;
        Alcotest.test_case "resets are simultaneous (swap)" `Quick
          test_reset_is_simultaneous;
        Alcotest.test_case "forced transitions flagged" `Quick
          test_forced_transition_flag;
        Alcotest.test_case "ODE integration accuracy" `Quick
          test_ode_integration_accuracy;
        Alcotest.test_case "schedule / cancel tokens" `Quick
          test_schedule_and_cancel;
        Alcotest.test_case "timer chain reschedules itself" `Quick
          test_timer_chain_reschedules;
        Alcotest.test_case "timer delivers at its instant" `Quick
          test_timer_delivers_now;
        Alcotest.test_case "schedule rejects non-finite due times" `Quick
          test_schedule_rejects_non_finite;
        Alcotest.test_case "zeno blames the timer owner" `Quick
          test_zeno_blames_timer_owner;
        Alcotest.test_case "sampler catches up when dt > period" `Quick
          test_sampler_catches_up;
        Alcotest.test_case "heap and legacy-list traces identical" `Quick
          test_heap_legacy_traces_identical;
        Alcotest.test_case "trace sink streams" `Quick test_trace_sink_streams;
        QCheck_alcotest.to_alcotest prop_timeline_matches_sorted_list;
        Alcotest.test_case "sleep edge cases replay their recorded trace"
          `Quick test_sleep_edge_cases_replay;
        Alcotest.test_case "create rejects a bad dt" `Quick
          test_config_rejects_bad_dt;
        Alcotest.test_case "create rejects a bad sample_period" `Quick
          test_config_rejects_bad_sample_period;
        Alcotest.test_case "create rejects max_chain < 1" `Quick
          test_config_rejects_bad_max_chain;
        Alcotest.test_case "idle automata sleep and catch up on read" `Quick
          test_idle_automata_sleep;
        Alcotest.test_case "reads during the step loop" `Quick
          test_reads_during_the_step_loop;
        Alcotest.test_case "a flow naming one slot twice" `Quick
          test_slot_listed_twice;
        Alcotest.test_case "sleeping ODE replays its recorded trace" `Quick
          test_ode_replay;
        Alcotest.test_case "work counters pinned" `Quick
          test_work_counters_pinned;
      ] );
  ]
