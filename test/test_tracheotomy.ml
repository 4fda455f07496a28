(* Case-study components: ventilator elaboration, patient dynamics,
   oximeter threshold, surgeon timers, deterministic failure injection. *)

open Pte_hybrid

let params = Pte_core.Params.case_study

let test_ventilator_is_simple_child () =
  Alcotest.(check bool) "A'vent simple" true
    (Automaton.is_simple Pte_tracheotomy.Ventilator.stand_alone)

let test_participant_elaboration () =
  let vent = Pte_tracheotomy.Ventilator.participant params in
  Alcotest.(check string) "named from params" "ventilator" vent.Automaton.name;
  let names = Automaton.location_names vent in
  Alcotest.(check bool) "child present" true
    (List.mem "PumpOut" names && List.mem "PumpIn" names);
  Alcotest.(check bool) "Fall-Back replaced" false (List.mem "Fall-Back" names);
  Alcotest.(check string) "initial" "PumpOut" vent.Automaton.initial_location;
  match Automaton.validate vent with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid: %s" (String.concat "; " e)

let test_ventilating_predicate () =
  Alcotest.(check bool) "PumpOut" true
    (Pte_tracheotomy.Ventilator.is_ventilating "PumpOut");
  Alcotest.(check bool) "PumpIn" true
    (Pte_tracheotomy.Ventilator.is_ventilating "PumpIn");
  Alcotest.(check bool) "Risky Core" false
    (Pte_tracheotomy.Ventilator.is_ventilating "Risky Core")

let patient_engine () =
  let system =
    System.make ~name:"p"
      [ Pte_tracheotomy.Ventilator.participant params;
        Pte_tracheotomy.Patient.automaton ]
  in
  let engine = Pte_sim.Engine.create ~seed:5 system in
  Pte_tracheotomy.Patient.couple_to_ventilator engine ~ventilator:"ventilator";
  engine

let spo2 engine =
  Pte_sim.Engine.value_of engine Pte_tracheotomy.Patient.name
    Pte_tracheotomy.Patient.spo2_var

let test_patient_stable_when_ventilated () =
  let engine = patient_engine () in
  Pte_sim.Engine.run engine ~until:30.0;
  Alcotest.(check bool) "near healthy" true
    (Float.abs (spo2 engine -. Pte_tracheotomy.Patient.healthy_spo2) < 0.5)

let test_patient_desaturates_on_pause () =
  let engine = patient_engine () in
  (* lease the ventilator directly: inject its lease request stimulus *)
  Pte_sim.Engine.inject engine ~receiver:"ventilator"
    ~root:(Pte_core.Events.lease_req ~participant:"ventilator");
  Pte_sim.Engine.run engine ~until:35.0;
  let low = spo2 engine in
  Alcotest.(check bool)
    (Fmt.str "desaturated to %.1f" low)
    true
    (low < 94.0 && low > 85.0);
  (* after the lease expires (3 + 35 + 6 = 44 s) ventilation resumes and
     SpO2 recovers *)
  Pte_sim.Engine.run engine ~until:90.0;
  Alcotest.(check bool)
    (Fmt.str "recovered to %.1f" (spo2 engine))
    true
    (spo2 engine > 96.0)

let test_oximeter_threshold () =
  let engine = patient_engine () in
  (* add a supervisor-shaped automaton to receive the approval variable *)
  let _ = engine in
  let system =
    System.make ~name:"p"
      [ Pte_core.Pattern.supervisor params;
        Pte_tracheotomy.Ventilator.participant params;
        Pte_tracheotomy.Patient.automaton ]
  in
  let engine = Pte_sim.Engine.create ~seed:6 system in
  Pte_tracheotomy.Patient.couple_to_ventilator engine ~ventilator:"ventilator";
  Pte_tracheotomy.Oximeter.connect engine ~supervisor:"supervisor" ();
  Pte_sim.Engine.run engine ~until:5.0;
  Alcotest.(check (float 0.0)) "approval granted" 1.0
    (Pte_sim.Engine.value_of engine "supervisor" Pte_core.Pattern.approval_var);
  (* force desaturation by pausing the ventilator *)
  Pte_sim.Engine.inject engine ~receiver:"ventilator"
    ~root:(Pte_core.Events.lease_req ~participant:"ventilator");
  Pte_sim.Engine.run engine ~until:48.0;
  Alcotest.(check (float 0.0)) "approval withdrawn" 0.0
    (Pte_sim.Engine.value_of engine "supervisor" Pte_core.Pattern.approval_var)

let test_emulation_builds_and_runs () =
  let config =
    { Pte_tracheotomy.Emulation.default with horizon = 60.0; seed = 11 }
  in
  let built = Pte_tracheotomy.Emulation.build config in
  let trace = Pte_tracheotomy.Emulation.run built in
  Alcotest.(check bool) "trace non-empty" true (List.length trace > 10);
  Alcotest.(check bool) "time advanced" true
    (Pte_sim.Engine.time built.Pte_tracheotomy.Emulation.engine >= 60.0)

let test_short_trial_with_lease_safe () =
  let r =
    Pte_tracheotomy.Trial.run
      { Pte_tracheotomy.Emulation.default with horizon = 240.0; seed = 3 }
  in
  Alcotest.(check int)
    (Fmt.str "violations: %a" Fmt.(list ~sep:comma Pte_core.Monitor.pp_violation)
       r.Pte_tracheotomy.Trial.violations)
    0 r.Pte_tracheotomy.Trial.failures;
  Alcotest.(check bool) "pause bounded by theorem" true
    (r.Pte_tracheotomy.Trial.longest_pause
    <= Pte_core.Params.risky_dwell_bound params +. 0.5)

let test_perfect_channel_both_modes_safe () =
  (* without loss, even the no-lease system behaves in this workload *)
  List.iter
    (fun lease ->
      let r =
        Pte_tracheotomy.Trial.run
          {
            Pte_tracheotomy.Emulation.default with
            horizon = 240.0;
            seed = 4;
            lease;
            loss = Pte_net.Loss.Perfect;
          }
      in
      Alcotest.(check int)
        (Fmt.str "lease=%b failures" lease)
        0 r.Pte_tracheotomy.Trial.failures)
    [ true; false ]

(* Deterministic failure injection: §V scenario 2 — the surgeon cancels
   but the cancel is lost. With the lease the ventilator still resumes
   within its lease; without it the pause overruns the 60 s rule. *)
let lost_cancel_trial ~lease =
  let loss =
    Pte_net.Loss.Adversarial
      (fun _ root -> root = Pte_core.Events.cancel_up ~initializer_:"laser")
  in
  Pte_tracheotomy.Trial.run
    {
      Pte_tracheotomy.Emulation.default with
      horizon = 300.0;
      seed = 12;
      e_ton = 20.0;
      e_toff = 10.0;
      lease;
      loss;
    }

let test_lost_cancel_with_lease () =
  let r = lost_cancel_trial ~lease:true in
  Alcotest.(check int) "no failures" 0 r.Pte_tracheotomy.Trial.failures;
  Alcotest.(check bool) "lease rescued at least once" true
    (r.Pte_tracheotomy.Trial.evt_to_stop >= 1
    || r.Pte_tracheotomy.Trial.vent_lease_expiries >= 1)

let test_lost_cancel_without_lease () =
  let r = lost_cancel_trial ~lease:false in
  Alcotest.(check bool)
    (Fmt.str "pause %.1fs should overrun" r.Pte_tracheotomy.Trial.longest_pause)
    true
    (r.Pte_tracheotomy.Trial.failures >= 1)

(* A lossy 120 s trial with a drifting ventilator (rate 1.07, so its
   cylinder overshoots the invariant and every stroke reversal is a
   bisected, forced transition), a ventilator crash and reboot, and the
   patient's SpO2 (an ODE flow) and the cylinder height noted once per
   second. The fixture is the trace the map-valuation executor
   recorded, one entry per line, the time and every float printed
   exactly ([%h]). *)
let trial_fixture = "fixtures/trial-drift-crash-120s.trace"

let test_trial_trace_replays_fixture () =
  let faults =
    {
      Pte_faults.Plan.empty with
      node_faults =
        [
          Pte_faults.Plan.clock_drift ~entity:"ventilator" ~factor:1.07;
          Pte_faults.Plan.crash ~entity:"ventilator" ~at:47.0 ~blackout:9.0;
        ];
    }
  in
  let config =
    {
      Pte_tracheotomy.Emulation.default with
      horizon = 120.0;
      seed = 2013;
      e_ton = 20.0;
      e_toff = 8.0;
      loss = Pte_net.Loss.wifi_interference ~average_loss:0.3;
      faults;
    }
  in
  let built = Pte_tracheotomy.Emulation.build config in
  let engine = built.Pte_tracheotomy.Emulation.engine in
  Pte_sim.Engine.add_process engine ~period:1.0 ~name:"state-note"
    (fun engine ~time:_ ->
      let value = Pte_sim.Engine.value_of engine in
      Pte_sim.Engine.note engine
        (Printf.sprintf "spo2 %h hvent %h"
           (value Pte_tracheotomy.Patient.name Pte_tracheotomy.Patient.spo2_var)
           (value "ventilator" Pte_tracheotomy.Ventilator.height_var)));
  let expected =
    Test_executor.replay_fixture trial_fixture
      (Pte_tracheotomy.Emulation.run built)
  in
  Alcotest.(check int) "fixture length" 336 (List.length expected);
  (* the fixture exercises what it is meant to pin *)
  let mentions needle line =
    let n = String.length needle and l = String.length line in
    let rec at i = i + n <= l && (String.sub line i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun (needle, what) ->
      if not (List.exists (mentions needle) expected) then
        Alcotest.failf "fixture has no %s" what)
    [ ("(forced)", "forced transition"); ("restarted", "restart");
      ("loses", "lost frame"); ("spo2 0x1.87", "SpO2 decay") ]

let suite =
  [
    ( "tracheotomy",
      [
        Alcotest.test_case "A'vent is simple" `Quick test_ventilator_is_simple_child;
        Alcotest.test_case "participant elaboration" `Quick
          test_participant_elaboration;
        Alcotest.test_case "ventilating predicate" `Quick test_ventilating_predicate;
        Alcotest.test_case "patient stable when ventilated" `Quick
          test_patient_stable_when_ventilated;
        Alcotest.test_case "patient desaturates on pause" `Quick
          test_patient_desaturates_on_pause;
        Alcotest.test_case "oximeter threshold" `Quick test_oximeter_threshold;
        Alcotest.test_case "emulation builds and runs" `Quick
          test_emulation_builds_and_runs;
        Alcotest.test_case "short trial safe (lease)" `Quick
          test_short_trial_with_lease_safe;
        Alcotest.test_case "perfect channel safe (both modes)" `Quick
          test_perfect_channel_both_modes_safe;
        Alcotest.test_case "lost cancel, with lease" `Quick
          test_lost_cancel_with_lease;
        Alcotest.test_case "lost cancel, without lease" `Quick
          test_lost_cancel_without_lease;
        Alcotest.test_case "drift/crash trial replays its recorded trace"
          `Quick test_trial_trace_replays_fixture;
      ] );
  ]
