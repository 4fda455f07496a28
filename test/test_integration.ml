(* End-to-end properties across the whole stack. The headline theorem —
   PTE safety under arbitrary loss once c1-c7 hold — is exercised both as
   randomized trials and as targeted message-loss injections at every
   protocol stage. *)

open Pte_core

let params = Params.case_study

let run_trial ?(horizon = 300.0) ?(lease = true) ?(loss = Pte_net.Loss.wifi_interference ~average_loss:0.3)
    ~seed () =
  Pte_tracheotomy.Trial.run
    { Pte_tracheotomy.Emulation.default with horizon; lease; loss; seed }

(* Theorem 1 as a property: any random loss pattern + surgeon schedule
   keeps the with-lease system violation-free. *)
let prop_lease_safe_under_random_loss =
  QCheck.Test.make ~name:"with-lease trials never violate PTE" ~count:20
    QCheck.(make QCheck.Gen.(int_range 1 100_000))
    (fun seed ->
      let r = run_trial ~seed () in
      r.Pte_tracheotomy.Trial.failures = 0)

(* the same trials must also respect the theorem's dwelling bound *)
let prop_dwell_bound_respected =
  QCheck.Test.make ~name:"risky dwelling bounded by T_wait + T_LS1" ~count:15
    QCheck.(make QCheck.Gen.(int_range 1 100_000))
    (fun seed ->
      let r = run_trial ~seed () in
      r.Pte_tracheotomy.Trial.longest_pause
      <= Params.risky_dwell_bound params +. 0.5
      && r.Pte_tracheotomy.Trial.longest_emission
         <= Params.risky_dwell_bound params +. 0.5)

(* Failure injection: kill every instance of one protocol message kind at
   a time. The lease-based design must stay safe in every case. *)
let injection_roots =
  [
    Events.request ~initializer_:"laser";
    Events.lease_req ~participant:"ventilator";
    Events.lease_approve ~participant:"ventilator";
    Events.lease_deny ~participant:"ventilator";
    Events.approve ~initializer_:"laser";
    Events.cancel_up ~initializer_:"laser";
    Events.exit_up ~initializer_:"laser";
    Events.exited_up ~participant:"ventilator";
    Events.cancel_down ~entity:"ventilator";
    Events.cancel_down ~entity:"laser";
    Events.abort_down ~entity:"ventilator";
    Events.abort_down ~entity:"laser";
  ]

let test_single_message_kind_blackouts () =
  List.iter
    (fun root ->
      let loss = Pte_net.Loss.Adversarial (fun _ r -> String.equal r root) in
      let r = run_trial ~seed:21 ~loss () in
      if r.Pte_tracheotomy.Trial.failures <> 0 then
        Alcotest.failf "blackout of %s caused %d failure(s): %a" root
          r.Pte_tracheotomy.Trial.failures
          Fmt.(list ~sep:comma Monitor.pp_violation)
          r.Pte_tracheotomy.Trial.violations)
    injection_roots

let test_total_blackout () =
  (* nothing is ever delivered: the system must stay idle-safe *)
  let r = run_trial ~seed:22 ~loss:(Pte_net.Loss.Bernoulli 1.0) () in
  Alcotest.(check int) "no failures" 0 r.Pte_tracheotomy.Trial.failures;
  Alcotest.(check int) "no emissions" 0 r.Pte_tracheotomy.Trial.emissions

let test_every_kth_packet_lost () =
  List.iter
    (fun k ->
      let loss = Pte_net.Loss.Adversarial (fun nth _ -> nth mod k = 0) in
      let r = run_trial ~seed:23 ~loss () in
      Alcotest.(check int) (Fmt.str "k=%d" k) 0 r.Pte_tracheotomy.Trial.failures)
    [ 2; 3; 5 ]

let test_heavy_random_loss_shape () =
  (* at a heavy loss rate the contrast of Table I appears even in 5
     simulated minutes *)
  let with_lease = run_trial ~seed:31 ~lease:true () in
  let without = run_trial ~seed:31 ~lease:false () in
  Alcotest.(check int) "with lease: safe" 0 with_lease.Pte_tracheotomy.Trial.failures;
  Alcotest.(check bool) "without lease: pause grows" true
    (without.Pte_tracheotomy.Trial.longest_pause
    > with_lease.Pte_tracheotomy.Trial.longest_pause)

let test_trial_determinism () =
  let a = run_trial ~seed:55 () and b = run_trial ~seed:55 () in
  Alcotest.(check int) "emissions" a.Pte_tracheotomy.Trial.emissions
    b.Pte_tracheotomy.Trial.emissions;
  Alcotest.(check int) "failures" a.Pte_tracheotomy.Trial.failures
    b.Pte_tracheotomy.Trial.failures;
  Alcotest.(check int) "messages" a.Pte_tracheotomy.Trial.messages_sent
    b.Pte_tracheotomy.Trial.messages_sent

let test_synthesized_n3_system_runs_safe () =
  (* a three-entity chain from the synthesizer, driven like the case
     study, stays safe under bursty loss *)
  let p3 =
    Synthesis.synthesize_exn
      (Synthesis.default_requirements
         ~entity_names:[ "pump"; "xray"; "carm" ]
         ~safeguards:
           [
             { Params.enter_risky_min = 2.0; exit_safe_min = 1.0 };
             { Params.enter_risky_min = 1.0; exit_safe_min = 0.5 };
           ])
  in
  let system = Pattern.system p3 in
  let rng = Pte_util.Rng.create 9 in
  let net =
    Pte_net.Star.create ~base:"supervisor" ~remotes:(Pattern.remotes p3)
      ~loss_kind:(Pte_net.Loss.wifi_interference ~average_loss:0.3)
      ~rng ()
  in
  let config = { Pte_hybrid.Executor.default_config with dt = 0.01 } in
  let engine = Pte_sim.Engine.create ~config ~net ~seed:10 system in
  Pte_sim.Scenario.exponential_stimulus engine ~mean:25.0 ~automaton:"carm"
    ~armed_in:"Fall-Back"
    ~root:(Events.stim_request ~initializer_:"carm") ();
  Pte_sim.Scenario.exponential_stimulus engine ~mean:8.0 ~automaton:"carm"
    ~armed_in:"Risky Core"
    ~root:(Events.stim_cancel ~initializer_:"carm") ();
  Pte_sim.Engine.run engine ~until:400.0;
  let spec = Rules.of_params p3 in
  let report =
    Monitor.analyze_system (Pte_sim.Engine.trace engine) system spec
      ~horizon:400.0
  in
  Alcotest.(check int)
    (Fmt.str "%a" Monitor.pp_report report)
    0 (Monitor.episodes report);
  (* the chain actually got exercised *)
  let emissions =
    Pte_sim.Metrics.entries (Pte_sim.Engine.trace engine) ~automaton:"carm"
      ~location:"Risky Core"
  in
  Alcotest.(check bool) "initializer ran" true (emissions >= 1)

(* The engine ends on the first step past the horizon, so the monitor
   must analyse up to that step: at this seed the laser leaves its risky
   location at 300.01 s while the ventilator's risky interval is still
   open, and clipping only the open interval at the nominal 300 s made
   the laser's 289.87..300.01 look unembedded — a spurious Rule 2
   violation (the property above hit it under QCHECK_SEED=784091284). *)
let test_open_interval_at_horizon () =
  let r = run_trial ~seed:72152 () in
  Alcotest.(check int) "no PTE violation" 0 r.Pte_tracheotomy.Trial.failures

let suite =
  [
    ( "integration",
      [
        QCheck_alcotest.to_alcotest prop_lease_safe_under_random_loss;
        QCheck_alcotest.to_alcotest prop_dwell_bound_respected;
        Alcotest.test_case "single-message blackouts" `Slow
          test_single_message_kind_blackouts;
        Alcotest.test_case "total blackout" `Quick test_total_blackout;
        Alcotest.test_case "every k-th packet lost" `Quick
          test_every_kth_packet_lost;
        Alcotest.test_case "heavy loss: lease vs no-lease shape" `Quick
          test_heavy_random_loss_shape;
        Alcotest.test_case "trial determinism" `Quick test_trial_determinism;
        Alcotest.test_case "synthesized N=3 chain safe" `Quick
          test_synthesized_n3_system_runs_safe;
        Alcotest.test_case "interval open at the horizon" `Quick
          test_open_interval_at_horizon;
      ] );
  ]
