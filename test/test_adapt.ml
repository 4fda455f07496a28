(* The adaptive-resilience layer: channel-health estimator views
   (windowed rate, EWMA, burst detector vs the Gilbert–Elliott
   channel), escalation-policy hysteresis and flap-guards, the
   safe-switch protocol's Theorem-1 refusal surfacing in Trial
   metrics, and the end-to-end adaptive trial staying violation
   free while actually switching. *)

module Est = Pte_adapt.Estimator
module Policy = Pte_adapt.Policy
module Transport = Pte_net.Transport
module Emulation = Pte_tracheotomy.Emulation
module Trial = Pte_tracheotomy.Trial

(* ---- estimator: the three views and their blend ---- *)

let feed est outcomes =
  List.iteri
    (fun i confirmed -> Est.record est ~confirmed ~at:(Float.of_int i))
    outcomes

let test_estimator_windowed_rate () =
  let est = Est.create { Est.default_config with Est.window = 4 } in
  Alcotest.(check (float 1e-9)) "empty window reads clean" 0.0
    (Est.windowed_loss est);
  feed est [ true; false; true; false ];
  Alcotest.(check (float 1e-9)) "half lost" 0.5 (Est.windowed_loss est);
  (* two more losses evict the two oldest (one confirm, one loss) *)
  feed est [ false; false ];
  Alcotest.(check (float 1e-9)) "window slides" 0.75 (Est.windowed_loss est);
  Alcotest.(check int) "lifetime count keeps growing" 6 (Est.samples est)

let test_estimator_ewma_seeding () =
  let est = Est.create { Est.default_config with Est.ewma_alpha = 0.5 } in
  Est.record est ~confirmed:false ~at:1.0;
  Alcotest.(check (float 1e-9)) "first outcome seeds the EWMA" 1.0
    (Est.ewma_loss est);
  Est.record est ~confirmed:true ~at:2.0;
  Alcotest.(check (float 1e-9)) "then it smooths" 0.5 (Est.ewma_loss est);
  Alcotest.(check (float 1e-9)) "newest instant kept" 2.0 (Est.last_at est)

let test_estimator_burst_detector () =
  (* burst_k = 3 discriminates the wifi channel's states: the good
     state (2% loss) produces a triple with probability 8e-6, the bad
     state (90% loss) routinely — so three in a row must both flag the
     burst and floor the estimate at the bad-state loss rate *)
  let est = Est.create Est.default_config in
  feed est [ true; true; true; true; true; true; false; false ];
  Alcotest.(check bool) "two losses: no burst yet" false (Est.in_burst est);
  Alcotest.(check int) "run length" 2 (Est.consecutive_losses est);
  Alcotest.(check bool) "estimate still below the floor" true
    (Est.loss_estimate est < 0.9);
  Est.record est ~confirmed:false ~at:9.0;
  Alcotest.(check bool) "third loss flags the burst" true (Est.in_burst est);
  Alcotest.(check (float 1e-9)) "estimate floored at the bad-state rate" 0.9
    (Est.loss_estimate est);
  Est.record est ~confirmed:true ~at:10.0;
  Alcotest.(check bool) "one confirmation clears the burst" false
    (Est.in_burst est);
  Alcotest.(check int) "run reset" 0 (Est.consecutive_losses est)

let test_estimator_blend_is_pessimistic () =
  (* the blend takes max(windowed, ewma): a long-memory EWMA must keep
     the estimate up after a burst has already slid out of the window *)
  let est =
    Est.create { Est.default_config with Est.window = 4; ewma_alpha = 0.05 }
  in
  feed est (List.init 8 (fun _ -> false));
  feed est [ true; true; true; true ];
  Alcotest.(check (float 1e-9)) "window forgot the burst" 0.0
    (Est.windowed_loss est);
  Alcotest.(check bool) "the blend has not" true (Est.loss_estimate est > 0.5)

let test_estimator_validate () =
  let ok c = Result.is_ok (Est.validate c) in
  let d = Est.default_config in
  Alcotest.(check bool) "default valid" true (ok d);
  Alcotest.(check bool) "zero window" false (ok { d with Est.window = 0 });
  Alcotest.(check bool) "alpha 0" false (ok { d with Est.ewma_alpha = 0.0 });
  Alcotest.(check bool) "alpha > 1" false (ok { d with Est.ewma_alpha = 1.5 });
  Alcotest.(check bool) "zero burst_k" false (ok { d with Est.burst_k = 0 });
  Alcotest.(check bool) "floor > 1" false (ok { d with Est.burst_floor = 1.5 });
  match Est.create { d with Est.window = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create must reject an ill-formed config"

(* ---- policy: hysteresis band and flap-guards ---- *)

let decide ?(tier = Policy.Healthy) ?(estimate = 0.0) ?(samples = 100)
    ?(since_switch = 1e9) ?(in_burst = false) () =
  Policy.decide Policy.default_config ~tier ~estimate ~samples ~since_switch
    ~in_burst

let test_policy_hysteresis () =
  Alcotest.(check bool) "healthy + high loss escalates" true
    (decide ~estimate:0.5 () = Policy.Escalate);
  Alcotest.(check bool) "healthy inside the band stays" true
    (decide ~estimate:0.25 () = Policy.Stay);
  Alcotest.(check bool) "degraded inside the band stays" true
    (decide ~tier:Policy.Degraded ~estimate:0.25 () = Policy.Stay);
  Alcotest.(check bool) "degraded + clean channel de-escalates" true
    (decide ~tier:Policy.Degraded ~estimate:0.05 () = Policy.Deescalate);
  Alcotest.(check bool) "degraded at the escalation threshold stays" true
    (decide ~tier:Policy.Degraded ~estimate:0.35 () = Policy.Stay)

let test_policy_flap_guards () =
  Alcotest.(check bool) "too few samples: stay" true
    (decide ~estimate:0.9 ~samples:2 () = Policy.Stay);
  Alcotest.(check bool) "a burst bypasses the sample guard" true
    (decide ~estimate:0.9 ~samples:2 ~in_burst:true () = Policy.Escalate);
  Alcotest.(check bool) "but never the dwell guard" true
    (decide ~estimate:0.9 ~samples:2 ~in_burst:true ~since_switch:5.0 ()
    = Policy.Stay);
  Alcotest.(check bool) "inside the dwell: stay even when seasoned" true
    (decide ~estimate:0.9 ~since_switch:29.9 () = Policy.Stay);
  Alcotest.(check bool) "no de-escalation while a burst is running" true
    (decide ~tier:Policy.Degraded ~estimate:0.05 ~in_burst:true ()
    = Policy.Stay)

let test_policy_validate () =
  let ok c = Result.is_ok (Policy.validate c) in
  let d = Policy.default_config in
  Alcotest.(check bool) "default valid" true (ok d);
  Alcotest.(check bool) "inverted band" false
    (ok { d with Policy.recover_below = 0.5 });
  Alcotest.(check bool) "degenerate band" false
    (ok { d with Policy.recover_below = d.Policy.degrade_above });
  Alcotest.(check bool) "zero samples" false
    (ok { d with Policy.min_samples = 0 });
  Alcotest.(check bool) "negative dwell" false
    (ok { d with Policy.min_dwell = -1.0 })

(* ---- spec-string parsing of the adaptive mode ---- *)

let test_adaptive_spec_parsing () =
  (match Transport.mode_of_string "adaptive" with
  | Ok (`Adaptive a) ->
      Alcotest.(check bool) "defaults" true (a = Transport.default_adaptive)
  | _ -> Alcotest.fail "plain adaptive must parse");
  (match
     Transport.mode_of_string
       "adaptive:healthy=bare,degrade=0.5,recover=0.2,dwell=10,samples=4,window=30,burst=2,budget=1.9"
   with
  | Ok (`Adaptive a) ->
      Alcotest.(check bool) "healthy sub-mode" true
        (a.Transport.healthy = `Bare);
      Alcotest.(check (float 1e-9)) "degrade" 0.5
        a.Transport.policy.Policy.degrade_above;
      Alcotest.(check (float 1e-9)) "recover" 0.2
        a.Transport.policy.Policy.recover_below;
      Alcotest.(check (float 1e-9)) "dwell" 10.0
        a.Transport.policy.Policy.min_dwell;
      Alcotest.(check int) "samples" 4 a.Transport.policy.Policy.min_samples;
      Alcotest.(check int) "window" 30 a.Transport.estimator.Est.window;
      Alcotest.(check int) "burst" 2 a.Transport.estimator.Est.burst_k;
      Alcotest.(check bool) "budget pinned" true
        (a.Transport.budget = Some 1.9)
  | _ -> Alcotest.fail "well-formed adaptive spec must parse");
  (match Transport.mode_of_string "adaptive:budget=nan" with
  | Error msg ->
      Alcotest.(check string) "NaN budget rejected at parse time"
        "transport: budget must be >= 0" msg
  | Ok _ -> Alcotest.fail "a NaN budget must be rejected");
  (match Transport.mode_of_string "adaptive:degrade=0.1,recover=0.3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an inverted hysteresis band must be rejected");
  match Transport.mode_of_string "adaptive:turbo=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown adaptive key must be rejected"

(* ---- the safe-switch protocol refuses an over-budget candidate ----

   The degraded template pins 12 blind copies with a permissive
   synthesis budget, so escalation-time synthesis succeeds — and the
   c1–c7 admission recheck (installed by Emulation.build as
   Constraints.satisfies_with_delay) must then refuse the candidate:
   its worst-case latency overshoots the 2 s Theorem-1 budget. The
   transport stays healthy for the whole trial and every refusal is
   counted in the Trial metrics. *)

let test_over_budget_escalation_refused () =
  let over_budget =
    { Pte_sched.Synth.default_policy with
      Pte_sched.Synth.retries = Some 12;
      budget = Some 100.0;
    }
  in
  let config =
    {
      Emulation.default with
      horizon = 300.0;
      seed = 61;
      e_ton = 5.0;
      e_toff = 60.0;
      loss = Pte_net.Loss.wifi_interference ~average_loss:0.6;
      transport =
        `Adaptive
          { Transport.default_adaptive with Transport.degraded = over_budget };
    }
  in
  let r = Trial.run config in
  Alcotest.(check bool)
    (Fmt.str "refusals counted (%d)" r.Trial.switch_refusals)
    true
    (r.Trial.switch_refusals >= 1);
  Alcotest.(check int) "no escalation ever committed" 0
    r.Trial.mode_switches_up;
  Alcotest.(check int) "no de-escalation either" 0 r.Trial.mode_switches_down;
  Alcotest.(check bool) "no degraded schedule ever installed" true
    (r.Trial.schedule = None);
  Alcotest.(check int) "still violation free in the refused mode" 0
    r.Trial.failures

(* ---- end-to-end: the adaptive trial escalates on a bad channel,
        de-escalates on recovery, and never violates PTE ---- *)

let test_adaptive_trial_switches_and_stays_safe () =
  let recovery =
    { Pte_faults.Plan.empty with
      Pte_faults.Plan.loss_profile =
        [ Pte_faults.Plan.loss_step ~at:150.0 ~loss:0.0 ];
    }
  in
  let config =
    {
      Emulation.default with
      horizon = 300.0;
      seed = 62;
      e_ton = 5.0;
      e_toff = 60.0;
      loss = Pte_net.Loss.wifi_interference ~average_loss:0.6;
      faults = recovery;
      transport = `Adaptive Transport.default_adaptive;
    }
  in
  let r = Trial.run config in
  Alcotest.(check bool)
    (Fmt.str "escalated on the bad half (%d up)" r.Trial.mode_switches_up)
    true
    (r.Trial.mode_switches_up >= 1);
  Alcotest.(check bool)
    (Fmt.str "de-escalated after recovery (%d down)"
       r.Trial.mode_switches_down)
    true
    (r.Trial.mode_switches_down >= 1);
  Alcotest.(check bool) "ends healthy: no degraded schedule in force" true
    (r.Trial.schedule = None);
  Alcotest.(check bool)
    (Fmt.str "measured worst latency %.2fs within the Theorem-1 budget"
       r.Trial.worst_latency)
    true
    (r.Trial.worst_latency
    <= Pte_core.Constraints.max_delay_budget config.Emulation.params);
  Alcotest.(check int) "violation free across both switches" 0
    r.Trial.failures;
  (* without the recovery step the trial ends degraded, and the
     schedule it committed — synthesized for the estimated loss — is
     visible and inside the budget *)
  let r2 =
    Trial.run { config with Emulation.faults = Pte_faults.Plan.empty }
  in
  Alcotest.(check bool) "sustained loss: escalated" true
    (r2.Trial.mode_switches_up >= 1);
  match r2.Trial.schedule with
  | Some sched ->
      Alcotest.(check bool) "committed schedule fits the budget" true
        (Pte_sched.Schedule.worst_case_latency sched
        <= Pte_core.Constraints.max_delay_budget config.Emulation.params)
  | None -> Alcotest.fail "a trial ending degraded must expose its schedule"

(* ---- legacy invariant: adaptation off changes nothing ----

   A static-mode trial must not feel the adaptive layer at all: the
   estimator hooks are no-ops when the transport carries no adaptive
   state, so bare/reliable/scheduled results are identical to what the
   seeds always produced (the cram suite pins the literal bytes; this
   checks the stronger record equality on a fresh pair of runs). *)

let test_static_modes_unaffected () =
  List.iter
    (fun transport ->
      let config =
        { Emulation.default with Emulation.horizon = 60.0; seed = 63; transport }
      in
      let a = Trial.run config in
      let b = Trial.run config in
      Alcotest.(check bool) "deterministic replay" true (a = b);
      Alcotest.(check int) "no switches in a static mode" 0
        (a.Trial.mode_switches_up + a.Trial.mode_switches_down
       + a.Trial.switch_refusals))
    [ `Bare;
      `Reliable Transport.default_config;
      `Scheduled Pte_sched.Synth.default_policy ]

let suite =
  [
    ( "adapt.estimator",
      [
        Alcotest.test_case "windowed rate slides" `Quick
          test_estimator_windowed_rate;
        Alcotest.test_case "EWMA seeds on the first outcome" `Quick
          test_estimator_ewma_seeding;
        Alcotest.test_case "burst detector vs Gilbert-Elliott" `Quick
          test_estimator_burst_detector;
        Alcotest.test_case "blend stays pessimistic" `Quick
          test_estimator_blend_is_pessimistic;
        Alcotest.test_case "config validation" `Quick test_estimator_validate;
      ] );
    ( "adapt.policy",
      [
        Alcotest.test_case "hysteresis band" `Quick test_policy_hysteresis;
        Alcotest.test_case "sample/dwell flap-guards" `Quick
          test_policy_flap_guards;
        Alcotest.test_case "config validation" `Quick test_policy_validate;
      ] );
    ( "net.transport.adaptive",
      [
        Alcotest.test_case "spec-string parsing" `Quick
          test_adaptive_spec_parsing;
        Alcotest.test_case "over-budget escalation refused and counted"
          `Slow test_over_budget_escalation_refused;
        Alcotest.test_case "trial switches both ways, stays safe" `Slow
          test_adaptive_trial_switches_and_stays_safe;
        Alcotest.test_case "static modes untouched by the adaptive layer"
          `Quick test_static_modes_unaffected;
      ] );
  ]
