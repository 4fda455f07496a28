(** Schedule a plan's node faults on a simulation engine.

    Crashes become a periodic engine process that halts the entity at
    [at] and reboots it (initial location, initial valuation) after
    [blackout] seconds. Clock drift is applied immediately: the entity's
    flows advance [factor] local seconds per global second, eating into
    the c1–c7 timing margins exactly the way a drifting MCU oscillator
    would. Both fault kinds sit {e outside} the paper's message-loss
    fault model — injecting them shows where Theorem 1's envelope
    actually ends. *)

let install plan engine =
  List.iter
    (function
      | Plan.Clock_drift { entity; factor } ->
          Pte_sim.Engine.set_rate engine entity factor
      | Plan.Crash { entity; at; blackout } ->
          let exec = Pte_sim.Engine.executor engine in
          let h = Pte_hybrid.Executor.Handle.find exec entity in
          let stage = ref `Waiting in
          Pte_sim.Engine.add_process engine ~name:(entity ^ "-crash-fault")
            (fun _engine ~time ->
              match !stage with
              | `Waiting when time >= at ->
                  Pte_hybrid.Executor.Handle.halt exec h;
                  stage := `Down
              | `Down when time >= at +. blackout ->
                  Pte_hybrid.Executor.Handle.restart exec h;
                  stage := `Done
              | _ -> ()))
    plan.Plan.node_faults
