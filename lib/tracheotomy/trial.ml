(** Trial runner: executes emulation trials and extracts the Table-I
    statistics (plus channel and SpO2 diagnostics the paper reports in
    prose). *)

type result = {
  config : Emulation.config;
  emissions : int;  (** # of laser emissions (entries into "Risky Core"). *)
  failures : int;  (** # of PTE safety-rule violation episodes. *)
  evt_to_stop : int;
      (** # of evtToStop: lease expiry forced the laser to stop. *)
  vent_lease_expiries : int;
      (** # of times the ventilator's lease expired in "Risky Core". *)
  aborts : int;  (** supervisor abort chains started (SpO2 below Θ). *)
  requests : int;  (** surgeon requests issued. *)
  violations : Pte_core.Monitor.violation list;
  longest_pause : float;  (** longest continuous risky dwell, ventilator. *)
  longest_emission : float;  (** longest continuous risky dwell, laser. *)
  min_spo2 : float;
  messages_sent : int;
  effective_loss_rate : float;
  faults_fired : int;  (** scripted packet faults that actually fired. *)
  retransmissions : int;  (** transport-layer retries (reliable mode). *)
  gave_up : int;  (** sends lost after the full retry budget. *)
  dups_suppressed : int;  (** replayed copies squashed by (src, seq). *)
  degraded_entries : int;  (** times the supervisor entered safe-mode. *)
  max_consec_losses : int;
      (** deepest per-sender feedback blackout (consecutive unconfirmed
          exchanges) — a certification level-function component. *)
  worst_latency : float;  (** largest observed send-to-delivery delay. *)
  mode_switches_up : int;  (** adaptive: committed escalations. *)
  mode_switches_down : int;  (** adaptive: committed de-escalations. *)
  switch_refusals : int;
      (** adaptive: switches refused by the Theorem-1 recheck. *)
  schedule : Pte_sched.Schedule.t option;
      (** the synthesized round schedule (scheduled mode, or the
          adaptive mode's last committed degraded schedule). *)
}

let run (config : Emulation.config) : result =
  let built = Emulation.build config in
  let trace = Emulation.run built in
  (* the engine ends on the first step at or past the horizon: analyse
     up to where the trace really ends, or an interval still open there
     is clipped short of its parent's *)
  let report =
    Pte_core.Monitor.analyze_system trace built.Emulation.system
      built.Emulation.spec
      ~horizon:(Pte_sim.Engine.time built.Emulation.engine)
  in
  let laser = built.Emulation.laser in
  let ventilator = built.Emulation.ventilator in
  let dwell entity =
    match List.assoc_opt entity report.Pte_core.Monitor.intervals with
    | Some spans -> Pte_hybrid.Trace.longest_dwell spans
    | None -> 0.0
  in
  let net_stats = Pte_net.Star.total_stats built.Emulation.net in
  let tstats = Pte_net.Transport.stats built.Emulation.transport in
  {
    config;
    emissions =
      Pte_sim.Metrics.entries trace ~automaton:laser ~location:"Risky Core";
    failures = Pte_core.Monitor.episodes report;
    evt_to_stop =
      Pte_sim.Metrics.internal_marks trace
        ~root:(Pte_core.Events.to_stop ~entity:laser);
    vent_lease_expiries =
      Pte_sim.Metrics.internal_marks trace
        ~root:(Pte_core.Events.lease_expired ~entity:ventilator);
    aborts =
      Pte_sim.Metrics.entries trace
        ~automaton:config.Emulation.params.Pte_core.Params.supervisor
        ~location:(Pte_core.Pattern.send_abort_loc laser);
    requests =
      Pte_sim.Metrics.entries trace ~automaton:laser ~location:"Send Req";
    violations = report.Pte_core.Monitor.violations;
    longest_pause = dwell ventilator;
    longest_emission = dwell laser;
    min_spo2 = Pte_util.Stats.Online.min built.Emulation.spo2_stats;
    messages_sent = net_stats.Pte_net.Link_stats.sent;
    effective_loss_rate = Pte_net.Link_stats.loss_rate net_stats;
    faults_fired =
      Pte_faults.Injector.total_fired built.Emulation.faults_handle;
    retransmissions = tstats.Pte_net.Transport.retransmissions;
    gave_up = tstats.Pte_net.Transport.gave_up;
    dups_suppressed = tstats.Pte_net.Transport.dups_suppressed;
    degraded_entries =
      (match built.Emulation.degraded with
      | Some h -> h.Degraded.entries
      | None -> 0);
    max_consec_losses = tstats.Pte_net.Transport.max_consec_losses;
    worst_latency = tstats.Pte_net.Transport.worst_latency;
    mode_switches_up = tstats.Pte_net.Transport.switches_up;
    mode_switches_down = tstats.Pte_net.Transport.switches_down;
    switch_refusals = tstats.Pte_net.Transport.switch_refusals;
    schedule = Pte_net.Transport.schedule built.Emulation.transport;
  }

(* ------------------------------------------------------------------ *)
(* Campaign-backed replicated trials                                   *)
(* ------------------------------------------------------------------ *)

type aggregate = {
  reps : int;
  failed_jobs : int;
  failure_reps : int;
  failure_rate : Pte_campaign.Aggregate.summary;
      (** the 0/1 "failed" indicator itself — carries the Wilson
          interval honest at 0 observed violations. *)
  emissions : Pte_campaign.Aggregate.summary;
  failures : Pte_campaign.Aggregate.summary;
  evt_to_stop : Pte_campaign.Aggregate.summary;
  aborts : Pte_campaign.Aggregate.summary;
  requests : Pte_campaign.Aggregate.summary;
  longest_pause : Pte_campaign.Aggregate.summary;
  longest_emission : Pte_campaign.Aggregate.summary;
  min_spo2 : Pte_campaign.Aggregate.summary;
  loss_rate : Pte_campaign.Aggregate.summary;
}

type replicated = { rep0 : result; agg : aggregate }

let metrics_of_result (r : result) =
  [
    ("emissions", Float.of_int r.emissions);
    ("failures", Float.of_int r.failures);
    ("evt_to_stop", Float.of_int r.evt_to_stop);
    ("vent_lease_expiries", Float.of_int r.vent_lease_expiries);
    ("aborts", Float.of_int r.aborts);
    ("requests", Float.of_int r.requests);
    ("longest_pause", r.longest_pause);
    ("longest_emission", r.longest_emission);
    ("min_spo2", r.min_spo2);
    ("messages_sent", Float.of_int r.messages_sent);
    ("loss_rate", r.effective_loss_rate);
    ("faults_fired", Float.of_int r.faults_fired);
    ("retransmissions", Float.of_int r.retransmissions);
    ("gave_up", Float.of_int r.gave_up);
    ("dups_suppressed", Float.of_int r.dups_suppressed);
    ("degraded_entries", Float.of_int r.degraded_entries);
    ("max_consec_losses", Float.of_int r.max_consec_losses);
    ("worst_latency", r.worst_latency);
    ("mode_switches_up", Float.of_int r.mode_switches_up);
    ("mode_switches_down", Float.of_int r.mode_switches_down);
    ("switch_refusals", Float.of_int r.switch_refusals);
    (* indicator, so the aggregate counts replicates with any failure *)
    ("failed", if r.failures > 0 then 1.0 else 0.0);
  ]
  @ (match r.schedule with
    | None -> []
    | Some sched ->
        [ ("sched_bound", Pte_sched.Schedule.worst_case_latency sched) ])

let aggregate_of_cell (cell : Pte_campaign.Aggregate.cell) =
  let empty : Pte_campaign.Aggregate.summary =
    { n = 0; mean = nan; stddev = 0.0; ci95 = 0.0; lo = nan; hi = nan;
      wilson = None }
  in
  let metric name =
    try Pte_campaign.Aggregate.metric cell name with Not_found -> empty
  in
  let failed_ind = metric "failed" in
  {
    reps = cell.Pte_campaign.Aggregate.ok;
    failed_jobs = cell.Pte_campaign.Aggregate.failed;
    failure_reps =
      (if failed_ind.Pte_campaign.Aggregate.n = 0 then 0
       else
         int_of_float
           (Float.round
              (failed_ind.Pte_campaign.Aggregate.mean
              *. Float.of_int failed_ind.Pte_campaign.Aggregate.n)));
    failure_rate = failed_ind;
    emissions = metric "emissions";
    failures = metric "failures";
    evt_to_stop = metric "evt_to_stop";
    aborts = metric "aborts";
    requests = metric "requests";
    longest_pause = metric "longest_pause";
    longest_emission = metric "longest_emission";
    min_spo2 = metric "min_spo2";
    loss_rate = metric "loss_rate";
  }

let run_cells ?workers ?checkpoint ?(resume = false) ?(retries = 1) ~reps ~seed
    cells =
  let full : result option array =
    Array.make (Array.length cells * reps) None
  in
  let campaign =
    Pte_campaign.Runner.run
      ~config:{ Pte_campaign.Runner.workers; retries; checkpoint; resume }
      ~cells ~reps ~seed
      (fun job rng ->
        let base = job.Pte_campaign.Job.payload in
        (* replicate 0 keeps the cell's literal seed (historical runs
           stay byte-identical); later replicates draw from the job's
           split-derived stream *)
        let trial_seed =
          if job.Pte_campaign.Job.rep = 0 then base.Emulation.seed
          else Int64.to_int (Pte_util.Rng.next_int64 rng)
        in
        let r = run { base with Emulation.seed = trial_seed } in
        full.(job.Pte_campaign.Job.id) <- Some r;
        metrics_of_result r)
  in
  (campaign, full)

(* One replicated row per cell; only valid when nothing was resumed
   (replicate 0 then always ran in this process). Jobs that exhausted
   their retries would silently vanish from the aggregates — a table
   (or a certified bound) must never rest on dropped trials, so any
   failed job fails the whole aggregation loudly instead. *)
let replicated_rows campaign full reps =
  if campaign.Pte_campaign.Runner.failed > 0 then
    failwith
      (Printf.sprintf
         "Trial.replicated_rows: %d job(s) exhausted their retries; \
          refusing to aggregate over dropped trials"
         campaign.Pte_campaign.Runner.failed);
  Array.to_list
    (Array.mapi
       (fun i cell ->
         match full.(i * reps) with
         | Some rep0 -> { rep0; agg = aggregate_of_cell cell }
         | None -> invalid_arg "Trial.replicated_rows: replicate 0 missing")
       campaign.Pte_campaign.Runner.cells)

let table1_cells ~seed =
  [|
    ("with Lease", 18.0, { Emulation.default with lease = true; e_toff = 18.0; seed });
    ( "without Lease", 18.0,
      { Emulation.default with lease = false; e_toff = 18.0; seed = seed + 1 } );
    ( "with Lease", 6.0,
      { Emulation.default with lease = true; e_toff = 6.0; seed = seed + 2 } );
    ( "without Lease", 6.0,
      { Emulation.default with lease = false; e_toff = 6.0; seed = seed + 3 } );
  |]

(** The full Table I: {with, without} lease × E(Toff) ∈ {18 s, 6 s}. *)
let table1 ?(seed = 2013) ?(reps = 1) ?workers () =
  let cells = table1_cells ~seed in
  let campaign, full =
    run_cells ?workers ~reps ~seed (Array.map (fun (_, _, c) -> c) cells)
  in
  List.map2
    (fun (mode, e_toff, _) row -> (mode, e_toff, row))
    (Array.to_list cells)
    (replicated_rows campaign full reps)

(** The X1 loss-rate sweep, as a single campaign: 2 cells (with/without
    lease) per loss rate, sharing a base seed like the serial original. *)
let loss_sweep ?(reps = 1) ?workers ?(seed = 500) ?horizon ~losses () =
  let horizon =
    Option.value horizon ~default:Emulation.default.Emulation.horizon
  in
  let cell ~lease i loss =
    {
      Emulation.default with
      lease;
      horizon;
      seed = seed + i;
      loss =
        (if loss = 0.0 then Pte_net.Loss.Perfect
         else Pte_net.Loss.wifi_interference ~average_loss:loss);
    }
  in
  let cells =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i loss -> [ cell ~lease:true i loss; cell ~lease:false i loss ])
            losses))
  in
  let campaign, full = run_cells ?workers ~reps ~seed cells in
  let rows = replicated_rows campaign full reps in
  let rec pair = function
    | with_lease :: without :: rest -> (with_lease, without) :: pair rest
    | [] -> []
    | [ _ ] -> invalid_arg "Trial.loss_sweep: odd cell count"
  in
  List.map2 (fun loss (w, n) -> (loss, w, n)) losses (pair rows)

(** The A1 and A2 availability experiments: for each average loss
    rate, one with-lease cell per transport mode, all sharing a base
    seed so the modes face the same channel realization in replicate 0.
    Returns [(loss, [(label, replicated); ...])] rows in the transport
    order given. *)
let transport_matrix ?(reps = 1) ?workers ?(seed = 900) ?horizon ~transports
    ~losses () =
  let horizon =
    Option.value horizon ~default:Emulation.default.Emulation.horizon
  in
  let cell ~transport i loss =
    {
      Emulation.default with
      lease = true;
      horizon;
      seed = seed + i;
      transport;
      loss =
        (if loss = 0.0 then Pte_net.Loss.Perfect
         else Pte_net.Loss.wifi_interference ~average_loss:loss);
    }
  in
  let cells =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i loss ->
              List.map (fun (_, transport) -> cell ~transport i loss) transports)
            losses))
  in
  let campaign, full = run_cells ?workers ~reps ~seed cells in
  let rows = replicated_rows campaign full reps in
  let width = List.length transports in
  let rec chunk = function
    | [] -> []
    | rows ->
        let hd = List.filteri (fun i _ -> i < width) rows in
        let tl = List.filteri (fun i _ -> i >= width) rows in
        if List.length hd < width then
          invalid_arg "Trial.transport_matrix: ragged cell count"
        else List.map2 (fun (label, _) row -> (label, row)) transports hd
             :: chunk tl
  in
  List.map2 (fun loss row -> (loss, row)) losses (chunk rows)

let pp_result ppf (r : result) =
  Fmt.pf ppf
    "emissions:%d failures:%d evtToStop:%d aborts:%d requests:%d \
     longest-pause:%.1fs longest-emission:%.1fs minSpO2:%.1f loss:%.0f%%"
    r.emissions r.failures r.evt_to_stop r.aborts r.requests r.longest_pause
    r.longest_emission r.min_spo2
    (100.0 *. r.effective_loss_rate)

let pp_aggregate ppf a =
  let s = Pte_campaign.Aggregate.pp_summary in
  Fmt.pf ppf
    "reps:%d failing-reps:%d emissions:%a failures:%a evtToStop:%a \
     longest-pause:%a minSpO2:%a"
    a.reps a.failure_reps s a.emissions s a.failures s a.evt_to_stop s
    a.longest_pause s a.min_spo2
