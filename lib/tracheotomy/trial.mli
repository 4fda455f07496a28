(** Trial runner: executes emulation trials and extracts the Table-I
    statistics plus the channel/SpO2 diagnostics the paper reports in
    prose. *)

type result = {
  config : Emulation.config;
  emissions : int;  (** # of laser emissions (entries into "Risky Core"). *)
  failures : int;  (** # of PTE safety-rule violation episodes. *)
  evt_to_stop : int;
      (** # of evtToStop: lease expiry forced the laser to stop. *)
  vent_lease_expiries : int;
  aborts : int;  (** supervisor abort chains started (SpO2 below Θ). *)
  requests : int;  (** surgeon requests issued. *)
  violations : Pte_core.Monitor.violation list;
  longest_pause : float;
  longest_emission : float;
  min_spo2 : float;
  messages_sent : int;
  effective_loss_rate : float;
  faults_fired : int;
      (** # of scripted packet faults that fired (0 unless the config
          carries a {!Pte_faults.Plan.t}). *)
  retransmissions : int;
      (** transport-layer retries (0 under the bare transport). *)
  gave_up : int;  (** sends lost after the full retry budget. *)
  dups_suppressed : int;
      (** replayed copies squashed at the receiver by (src, seq). *)
  degraded_entries : int;
      (** # of times the supervisor entered degraded-safe-mode. *)
  max_consec_losses : int;
      (** deepest per-sender feedback blackout — the high-water mark of
          {!Pte_net.Transport.consecutive_losses} over the trial, a
          component of the {!Certify} level function. 0 under the bare
          transport (no feedback to lose). *)
  worst_latency : float;
      (** largest observed send-to-delivery delay across delivered
          radio sends, seconds
          ({!Pte_net.Transport.stats.worst_latency}) — the measured
          counterpart of the mode's closed-form latency bound. *)
  mode_switches_up : int;
      (** adaptive transport: committed escalations healthy →
          degraded ([0] in every static mode). *)
  mode_switches_down : int;
      (** adaptive transport: committed de-escalations degraded →
          healthy. *)
  switch_refusals : int;
      (** adaptive transport: switches the safe-switch protocol
          refused after the Theorem-1 recheck rejected the candidate
          mode (the transport stayed in its current mode). *)
  schedule : Pte_sched.Schedule.t option;
      (** the concrete round schedule the transport synthesized
          ([Some _] exactly in scheduled mode; in adaptive mode, the
          degraded schedule in force at trial end — [Some _] iff the
          trial ended in the degraded tier); its
          {!Pte_sched.Schedule.worst_case_latency} is the bound
          [worst_latency] must stay under. *)
}

val run : Emulation.config -> result

(** {2 Replicated trials (campaign-backed)}

    Statistics over [reps] independently-seeded replicates of each trial
    configuration, executed as a {!Pte_campaign} Monte-Carlo campaign:
    domain-parallel, deterministic for a given master seed at any worker
    count. Replicate 0 of every cell keeps the cell's literal
    [Emulation.config.seed], so [reps = 1] reproduces the historical
    fixed-seed numbers exactly; replicates 1.. draw their seeds from the
    job's split-derived stream. *)

(** Per-metric summaries (mean, stddev, 95% CI, min/max) over the
    replicates of one trial configuration. *)
type aggregate = {
  reps : int;  (** replicates that completed. *)
  failed_jobs : int;  (** replicates that crashed (exhausted retries). *)
  failure_reps : int;  (** replicates with >= 1 PTE violation episode. *)
  failure_rate : Pte_campaign.Aggregate.summary;
      (** the 0/1 "failed" indicator summary; its [wilson] interval is
          the honest CI on the violation rate (non-degenerate at 0
          failing replicates, unlike the normal-approximation ci95). *)
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

(** One campaign cell: the historical fixed-seed run plus the aggregate
    over all replicates ([agg.reps = 1] collapses to [rep0]). *)
type replicated = { rep0 : result; agg : aggregate }

val metrics_of_result : result -> (string * float) list
(** The metric row a trial contributes to campaign aggregation (also the
    JSONL checkpoint payload). *)

val aggregate_of_cell : Pte_campaign.Aggregate.cell -> aggregate

val run_cells :
  ?workers:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?retries:int ->
  reps:int ->
  seed:int ->
  Emulation.config array ->
  Emulation.config Pte_campaign.Runner.result * result option array
(** Low-level entry: run an arbitrary grid of trial configurations as a
    campaign. The returned array holds the full {!result} of every job
    executed in this process ([None] for jobs skipped via [resume]). *)

val table1_cells : seed:int -> (string * float * Emulation.config) array
(** The four Table-I cells [(mode, E(Toff), config)] with their
    historical seeds [seed .. seed+3] — the grid behind {!table1}, for
    front-ends that drive {!run_cells} themselves (e.g. with
    checkpointing). *)

val table1 :
  ?seed:int -> ?reps:int -> ?workers:int -> unit ->
  (string * float * replicated) list
(** The full Table I: {with, without} lease × E(Toff) ∈ {18 s, 6 s},
    run as one campaign of [4 * reps] jobs. *)

val loss_sweep :
  ?reps:int -> ?workers:int -> ?seed:int -> ?horizon:float ->
  losses:float list -> unit ->
  (float * replicated * replicated) list
(** The X1 extension experiment: for each average loss rate, a
    with-lease and a without-lease cell (sharing a base seed, as the
    original serial sweep did). Returns [(loss, with, without)] rows. *)

val transport_matrix :
  ?reps:int -> ?workers:int -> ?seed:int -> ?horizon:float ->
  transports:(string * Pte_net.Transport.mode) list ->
  losses:float list -> unit ->
  (float * (string * replicated) list) list
(** The A1 and A2 availability experiments: per loss rate, one
    with-lease cell per labelled transport mode, all sharing a base
    seed (the modes face the same channel realization in replicate 0).
    Rows keep the transport order given. *)

val pp_result : result Fmt.t

val pp_aggregate : aggregate Fmt.t
(** Mean ±CI of the headline metrics, for CLI replicate summaries. *)
