(** Per-endpoint transport over the star links. One mutable carrier
    decides how each radio send goes: a bare single shot, an ARQ
    exchange (bounded exponential backoff, ACKs on the reverse link) or
    blind copies in a synthesized slot schedule; ARQ and slotted sends
    share one exchange record and one receive/resolve path on the
    executor's timeline, and every send has (src, seq) duplicate
    suppression. The adaptive mode only swaps the carrier — see the
    interface. *)

module Executor = Pte_hybrid.Executor

type config = {
  max_retries : int;
  base_rto : float;
  multiplier : float;
  cap : float;
  jitter : float;
}

let default_config =
  { max_retries = 3; base_rto = 0.25; multiplier = 2.0; cap = 2.0;
    jitter = 0.05 }

(* Float checks are written [not (x >= bound)] so that NaN fails them. *)
let validate c =
  if c.max_retries < 0 then Error "transport: max_retries must be >= 0"
  else if not (c.base_rto > 0.0) then Error "transport: base_rto must be > 0"
  else if not (c.multiplier >= 1.0) then
    Error "transport: multiplier must be >= 1"
  else if not (c.cap >= c.base_rto) then
    Error "transport: cap must be >= base_rto"
  else if not (c.jitter >= 0.0) then Error "transport: jitter must be >= 0"
  else Ok ()

(** Configuration of the [`Adaptive] mode: which static mode carries
    traffic while the channel is healthy, the synthesis template for
    the degraded [`Scheduled] mode (its [loss] is replaced by the
    estimate at escalation time), and the estimator / escalation-policy
    knobs. [budget] is the stand-alone admission bound used when no
    {!set_admit} callback is installed. *)
type adaptive_config = {
  healthy : [ `Bare | `Reliable of config ];
  degraded : Pte_sched.Synth.policy;
  estimator : Pte_adapt.Estimator.config;
  policy : Pte_adapt.Policy.config;
  budget : float option;
}

type mode =
  [ `Bare
  | `Reliable of config
  | `Scheduled of Pte_sched.Synth.policy
  | `Adaptive of adaptive_config ]

let default_adaptive =
  {
    (* ARQ while healthy: indistinguishable from bare on a clean
       channel, but a de-escalation under a mis-estimated recovery
       lands on retransmissions instead of single-shot sends *)
    healthy = `Reliable default_config;
    degraded = Pte_sched.Synth.default_policy;
    estimator = Pte_adapt.Estimator.default_config;
    policy = Pte_adapt.Policy.default_config;
    budget = None;
  }

let validate_adaptive a =
  let ( let* ) = Result.bind in
  let* () =
    match a.healthy with `Bare -> Ok () | `Reliable cfg -> validate cfg
  in
  let* () =
    match a.budget with
    | Some b when not (b >= 0.0) -> Error "transport: budget must be >= 0"
    | Some _ | None -> Ok ()
  in
  let* () = Pte_adapt.Estimator.validate a.estimator in
  Pte_adapt.Policy.validate a.policy

let rto c ~attempt =
  Float.min (c.base_rto *. (c.multiplier ** Float.of_int attempt)) c.cap

let max_attempts c = c.max_retries + 1

let worst_case_latency c ~frame_delay =
  let rec backoffs k acc =
    if k >= c.max_retries then acc
    else backoffs (k + 1) (acc +. rto c ~attempt:k +. c.jitter)
  in
  backoffs 0 0.0 +. frame_delay

type stats = {
  mutable data_sends : int;
  mutable delivered : int;
  mutable gave_up : int;
  mutable retransmissions : int;
  mutable acks_sent : int;
  mutable acks_lost : int;
  mutable dups_suppressed : int;
  mutable worst_latency : float;
  mutable max_consec_losses : int;
  mutable switches_up : int;
  mutable switches_down : int;
  mutable switch_refusals : int;
}

type event =
  | Exchange_delivered of {
      src : string;
      dst : string;
      seq : int;
      sent_at : float;
      arrival : float;
    }
  | Exchange_confirmed of { src : string; dst : string; seq : int; at : float }
  | Exchange_gave_up of { src : string; dst : string; seq : int; at : float }


(* The carrier: how the next radio send goes. Static modes fix it at
   {!create}; the [`Adaptive] safe-switch protocol swaps it between the
   healthy carrier ([Bare] or [Arq]) and a synthesized [Slots] schedule,
   so [Slots] in an adaptive transport is the degraded tier. [index] is
   the hashed (src, dst) -> entry view of [sched]: the per-send
   [Schedule.find] list walk is O(links), thousands of entries on a
   1000-entity star. *)
type carrier =
  | Bare
  | Arq of config
  | Slots of { sched : Pte_sched.Schedule.t; index : Pte_sched.Schedule.index }

let slots sched = Slots { sched; index = Pte_sched.Schedule.index sched }

(* The carrier's closed-form bound on the delivery delay of a send. *)
let carrier_bound star = function
  | Bare -> Star.worst_frame_delay star
  | Arq cfg -> worst_case_latency cfg ~frame_delay:(Star.worst_frame_delay star)
  | Slots { sched; _ } -> Pte_sched.Schedule.worst_case_latency sched

(* Receiver-side dedup keeps a cumulative high-water mark plus a small
   window for copies that overtake each other: memory is
   O(flows + window), not O(sends). *)
let dedup_window = 64

type route = Wired | No_route | Radio of Link.t

(* Everything the transport keeps per (src, dst) pair, found with one
   lookup per send: the route through the star, the receiver's dedup
   state, the exchange sequence counter and the slot reservations.
   Sequence numbers are allocated monotonically per flow (link frames
   under the [Bare] carrier, exchange numbers otherwise). Under [Slots],
   [next_free] is the end of the last admitted send's blind-copy span
   (admission never books a slot before it) and [booked] counts
   admitted sends whose span has not yet passed — the admission bound
   that keeps {!Pte_sched.Schedule.link_worst_case_latency}
   closed-form. *)
type flow = {
  route : route;
  mutable high : int;  (* every seq <= high counts as already seen *)
  mutable recent : int list;  (* seen seqs above the high-water mark *)
  mutable next_seq : int;
  mutable next_free : float;
  mutable booked : int;
}

(* Runtime state of the `Adaptive mode's safe-switch protocol. A
   pending carrier means a switch has been admitted (Theorem-1 recheck
   passed) and is quiescing — waiting for in-flight exchanges of the
   outgoing carrier to drain, bounded by a time-out timer at the
   outgoing carrier's own worst-case latency. The pooled estimator
   drives the decisions: the star shares one interference environment,
   so outcomes from every sender inform the switch. *)
type adapt = {
  a_cfg : adaptive_config;
  a_pool : Pte_adapt.Estimator.t;
  a_healthy : carrier;
  mutable a_switched_at : float;
  mutable a_samples_since : int;  (* outcomes since the last switch *)
  mutable a_pending : carrier option;  (* admitted, quiescing *)
  mutable a_pending_token : Executor.token option;
  mutable a_admit : (candidate_latency:float -> bool) option;
}

type t = {
  star : Star.t;
  mode : mode;
  rng : Pte_util.Rng.t;
  stats : stats;
  flows : (string * string, flow) Hashtbl.t;
  (* per-sender consecutive unconfirmed sends, for degraded-safe-mode. *)
  consec : (string, int ref) Hashtbl.t;
  mutable carrier : carrier;
  (* the executor whose timeline carries this transport's timers and
     arrivals ([Arq] and [Slots] carriers); set by {!attach}. *)
  mutable exec : Executor.t option;
  mutable observer : (event -> unit) option;
  (* `Adaptive mode runtime state ([Some _] exactly in that mode). *)
  adapt : adapt option;
  (* exchanges admitted but not yet resolved (ARQ exchanges and slotted
     blind spans) — the quiesce condition of the safe-switch protocol. *)
  mutable inflight_exchanges : int;
}

let create ~mode ~rng star =
  let check = function Ok () -> () | Error msg -> invalid_arg msg in
  let carrier, adapt =
    match mode with
    | `Bare -> (Bare, None)
    | `Reliable cfg ->
        check (validate cfg);
        (Arq cfg, None)
    | `Scheduled policy -> (
        match
          Pte_sched.Synth.synthesize policy ~links:(Star.schedule_links star)
        with
        | Ok sched -> (slots sched, None)
        | Error e -> invalid_arg (Pte_sched.Synth.error_to_string e))
    | `Adaptive a ->
        check (validate_adaptive a);
        let healthy =
          match a.healthy with `Bare -> Bare | `Reliable cfg -> Arq cfg
        in
        ( healthy,
          Some
            {
              a_cfg = a;
              a_pool = Pte_adapt.Estimator.create a.estimator;
              a_healthy = healthy;
              a_switched_at = 0.0;
              a_samples_since = 0;
              a_pending = None;
              a_pending_token = None;
              a_admit = None;
            } )
  in
  {
    star;
    mode;
    rng;
    stats =
      { data_sends = 0; delivered = 0; gave_up = 0; retransmissions = 0;
        acks_sent = 0; acks_lost = 0; dups_suppressed = 0;
        worst_latency = 0.0; max_consec_losses = 0; switches_up = 0;
        switches_down = 0; switch_refusals = 0 };
    flows = Hashtbl.create 8;
    consec = Hashtbl.create 8;
    carrier;
    exec = None;
    observer = None;
    adapt;
    inflight_exchanges = 0;
  }

let attach t exec = t.exec <- Some exec
let set_observer t f = t.observer <- Some f
let observe t ev = match t.observer with Some f -> f ev | None -> ()

let mode t = t.mode
let stats t = t.stats
let latency_bound t = carrier_bound t.star t.carrier

let schedule t =
  match t.carrier with Slots { sched; _ } -> Some sched | Bare | Arq _ -> None

let record_latency t d =
  if d > t.stats.worst_latency then t.stats.worst_latency <- d

let counter t sender =
  match Hashtbl.find_opt t.consec sender with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.consec sender r;
      r

let consecutive_losses t ~sender = !(counter t sender)

let loss_count t ~sender =
  let r = counter t sender in
  fun () -> !r
let reset_consecutive_losses t ~sender = counter t sender := 0

(* High-water mark of the per-sender consecutive-loss counters: the
   deepest feedback blackout any sender saw in the trial — the
   certification level function's loss component. *)
let bump t sender =
  let c = counter t sender in
  incr c;
  if !c > t.stats.max_consec_losses then t.stats.max_consec_losses <- !c

(* ------------------------------------------------------------------ *)
(* `Adaptive mode: estimation, escalation and the safe-switch protocol *)
(* ------------------------------------------------------------------ *)

let set_admit t f =
  match t.adapt with
  | Some a -> a.a_admit <- Some f
  | None -> ()

(* Theorem-1 admission of a candidate carrier. The emulation layer
   injects the real c1–c7 recheck ({!set_admit}); stand-alone, the
   configured budget is the bound; with neither, every candidate is
   admitted (the static create-time story then applies unchanged). *)
let adapt_admit a ~candidate_latency =
  match a.a_admit with
  | Some f -> f ~candidate_latency
  | None -> (
      match a.a_cfg.budget with
      | Some budget -> candidate_latency <= budget
      | None -> true)

let adapt_commit t a target ~at =
  (match a.a_pending_token with
  | Some token -> (
      match t.exec with
      | Some exec -> Executor.cancel exec token
      | None -> ())
  | None -> ());
  a.a_pending <- None;
  a.a_pending_token <- None;
  t.carrier <- target;
  (match target with
  | Slots _ -> t.stats.switches_up <- t.stats.switches_up + 1
  | Bare | Arq _ -> t.stats.switches_down <- t.stats.switches_down + 1);
  a.a_switched_at <- at;
  a.a_samples_since <- 0

(* A switch was admitted: commit at once if no exchange of the
   outgoing carrier is in flight, otherwise quiesce — commit when the
   last in-flight exchange resolves, or at the outgoing carrier's
   worst-case latency if some exchange outlives its own bound (it
   cannot, but the time-out keeps the protocol live regardless). A
   drained [Slots] exit is automatically round-aligned: the last blind
   span ends at a slot boundary plus the resolution margin. *)
let adapt_start_switch t a target ~at =
  if t.inflight_exchanges = 0 then adapt_commit t a target ~at
  else begin
    a.a_pending <- Some target;
    match t.exec with
    | None -> adapt_commit t a target ~at
    | Some exec ->
        let deadline = at +. latency_bound t in
        let token =
          Executor.schedule exec ~owner:"<adaptive-switch>" ~at:deadline
            (fun _exec ->
              a.a_pending_token <- None;
              match a.a_pending with
              | Some target -> adapt_commit t a target ~at:deadline
              | None -> ())
        in
        a.a_pending_token <- Some token
  end

let adapt_refuse t a ~at =
  t.stats.switch_refusals <- t.stats.switch_refusals + 1;
  (* a refused switch re-arms the dwell clock: the next attempt waits
     another [min_dwell], so a persistently inadmissible candidate is
     retried at a bounded rate rather than on every outcome *)
  a.a_switched_at <- at

let adapt_evaluate t a ~now =
  if Option.is_none a.a_pending then
    let estimate = Pte_adapt.Estimator.loss_estimate a.a_pool in
    let tier =
      match t.carrier with
      | Slots _ -> Pte_adapt.Policy.Degraded
      | Bare | Arq _ -> Pte_adapt.Policy.Healthy
    in
    let decision =
      Pte_adapt.Policy.decide a.a_cfg.policy ~tier ~estimate
        ~samples:a.a_samples_since ~since_switch:(now -. a.a_switched_at)
        ~in_burst:(Pte_adapt.Estimator.in_burst a.a_pool)
    in
    match decision with
    | Pte_adapt.Policy.Stay -> ()
    | Pte_adapt.Policy.Deescalate ->
        if
          adapt_admit a
            ~candidate_latency:(carrier_bound t.star a.a_healthy)
        then adapt_start_switch t a a.a_healthy ~at:now
        else adapt_refuse t a ~at:now
    | Pte_adapt.Policy.Escalate -> (
        (* re-synthesize the round schedule for the loss the channel is
           actually showing (capped below 1 so the retry count stays
           finite); refuse — and stay on the current, still-admitted
           carrier — if the synthesis or the Theorem-1 recheck rejects *)
        let policy =
          { a.a_cfg.degraded with
            Pte_sched.Synth.loss = Float.min estimate 0.95 }
        in
        match
          Pte_sched.Synth.synthesize policy
            ~links:(Star.schedule_links t.star)
        with
        | Error _ -> adapt_refuse t a ~at:now
        | Ok sched ->
            let wcl = Pte_sched.Schedule.worst_case_latency sched in
            if adapt_admit a ~candidate_latency:wcl then
              adapt_start_switch t a (slots sched) ~at:now
            else adapt_refuse t a ~at:now)

(* Feed the pooled estimator one sample at the instant its outcome
   becomes known to the sender. Samples are per *attempt*, not per
   exchange: an ARQ exchange that needed three tries records two losses
   and a success, and a blind span records every copy's fate — so the
   estimate tracks the channel itself, independent of how much
   redundancy the current carrier layers on top. (Exchange-level
   feeding would see only the residual failure rate: ~2 % under ARQ on
   a 60 % channel, masking the loss the degraded schedule must be
   synthesized for — and, mirrored, slots whose spans almost always
   deliver would decay the estimate and de-escalate prematurely.) *)
let adapt_outcome t ~confirmed ~at =
  match t.adapt with
  | None -> ()
  | Some a ->
      Pte_adapt.Estimator.record a.a_pool ~confirmed ~at;
      a.a_samples_since <- a.a_samples_since + 1;
      adapt_evaluate t a ~now:at

(* An exchange resolved: the quiesce condition of a pending switch may
   just have been reached. *)
let exchange_resolved t ~at =
  t.inflight_exchanges <- t.inflight_exchanges - 1;
  match t.adapt with
  | Some a when t.inflight_exchanges = 0 -> (
      match a.a_pending with
      | Some target -> adapt_commit t a target ~at
      | None -> ())
  | _ -> ()

(* A send's outcome became known to [sender]: the consecutive-loss
   counter moves, and with [sample] the outcome is also a channel
   observation for the estimator. Admission rejections are no channel
   observation, and a slotted span's copies were already sampled one by
   one: the degraded-safe-mode watchdog stays at exchange granularity
   either way — k consecutive *exchanges* lost, not k attempts. *)
let outcome t sender ~confirmed ~sample ~at =
  if confirmed then counter t sender := 0 else bump t sender;
  if sample then adapt_outcome t ~confirmed ~at

(* The flow of (src, dst), created — with its route through the star —
   on the first send. *)
let flow t ~sender ~receiver =
  let key = (sender, receiver) in
  match Hashtbl.find_opt t.flows key with
  | Some f -> f
  | None ->
      let route =
        if not (Star.is_node t.star sender && Star.is_node t.star receiver)
        then Wired
        else
          match Star.link_for t.star ~sender ~receiver with
          | None -> No_route
          | Some link -> Radio link
      in
      let f =
        { route; high = -1; recent = []; next_seq = 0; next_free = 0.0;
          booked = 0 }
      in
      Hashtbl.add t.flows key f;
      f

(* First sighting of [seq] at the flow's receiver? Records it. A seq at
   or below the high-water mark is a replay by construction; above it,
   [recent] disambiguates copies that arrive out of order (overlapping
   exchanges). Seqs falling more than [dedup_window] behind the newest
   are conservatively treated as replays, which bounds the window:
   in-flight exchanges per flow never approach that span. *)
let fresh fs ~seq =
  if seq <= fs.high || List.mem seq fs.recent then false
  else begin
    fs.recent <- seq :: fs.recent;
    if seq > fs.high + dedup_window then fs.high <- seq - dedup_window;
    let rec absorb () =
      if List.mem (fs.high + 1) fs.recent then begin
        fs.high <- fs.high + 1;
        absorb ()
      end
    in
    absorb ();
    fs.recent <- List.filter (fun s -> s > fs.high) fs.recent;
    true
  end

(* ------------------------------------------------------------------ *)
(* [Bare]: one attempt per send, no ACKs, no RNG draws, plus the
   (src, seq) replay filter on injected duplicates.                    *)
(* ------------------------------------------------------------------ *)

let bare_send t fs link ~time ~sender ~receiver ~root =
  t.stats.data_sends <- t.stats.data_sends + 1;
  match Link.send link ~time ~src:sender ~dst:receiver ~root with
  | Link.Drop _ ->
      outcome t sender ~confirmed:false ~sample:true ~at:time;
      t.stats.gave_up <- t.stats.gave_up + 1;
      Executor.Lose
  | ( Link.Deliver { arrival; packet }
    | Link.Deliver_dup { arrivals = arrival, _; packet } ) as verdict ->
      (* an injected duplicate carries the same (src, seq): its replayed
         copy is suppressed *)
      let copies = match verdict with Link.Deliver_dup _ -> 2 | _ -> 1 in
      outcome t sender ~confirmed:true ~sample:true ~at:time;
      if fresh fs ~seq:packet.Packet.seq then begin
        t.stats.delivered <- t.stats.delivered + 1;
        t.stats.dups_suppressed <- t.stats.dups_suppressed + copies - 1;
        record_latency t (arrival -. time);
        Executor.Deliver (arrival -. time)
      end
      else begin
        (* cannot happen with per-link sequence numbers, but keep the
           filter total: a send whose only copy is suppressed is a lost
           send, not a delivered one *)
        t.stats.dups_suppressed <- t.stats.dups_suppressed + copies;
        t.stats.gave_up <- t.stats.gave_up + 1;
        Executor.Lose
      end

(* ------------------------------------------------------------------ *)
(* [Arq] and [Slots]: event-driven exchanges                           *)
(* ------------------------------------------------------------------ *)

let ack_root root = "ack:" ^ root

(* The ARQ side of an exchange: a small state machine driven by
   executor timers. Every attempt arms the next retransmission (or,
   after the last attempt, the give-up timeout); an arriving ACK cancels
   the armed timer and resolves the exchange. *)
type arq = {
  arq_cfg : config;
  arq_ack : Link.t option;  (* the reverse link the ACKs ride *)
  (* private jitter stream, keyed by (flow, seq): the backoff schedule
     of an exchange is a function of the seed and its identity alone,
     independent of how exchanges interleave on the timeline. *)
  arq_rng : Pte_util.Rng.t;
  mutable arq_timer : Executor.token option;
  mutable arq_in_flight : int;  (* data copies in the air *)
}

(* One in-progress exchange: an ARQ exchange, or an admitted slotted
   send. Both run on executor timers and share the receive and
   resolution paths below. *)
type exchange = {
  ex_flow : flow;
  ex_link : Link.t;
  ex_src : string;
  ex_dst : string;
  ex_root : string;
  ex_seq : int;
  ex_sent_at : float;
  mutable ex_arrived : bool;  (* a fresh copy reached the automaton *)
  mutable ex_resolved : bool;  (* sender side: confirmed or gave up *)
  ex_arq : arq option;
      (* [None]: a slotted send — blind copies in consecutive rounds, no
         feedback, resolved by its own span timer *)
}

let require_exec t =
  match t.exec with
  | Some exec -> exec
  | None ->
      invalid_arg
        "Transport.router: `Reliable and `Scheduled modes need \
         Transport.attach before the first radio send"

let next_seq fs =
  let seq = fs.next_seq in
  fs.next_seq <- seq + 1;
  seq

let open_exchange t fs link ~time ~sender ~receiver ~root ~seq arq =
  t.stats.data_sends <- t.stats.data_sends + 1;
  t.inflight_exchanges <- t.inflight_exchanges + 1;
  {
    ex_flow = fs;
    ex_link = link;
    ex_src = sender;
    ex_dst = receiver;
    ex_root = root;
    ex_seq = seq;
    ex_sent_at = time;
    ex_arrived = false;
    ex_resolved = false;
    ex_arq = arq;
  }

(* The sender learns how the exchange ended — at the instant it becomes
   known: an ACK arrived, the ARQ retry budget ran out, or a slotted
   span is over (there is no feedback channel, so "confirmed" is the
   oracle view the simulation affords: a copy reached the receiver).
   Confirmation stands down a pending retransmission, revoking it
   before the channel ever sees the frame. A give-up is a feedback
   loss; the send itself is lost only if no copy reached (or, under
   ARQ, is still flying toward) the receiver. *)
let settle t ex exec ~at ~confirmed =
  if not ex.ex_resolved then begin
    ex.ex_resolved <- true;
    (match ex.ex_arq with
    | Some ({ arq_timer = Some token; _ } as a) ->
        Executor.cancel exec token;
        a.arq_timer <- None
    | Some { arq_timer = None; _ } | None -> ());
    exchange_resolved t ~at;
    outcome t ex.ex_src ~confirmed ~sample:(Option.is_some ex.ex_arq) ~at;
    if confirmed then
      observe t
        (Exchange_confirmed
           { src = ex.ex_src; dst = ex.ex_dst; seq = ex.ex_seq; at })
    else begin
      let in_flight =
        match ex.ex_arq with Some a -> a.arq_in_flight | None -> 0
      in
      if (not ex.ex_arrived) && in_flight = 0 then begin
        t.stats.gave_up <- t.stats.gave_up + 1;
        Executor.lose_now exec ~receiver:ex.ex_dst ~root:ex.ex_root
      end;
      observe t
        (Exchange_gave_up
           { src = ex.ex_src; dst = ex.ex_dst; seq = ex.ex_seq; at })
    end
  end

(* A data copy reaches the receiver: dedup by the exchange seq, and hand
   the first fresh copy to the automaton. Under ARQ, every copy is
   acknowledged on the reverse link (the previous ACK may be the one
   that got lost). *)
let receive t ex exec ~arrival =
  Option.iter (fun a -> a.arq_in_flight <- a.arq_in_flight - 1) ex.ex_arq;
  if fresh ex.ex_flow ~seq:ex.ex_seq then begin
    ex.ex_arrived <- true;
    t.stats.delivered <- t.stats.delivered + 1;
    record_latency t (arrival -. ex.ex_sent_at);
    ignore (Executor.deliver_now exec ~receiver:ex.ex_dst ~root:ex.ex_root);
    observe t
      (Exchange_delivered
         { src = ex.ex_src; dst = ex.ex_dst; seq = ex.ex_seq;
           sent_at = ex.ex_sent_at; arrival })
  end
  else t.stats.dups_suppressed <- t.stats.dups_suppressed + 1;
  match ex.ex_arq with
  | None -> ()
  | Some a -> (
      t.stats.acks_sent <- t.stats.acks_sent + 1;
      match a.arq_ack with
      | None ->
          (* no radio reverse path: treat the ACK as wired *)
          settle t ex exec ~at:arrival ~confirmed:true
      | Some back -> (
          match
            Link.send back ~time:arrival ~src:ex.ex_dst ~dst:ex.ex_src
              ~root:(ack_root ex.ex_root)
          with
          | Link.Drop _ -> t.stats.acks_lost <- t.stats.acks_lost + 1
          | Link.Deliver { arrival = ack_at; packet = _ }
          | Link.Deliver_dup { arrivals = ack_at, _; packet = _ } ->
              ignore
                (Executor.schedule exec ~owner:ex.ex_src ~at:ack_at
                   (fun exec -> settle t ex exec ~at:ack_at ~confirmed:true))))

let land_copy t ex exec ~arrival =
  Option.iter (fun a -> a.arq_in_flight <- a.arq_in_flight + 1) ex.ex_arq;
  ignore
    (Executor.schedule exec ~owner:ex.ex_dst ~at:arrival (fun exec ->
         receive t ex exec ~arrival))

(* One copy of the exchange hits the channel. Each slotted copy's fate
   is one estimator sample at the send (the oracle view, as under the
   [Bare] carrier), so the estimate keeps tracking the channel while
   the span-level residual failure rate sits near zero; ARQ samples
   when an attempt's timer expires unacknowledged. An injected
   duplicate flies as two copies; the replay is squashed at the
   receiver by (src, seq). *)
let transmit t ex exec ~at ~attempt =
  if attempt > 0 then t.stats.retransmissions <- t.stats.retransmissions + 1;
  let verdict =
    Link.send ex.ex_link ~time:at ~src:ex.ex_src ~dst:ex.ex_dst
      ~root:ex.ex_root
  in
  if Option.is_none ex.ex_arq then
    adapt_outcome t
      ~confirmed:(match verdict with Link.Drop _ -> false | _ -> true)
      ~at;
  match verdict with
  | Link.Drop _ -> ()
  | Link.Deliver { arrival; packet = _ } -> land_copy t ex exec ~arrival
  | Link.Deliver_dup { arrivals = a1, a2; packet = _ } ->
      land_copy t ex exec ~arrival:a1;
      land_copy t ex exec ~arrival:a2

(* An ARQ attempt, then the timer that drives the rest of the exchange:
   the next retransmission, or — after the final attempt — the give-up
   timeout. Nominal times accumulate [at +. wait] so the schedule (and
   hence {!worst_case_latency}) is independent of the step quantization
   at which timers actually fire. *)
let rec send_attempt t ex a exec ~at ~attempt =
  transmit t ex exec ~at ~attempt;
  let wait =
    rto a.arq_cfg ~attempt
    +. Pte_util.Rng.uniform a.arq_rng ~lo:0.0 ~hi:a.arq_cfg.jitter
  in
  let due = at +. wait in
  let token =
    Executor.schedule exec ~owner:ex.ex_src ~at:due (fun exec ->
        a.arq_timer <- None;
        if not ex.ex_resolved then
          if attempt < a.arq_cfg.max_retries then begin
            (* this timer firing means the attempt went unacknowledged:
               a per-attempt loss sample for the channel estimator (the
               exchange itself is still live, so the watchdog counter
               does not move) *)
            adapt_outcome t ~confirmed:false ~at:due;
            send_attempt t ex a exec ~at:due ~attempt:(attempt + 1)
          end
          else settle t ex exec ~at:due ~confirmed:false)
  in
  a.arq_timer <- Some token

let arq_send t cfg fs link ~time ~sender ~receiver ~root =
  let exec = require_exec t in
  let seq = next_seq fs in
  let a =
    {
      arq_cfg = cfg;
      arq_ack = Star.link_for t.star ~sender:receiver ~receiver:sender;
      arq_rng =
        Pte_util.Rng.keyed t.rng
          ~key:(Int64.of_int (Hashtbl.hash (sender, receiver, seq)));
      arq_timer = None;
      arq_in_flight = 0;
    }
  in
  let ex =
    open_exchange t fs link ~time ~sender ~receiver ~root ~seq (Some a)
  in
  send_attempt t ex a exec ~at:time ~attempt:0;
  Executor.Deferred

module Schedule = Pte_sched.Schedule

(* One time-triggered send (TTW-style). All timers are armed up front
   at admission: the [1 + retries] blind copies hit the channel at the
   link's slot start in consecutive rounds (no ACKs, no cancellation —
   the channel decides per copy), and one resolution timer fires
   strictly after the last copy can land ([2 *. slot_len] past the last
   slot start; arrivals stay within one [slot_len] of their slot start
   because synthesis forces [slot_len >= worst frame delay]).

   Admission control makes the latency bound closed-form: the flow
   keeps [next_free], the end of the last reservation's span, and books
   each new send at the first slot after [max time next_free]; at most
   [depth] sends may hold reservations at once, later ones are rejected
   at admission and counted as lost (the protocol layer above already
   tolerates message loss). By induction over the reservation chain a
   send admitted at [time] with [j < depth] reservations pending has
   [next_free' <= time + (j + 1) * ((retries + 1) * period + slot_len)],
   and its last copy lands by [next_free'] — which is exactly
   {!Schedule.link_worst_case_latency} at [j = depth - 1]. *)
let slotted_send t sched index fs link ~time ~sender ~receiver ~root =
  let exec = require_exec t in
  match Schedule.find_indexed index ~src:sender ~dst:receiver with
  | Some entry when fs.booked < sched.Schedule.depth ->
      fs.booked <- fs.booked + 1;
      let ex =
        open_exchange t fs link ~time ~sender ~receiver ~root
          ~seq:(next_seq fs) None
      in
      let period = Schedule.period sched in
      let first =
        Schedule.slot_start sched entry ~after:(Float.max time fs.next_free)
      in
      let span = Float.of_int entry.Schedule.retries *. period in
      fs.next_free <- first +. span +. sched.Schedule.slot_len;
      for copy = 0 to entry.Schedule.retries do
        let at = first +. (Float.of_int copy *. period) in
        ignore
          (Executor.schedule exec ~owner:sender ~at (fun exec ->
               transmit t ex exec ~at ~attempt:copy))
      done;
      let resolve_at = first +. span +. (2.0 *. sched.Schedule.slot_len) in
      ignore
        (Executor.schedule exec ~owner:sender ~at:resolve_at (fun exec ->
             fs.booked <- fs.booked - 1;
             settle t ex exec ~at:resolve_at ~confirmed:ex.ex_arrived));
      Executor.Deferred
  | Some _ | None ->
      (* the admission bound is hit — rejecting now is what keeps the
         latency bound sound for the sends already holding reservations
         — or the link is unscheduled (every star link is scheduled at
         synthesis, so only a topology grown after creation): a plain
         loss, and no estimator sample, since neither says anything
         about the channel *)
      t.stats.data_sends <- t.stats.data_sends + 1;
      bump t sender;
      t.stats.gave_up <- t.stats.gave_up + 1;
      Executor.Lose

(* ------------------------------------------------------------------ *)
(* The executor hook                                                   *)
(* ------------------------------------------------------------------ *)

let router t : Executor.router =
 fun ~time ~sender ~root ~receiver ->
  let fs = flow t ~sender ~receiver in
  match fs.route with
  | Wired -> Executor.Deliver 0.0
  | No_route ->
      t.star.Star.remote_to_remote_dropped <-
        t.star.Star.remote_to_remote_dropped + 1;
      Executor.Lose
  | Radio link -> (
      match t.carrier with
      | Bare -> bare_send t fs link ~time ~sender ~receiver ~root
      | Arq cfg -> arq_send t cfg fs link ~time ~sender ~receiver ~root
      | Slots { sched; index } ->
          slotted_send t sched index fs link ~time ~sender ~receiver ~root)

(* ------------------------------------------------------------------ *)
(* CLI spec parsing                                                    *)
(* ------------------------------------------------------------------ *)

(* One key=value parser for every mode's spec string. [keys] is the
   mode's key table, in the order the unknown-key error lists them; a
   value is a number, an integer or a word its setter parses itself. *)
type 'a key =
  | Num of ('a -> float -> 'a)
  | Int of ('a -> int -> 'a)
  | Word of ('a -> string -> ('a, string) result)

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let parse_spec keys init spec =
  let field acc kv =
    match String.index_opt kv '=' with
    | None -> fail "transport: expected key=value, got %S" kv
    | Some i -> (
        let k = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        match List.assoc_opt k keys with
        | Some (Num set) -> (
            match float_of_string_opt v with
            | Some f -> Ok (set acc f)
            | None -> fail "transport: %s expects a number, got %S" k v)
        | Some (Int set) -> (
            match int_of_string_opt v with
            | Some n -> Ok (set acc n)
            | None -> fail "transport: %s expects an integer, got %S" k v)
        | Some (Word set) -> set acc v
        | None ->
            fail "transport: unknown key %S (expected %s)" k
              (String.concat "|" (List.map fst keys)))
  in
  let rec go acc = function
    | [] -> Ok acc
    | kv :: rest -> Result.bind (field acc kv) (fun acc -> go acc rest)
  in
  go init (String.split_on_char ',' spec)

let reliable_keys =
  [ ("retries", Int (fun c n -> { c with max_retries = n }));
    ("rto", Num (fun c f -> { c with base_rto = f }));
    ("multiplier", Num (fun c f -> { c with multiplier = f }));
    ("cap", Num (fun c f -> { c with cap = f }));
    ("jitter", Num (fun c f -> { c with jitter = f })) ]

let scheduled_keys =
  let open Pte_sched.Synth in
  [ ("slot", Num (fun p f -> { p with slot_len = Some f }));
    ("retries", Int (fun p n -> { p with retries = Some n }));
    ("loss", Num (fun p f -> { p with loss = f }));
    ("confidence", Num (fun p f -> { p with confidence = f }));
    ("depth", Int (fun p n -> { p with depth = n }));
    ("budget", Num (fun p f -> { p with budget = Some f })) ]

let adaptive_keys =
  let policy a f = { a with policy = f a.policy } in
  let estimator a f = { a with estimator = f a.estimator } in
  let open Pte_adapt in
  [ ( "healthy",
      Word
        (fun a -> function
          | "bare" -> Ok { a with healthy = `Bare }
          | "reliable" -> Ok { a with healthy = `Reliable default_config }
          | v -> fail "transport: healthy expects bare or reliable, got %S" v)
    );
    ( "degrade",
      Num (fun a f -> policy a (fun p -> { p with Policy.degrade_above = f })) );
    ( "recover",
      Num (fun a f -> policy a (fun p -> { p with Policy.recover_below = f })) );
    ("dwell", Num (fun a f -> policy a (fun p -> { p with Policy.min_dwell = f })));
    ( "samples",
      Int (fun a n -> policy a (fun p -> { p with Policy.min_samples = n })) );
    ( "window",
      Int (fun a n -> estimator a (fun e -> { e with Estimator.window = n })) );
    ( "burst",
      Int (fun a n -> estimator a (fun e -> { e with Estimator.burst_k = n })) );
    ("budget", Num (fun a f -> { a with budget = Some f })) ]

let mode_of_string s =
  let ( let* ) = Result.bind in
  let unknown name =
    fail
      "unknown transport %S (expected bare, reliable[:k=v,...], \
       scheduled[:k=v,...] or adaptive[:k=v,...])"
      name
  in
  match String.index_opt s ':' with
  | None -> (
      match s with
      | "bare" -> Ok `Bare
      | "reliable" -> Ok (`Reliable default_config)
      | "scheduled" -> Ok (`Scheduled Pte_sched.Synth.default_policy)
      | "adaptive" -> Ok (`Adaptive default_adaptive)
      | _ -> unknown s)
  | Some i -> (
      let spec = String.sub s (i + 1) (String.length s - i - 1) in
      match String.sub s 0 i with
      | "reliable" ->
          let* c = parse_spec reliable_keys default_config spec in
          Result.map (fun () -> `Reliable c) (validate c)
      | "scheduled" ->
          (* the policy is checked when it is synthesized, at create *)
          Result.map
            (fun p -> `Scheduled p)
            (parse_spec scheduled_keys Pte_sched.Synth.default_policy spec)
      | "adaptive" ->
          let* a = parse_spec adaptive_keys default_adaptive spec in
          Result.map (fun () -> `Adaptive a) (validate_adaptive a)
      | head -> unknown head)

let pp_config ppf c =
  Fmt.pf ppf "retries:%d rto:%gs x%g cap:%gs jitter:%gs" c.max_retries
    c.base_rto c.multiplier c.cap c.jitter

let pp_mode ppf = function
  | `Bare -> Fmt.string ppf "bare"
  | `Reliable c ->
      Fmt.pf ppf "reliable:retries=%d,rto=%g,multiplier=%g,cap=%g,jitter=%g"
        c.max_retries c.base_rto c.multiplier c.cap c.jitter
  | `Scheduled (p : Pte_sched.Synth.policy) ->
      let opt key pp ppf = function
        | None -> ()
        | Some v -> Fmt.pf ppf ",%s=%a" key pp v
      in
      Fmt.pf ppf "scheduled:loss=%g,confidence=%g,depth=%d%a%a%a" p.loss
        p.confidence p.depth
        (opt "slot" Fmt.float)
        p.slot_len
        (opt "retries" Fmt.int)
        p.retries
        (opt "budget" Fmt.float)
        p.budget
  | `Adaptive (a : adaptive_config) ->
      Fmt.pf ppf "adaptive:healthy=%s,degrade=%g,recover=%g,dwell=%g%a"
        (match a.healthy with `Bare -> "bare" | `Reliable _ -> "reliable")
        a.policy.Pte_adapt.Policy.degrade_above
        a.policy.Pte_adapt.Policy.recover_below
        a.policy.Pte_adapt.Policy.min_dwell
        (fun ppf -> function
          | None -> ()
          | Some b -> Fmt.pf ppf ",budget=%g" b)
        a.budget

(* The one `--transport` converter every CLI shares: adding a mode (or
   rewording an error) lands in every binary at once. *)
let conv =
  Cmdliner.Arg.conv ~docv:"MODE"
    ( (fun s ->
        match mode_of_string s with
        | Ok m -> Ok m
        | Error msg -> Error (`Msg msg)),
      pp_mode )

let pp_stats ppf s =
  Fmt.pf ppf
    "sends:%d delivered:%d gave-up:%d retx:%d acks:%d acks-lost:%d dups:%d"
    s.data_sends s.delivered s.gave_up s.retransmissions s.acks_sent
    s.acks_lost s.dups_suppressed;
  (* switch counters only exist in `Adaptive mode; printing them only
     when set keeps the legacy render byte-identical *)
  if s.switches_up + s.switches_down + s.switch_refusals > 0 then
    Fmt.pf ppf " switches-up:%d switches-down:%d switch-refusals:%d"
      s.switches_up s.switches_down s.switch_refusals
