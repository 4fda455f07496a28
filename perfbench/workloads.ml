(* The four workloads: inputs generated from the seed, one untraced
   round (a complete answer a user waits for), the correctness checks
   on it, and the plain and instrumented replicas the traced run
   compares. README.md says why each workload was chosen. *)

module Em = Pte_tracheotomy.Emulation
module Trial = Pte_tracheotomy.Trial
module Certify = Pte_tracheotomy.Certify
module Ex = Pte_hybrid.Executor
module Eng = Pte_sim.Engine
module Tr = Pte_net.Transport
module Pct = Perfbench_core.Pct
module Span = Perfbench_core.Span

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now = Host.now

(* One unit of closed-loop work: a trial, a chain emulation, or a whole
   certification run (whose trials run inside the library). [host_s]
   is scaled to nominal host speed (Host.timed). *)
type unit_obs = { host_s : float; sim_s : float; trials : int }

type round = {
  units : unit_obs list;
  digest : string;  (** deterministic outputs; equal across rounds. *)
  checks : (string * bool) list;
}

let seeds ~seed k =
  let rng = Pte_util.Rng.create seed in
  List.init k (fun _ -> Pte_util.Rng.int rng 0x3FFFFFFF)

(* ------------------------------------------------------------------ *)
(* Trial outputs compared between Trial.run and the replicas          *)
(* ------------------------------------------------------------------ *)

type counts = {
  emissions : int;
  failures : int;
  evt_to_stop : int;
  vent_lease_expiries : int;
  aborts : int;
  requests : int;
  messages_sent : int;
  retransmissions : int;
  gave_up : int;
  dups_suppressed : int;
  max_consec_losses : int;
  worst_latency : float;
  switches : int * int * int;
}

let counts_of_result (r : Trial.result) =
  {
    emissions = r.emissions;
    failures = r.failures;
    evt_to_stop = r.evt_to_stop;
    vent_lease_expiries = r.vent_lease_expiries;
    aborts = r.aborts;
    requests = r.requests;
    messages_sent = r.messages_sent;
    retransmissions = r.retransmissions;
    gave_up = r.gave_up;
    dups_suppressed = r.dups_suppressed;
    max_consec_losses = r.max_consec_losses;
    worst_latency = r.worst_latency;
    switches = (r.mode_switches_up, r.mode_switches_down, r.switch_refusals);
  }

let pp_counts ppf c =
  let up, down, refused = c.switches in
  Fmt.pf ppf
    "em=%d fail=%d stop=%d vexp=%d abort=%d req=%d sent=%d retx=%d gave=%d dup=%d mcl=%d wl=%h sw=%d/%d/%d"
    c.emissions c.failures c.evt_to_stop c.vent_lease_expiries c.aborts c.requests
    c.messages_sent c.retransmissions c.gave_up c.dups_suppressed c.max_consec_losses
    c.worst_latency up down refused

(* What a replica of Trial.run observes beyond the Table-I counts. *)
type replica = {
  counts : counts;
  events : int;
  entries : int;
  tstats : Tr.stats;
}

let replica_key r =
  Fmt.str "%a ev=%d entries=%d stats=%a" pp_counts r.counts r.events r.entries Tr.pp_stats
    r.tstats

(* ------------------------------------------------------------------ *)
(* Layer probe: what the traced run accumulates                       *)
(* ------------------------------------------------------------------ *)

type probe = {
  spans : Span.recorder;
  step : Pct.Hist.t;
  idle : Pct.Hist.t;
  busy : Pct.Hist.t;
  mutable idle_ns : int;
  route : Span.Nest.t;
  mutable steps : int;
  mutable p_events : int;
  mutable minor_words : float;
  mutable major : int;
  mutable data_sends : int;
  mutable delivered : int;
  mutable retx : int;
  mutable p_gave_up : int;
  mutable p_entries : int;
  mutable p_sim_s : float;
  mutable p_units : int;
  mutable p_host_s : float;
}

let probe () =
  {
    spans = Span.create ~now ();
    step = Pct.Hist.create ();
    idle = Pct.Hist.create ();
    busy = Pct.Hist.create ();
    idle_ns = 0;
    route = Span.Nest.create ();
    steps = 0;
    p_events = 0;
    minor_words = 0.0;
    major = 0;
    data_sends = 0;
    delivered = 0;
    retx = 0;
    p_gave_up = 0;
    p_entries = 0;
    p_sim_s = 0.0;
    p_units = 0;
    p_host_s = 0.0;
  }

let span probe name f =
  match probe with Some p -> Span.with_span p.spans name f | None -> f ()

(* Route every send through the transport's router, timing each call;
   a delivery inside a route call can re-enter it, hence Nest. *)
let wrap_router nest (inner : Ex.router) : Ex.router =
 fun ~time ~sender ~root ~receiver ->
  Span.Nest.enter nest (now ());
  match inner ~time ~sender ~root ~receiver with
  | d ->
      ignore (Span.Nest.leave nest (now ()));
      d
  | exception e ->
      ignore (Span.Nest.leave nest (now ()));
      raise e

(* Run the engine to [until]: in one call when untraced, else one [dt]
   at a time (Engine.run to now + dt is exactly one step), timing each
   step and classing it idle when no event was processed. *)
let drive probe engine ~until ~dt =
  match probe with
  | None -> Eng.run engine ~until
  | Some p ->
      let exec = Eng.executor engine in
      Ex.set_router exec
        (wrap_router p.route
           (Tr.router (Option.get (Eng.transport engine))));
      let w0 = Gc.minor_words () in
      let m0 = (Gc.quick_stat ()).Gc.major_collections in
      let ev0 = Ex.events_processed exec in
      while Eng.time engine < until -. 1e-12 do
        let e0 = Ex.events_processed exec in
        let t0 = now_ns () in
        Eng.run engine ~until:(Eng.time engine +. dt);
        let d = now_ns () - t0 in
        Pct.Hist.add p.step d;
        if Ex.events_processed exec = e0 then begin
          Pct.Hist.add p.idle d;
          p.idle_ns <- p.idle_ns + d
        end
        else Pct.Hist.add p.busy d;
        p.steps <- p.steps + 1
      done;
      p.minor_words <- p.minor_words +. (Gc.minor_words () -. w0);
      p.major <- p.major + ((Gc.quick_stat ()).Gc.major_collections - m0);
      p.p_events <- p.p_events + (Ex.events_processed exec - ev0)

let note_unit probe ~host_s ~sim_s ~entries (st : Tr.stats) =
  match probe with
  | None -> ()
  | Some p ->
      p.p_units <- p.p_units + 1;
      p.p_host_s <- p.p_host_s +. host_s;
      p.p_sim_s <- p.p_sim_s +. sim_s;
      p.p_entries <- p.p_entries + entries;
      p.data_sends <- p.data_sends + st.Tr.data_sends;
      p.delivered <- p.delivered + st.Tr.delivered;
      p.retx <- p.retx + st.Tr.retransmissions;
      p.p_gave_up <- p.p_gave_up + st.Tr.gave_up

let copy_stats (s : Tr.stats) = { s with Tr.data_sends = s.Tr.data_sends }

(* ------------------------------------------------------------------ *)
(* Trial replica: Trial.run rebuilt from the public layer calls       *)
(* ------------------------------------------------------------------ *)

let trial_replica ?probe (config : Em.config) =
  let t0 = now () in
  let built = span probe "emulation.build" (fun () -> Em.build config) in
  let horizon = config.Em.horizon in
  span probe "engine.run" (fun () ->
      drive probe built.Em.engine ~until:horizon ~dt:config.Em.dt);
  let trace = span probe "trace.fetch" (fun () -> Eng.trace built.Em.engine) in
  let report =
    span probe "monitor.analyze" (fun () ->
        Pte_core.Monitor.analyze_system trace built.Em.system built.Em.spec ~horizon)
  in
  let laser = built.Em.laser and ventilator = built.Em.ventilator in
  let st = Tr.stats built.Em.transport in
  let counts =
    {
      emissions = Pte_sim.Metrics.entries trace ~automaton:laser ~location:"Risky Core";
      failures = Pte_core.Monitor.episodes report;
      evt_to_stop =
        Pte_sim.Metrics.internal_marks trace ~root:(Pte_core.Events.to_stop ~entity:laser);
      vent_lease_expiries =
        Pte_sim.Metrics.internal_marks trace
          ~root:(Pte_core.Events.lease_expired ~entity:ventilator);
      aborts =
        Pte_sim.Metrics.entries trace
          ~automaton:config.Em.params.Pte_core.Params.supervisor
          ~location:(Pte_core.Pattern.send_abort_loc laser);
      requests = Pte_sim.Metrics.entries trace ~automaton:laser ~location:"Send Req";
      messages_sent = (Pte_net.Star.total_stats built.Em.net).Pte_net.Link_stats.sent;
      retransmissions = st.Tr.retransmissions;
      gave_up = st.Tr.gave_up;
      dups_suppressed = st.Tr.dups_suppressed;
      max_consec_losses = st.Tr.max_consec_losses;
      worst_latency = st.Tr.worst_latency;
      switches = (st.Tr.switches_up, st.Tr.switches_down, st.Tr.switch_refusals);
    }
  in
  let events = Ex.events_processed (Eng.executor built.Em.engine) in
  let entries = List.length trace in
  note_unit probe ~host_s:(now () -. t0) ~sim_s:horizon ~entries st;
  { counts; events; entries; tstats = copy_stats st }

(* ------------------------------------------------------------------ *)
(* table1 and transport: closed loops of Trial.run                     *)
(* ------------------------------------------------------------------ *)

type cell = { label : string; config : Em.config; bound : float option }

let table1_cells ~seed =
  let s = seeds ~seed 4 in
  List.map2
    (fun (label, lease, e_toff) seed ->
      { label; config = { Em.default with lease; e_toff; seed }; bound = None })
    [
      ("with-lease/18s", true, 18.0);
      ("with-lease/6s", true, 6.0);
      ("without-lease/18s", false, 18.0);
      ("without-lease/6s", false, 6.0);
    ]
    s

let transport_modes : (string * Tr.mode) list =
  [
    ("bare", `Bare);
    ("reliable", `Reliable Tr.default_config);
    ("scheduled", `Scheduled Pte_sched.Synth.default_policy);
    ("adaptive", `Adaptive Tr.default_adaptive);
  ]

(* The closed-form worst-case delivery latency of the mode a trial was
   built with (Emulation.build fills in the Theorem-1 budgets). *)
let latency_bound (built : Em.built) =
  let frame_delay = Pte_net.Star.worst_frame_delay built.Em.net in
  let healthy = function
    | `Bare -> frame_delay
    | `Reliable cfg -> Tr.worst_case_latency cfg ~frame_delay
  in
  match built.Em.config.Em.transport with
  | (`Bare | `Reliable _) as m -> healthy m
  | `Scheduled _ -> (
      match Tr.schedule built.Em.transport with
      | Some sched -> Pte_sched.Schedule.worst_case_latency sched
      | None -> 0.0)
  | `Adaptive a ->
      (* every committed mode passed the Theorem-1 admission recheck,
         exact up to the budget bisection's 1e-6 tolerance *)
      Float.max (healthy a.Tr.healthy)
        (Pte_core.Constraints.max_delay_budget built.Em.config.Em.params +. 1e-6)

let transport_cells ~seed =
  let seed = List.hd (seeds ~seed 1) in
  List.map
    (fun (label, transport) ->
      {
        label;
        config =
          {
            Em.default with
            loss = Pte_net.Loss.wifi_interference ~average_loss:0.6;
            transport;
            seed;
          };
        bound = None;
      })
    transport_modes

(* Set-up: build (and so validate) every trial configuration once. *)
let setup_cells cells =
  List.map
    (fun c ->
      let built = Em.build c.config in
      { c with bound = Some (latency_bound built) })
    cells

let run_trial_cells cells =
  List.map
    (fun c ->
      let r, host_s = Host.timed (fun () -> Trial.run c.config) in
      (c, r, { host_s; sim_s = c.config.Em.horizon; trials = 1 }))
    cells

let digest_of_results results =
  String.concat "; "
    (List.map
       (fun (c, r, _) -> Fmt.str "%s: %a" c.label pp_counts (counts_of_result r))
       results)

let table1_checks results =
  let failures pred =
    List.fold_left
      (fun acc ((c : cell), (r : Trial.result), _) ->
        if pred c.config.Em.lease then acc + r.Trial.failures else acc)
      0 results
  in
  [
    ("with-lease trials have no PTE failure", failures Fun.id = 0);
    ("without-lease trials have at least one failure", failures not >= 1);
  ]

let transport_checks results =
  List.concat_map
    (fun ((c : cell), (r : Trial.result), _) ->
      [
        (c.label ^ " has no PTE violation", r.Trial.failures = 0 && r.Trial.violations = []);
        ( c.label ^ " worst latency within its closed-form bound",
          match c.bound with Some b -> r.Trial.worst_latency <= b | None -> false );
      ])
    results

let trial_round checks cells () =
  let results = run_trial_cells cells in
  {
    units = List.map (fun (_, _, u) -> u) results;
    digest = digest_of_results results;
    checks = checks results;
  }

(* ------------------------------------------------------------------ *)
(* certify: Certify.run on the smoke configuration                      *)
(* ------------------------------------------------------------------ *)

(* One worker: the certificate is the same at any worker count, and on
   a shared 2-vCPU host the second core's availability swings too much
   to measure (README.md, Load model). *)
let certify_config () = { Certify.smoke with workers = Some 1 }

let cell_key (c : Certify.cell) =
  Fmt.str "%s: trials=%d bound=%h eff=%h certified=%b" c.design.label c.trials_run c.bound
    c.effective_trials c.certified

let certify_checks (cells : Certify.cell list) =
  let find lease = List.find_opt (fun (c : Certify.cell) -> c.design.lease = lease) cells in
  [
    ( "with-lease certified with zero splitting hits",
      match find true with
      | Some { Certify.certified = true; split = Some s; _ } -> s.Pte_rare.Split.hits = 0
      | _ -> false );
    ( "without-lease refuted at the screen",
      match find false with
      | Some { Certify.certified = false; split = None; screen = Some s; _ } ->
          s.Pte_rare.Seq.verdict = Pte_rare.Seq.Refuted
      | _ -> false );
  ]

let certify_round config () =
  let report, host_s = Host.timed (fun () -> Certify.run ~config ()) in
  let trials =
    List.fold_left (fun acc (c : Certify.cell) -> acc + c.trials_run) 0 report.cells
  in
  {
    units = [ { host_s; sim_s = float_of_int trials *. config.horizon; trials } ];
    digest = String.concat "; " (List.map cell_key report.cells);
    checks = certify_checks report.cells;
  }

(* ------------------------------------------------------------------ *)
(* scale: an N = 1024 chain through one grant and cancel cascade        *)
(* ------------------------------------------------------------------ *)

let scale_n = 1024
let scale_horizon = 300.0
let scale_dt = 0.01

(* S1b's committed cell: 64 events per 300 simulated s at N = 1024. *)
let s1b_events_per_300s = 64

type scale_input = {
  params : Pte_core.Params.t;
  system : Pte_hybrid.System.t;
  rules : Pte_core.Rules.t;
  engine_seed : int;
}

(* Tight per-level constants (0.01 s safeguards and margin, 0.1 s wait)
   keep one hop of a cascade at a few steps, so a grant cascade crosses
   all 1023 participants in ~51 s and the supervisor's Fall-Back
   cool-down (which grows with N x wait) stays near 100 s. *)
let scale_requirements () =
  Pte_core.Scale.requirements ~enter_risky_min:0.01 ~exit_safe_min:0.01 ~margin:0.01
    ~t_wait_max:0.1 ~n:scale_n ()

let scale_setup ?probe ~seed () =
  let params =
    span probe "synthesis" (fun () -> Pte_core.Synthesis.synthesize_exn (scale_requirements ()))
  in
  let system = span probe "pattern.build" (fun () -> Pte_core.Pattern.system params) in
  {
    params;
    system;
    rules = Pte_core.Rules.of_params params;
    engine_seed = List.hd (seeds ~seed 1);
  }

(* The Initializer requests as soon as the supervisor's Fall-Back
   cool-down allows a grant, and cancels after an exponential stay in
   Risky Core (mean 8 s), which starts the cancel cascade. *)
let scale_engine inp =
  let p = inp.params in
  let sup = p.Pte_core.Params.supervisor and init = Pte_core.Scale.initializer_name in
  let net =
    Pte_net.Star.create ~base:sup ~remotes:(Pte_core.Pattern.remotes p)
      ~loss_kind:Pte_net.Loss.Perfect
      ~rng:(Pte_util.Rng.create ((inp.engine_seed * 2) + 1))
      ()
  in
  let engine =
    Eng.create ~config:{ Ex.default_config with dt = scale_dt } ~net ~transport:`Bare
      ~seed:inp.engine_seed inp.system
  in
  let request = Pte_core.Events.stim_request ~initializer_:init in
  let fall_back = Pte_core.Pattern.fall_back in
  Eng.add_process engine ~name:"perfbench-requests" (fun e ~time:_ ->
      if
        Eng.location_of e init = fall_back
        && Eng.location_of e sup = fall_back
        && Eng.value_of e sup Pte_core.Pattern.fallback_clock >= p.Pte_core.Params.t_fb_min
      then Eng.inject e ~receiver:init ~root:request);
  Pte_sim.Scenario.exponential_stimulus engine ~mean:8.0 ~automaton:init
    ~armed_in:Pte_core.Pattern.risky_core
    ~root:(Pte_core.Events.stim_cancel ~initializer_:init)
    ();
  engine

type scale_out = {
  s_events : int;
  s_entries : int;
  init_risky : int;
  monitor_ok : bool;
  s_stats : Tr.stats;
}

let scale_key o =
  Fmt.str "events=%d entries=%d init-risky=%d monitor-ok=%b stats=%a" o.s_events o.s_entries
    o.init_risky o.monitor_ok Tr.pp_stats o.s_stats

(* Timed in segments of [scale_horizon / scale_chunks] simulated
   seconds, each scaled by the host speed measured around it, since
   host speed drifts within a 3-s emulation. Returns the outputs and
   the scaled host time. *)
let scale_chunks = 10

let scale_emulation ?probe inp =
  let scaled = ref 0.0 in
  let seg f =
    let x, dt = Host.timed f in
    scaled := !scaled +. dt;
    x
  in
  let t0 = now () in
  let engine = seg (fun () -> span probe "engine.create" (fun () -> scale_engine inp)) in
  span probe "engine.run" (fun () ->
      for k = 1 to scale_chunks do
        seg (fun () ->
            drive probe engine
              ~until:(scale_horizon *. float_of_int k /. float_of_int scale_chunks)
              ~dt:scale_dt)
      done);
  let out = seg (fun () ->
      let trace = span probe "trace.fetch" (fun () -> Eng.trace engine) in
      (* The engine ends one step past [scale_horizon] whenever its
         accumulated clock lands a hair under it (30001 steps for 300 s
         at 10 ms), and the trace holds that step's transitions. The
         monitor must see the span the trace covers: at the nominal
         horizon an entity leaving risk in the extra step reads as not
         embedded in one whose interval is clipped at the horizon. *)
      let report =
        span probe "monitor.analyze" (fun () ->
            Pte_core.Monitor.analyze_system trace inp.system inp.rules
              ~horizon:(Eng.time engine))
      in
      let st = Tr.stats (Option.get (Eng.transport engine)) in
      let out =
        {
          s_events = Ex.events_processed (Eng.executor engine);
          s_entries = List.length trace;
          init_risky =
            Pte_sim.Metrics.entries trace ~automaton:Pte_core.Scale.initializer_name
              ~location:Pte_core.Pattern.risky_core;
          monitor_ok = Pte_core.Monitor.ok report;
          s_stats = copy_stats st;
        }
      in
      note_unit probe ~host_s:(now () -. t0) ~sim_s:scale_horizon ~entries:out.s_entries st;
      out)
  in
  (out, !scaled)

let scale_checks o =
  [
    ("the Initializer reached Risky Core (a full grant cascade)", o.init_risky >= 1);
    ("the monitor finds no PTE violation", o.monitor_ok);
    ( "events exceed 10x the committed S1b cell",
      o.s_events >= 10 * s1b_events_per_300s );
  ]

let scale_round inp () =
  let o, host_s = scale_emulation inp in
  {
    units = [ { host_s; sim_s = scale_horizon; trials = 1 } ];
    digest = scale_key o;
    checks = scale_checks o;
  }
