(** Fixed-step executor for hybrid systems.

    Time advances in steps of [config.dt] (explicit Euler); invariant
    boundaries are located by bisection and force an enabled spontaneous
    transition ({e forced} in the trace); {!Edge.Eager} edges fire as
    soon as their guard holds; event transport is delegated to a
    pluggable {!type-router} (reliable-instant by default; [pte_sim]
    plugs in the lossy wireless star). A bounded number of discrete
    changes may occur per instant.

    Hot-path organisation: the executor is built for systems of 1000+
    automata. It keeps one event timeline (a {!Pte_util.Heap} ordered by
    (due, insertion) with lazy-delete tombstones) and flat int-indexed
    automaton states. Each valuation is a [float array] with slots
    numbered at {!create}. Each location's dispatch index, rates,
    invariant, guards and resets are compiled against those slots on
    the location's first entry, an ODE's declared reads and writes
    included. An activity-set stabilization re-chases only automata that
    changed since the last fixpoint.

    Automata sleep: a step runs the step body (Euler advance, invariant
    check, bisection) only for automata whose invariant or eager guards
    can change at that step, predicted in closed form with a proven
    float-error margin; the skipped Euler steps are replayed, as the same
    float operations in the same order, when the valuation is next read
    (delivery, chase, {!value_of}, {!set_value}, sampling, {!halt},
    {!restart}, {!set_rate}). An {!Flow.Ode} location with no invariant
    and no eager edge sleeps too: each replayed step evaluates the field
    at that step's own time, regenerated by the [now +. dt] recurrence,
    which is why the field must be a pure function of time and state
    ({!Flow.t}). An ODE location with an invariant or an eager edge
    wakes every step. An idle automaton, constant-rate or ODE, costs
    nothing per step and allocates nothing.

    Writes that change nothing are free: {!set_value} (and {!Slot.set})
    of a value bitwise equal to the current one neither replays, nor
    re-chases, nor wakes the automaton, since an unchanged value can
    neither enable an edge nor move a wake prediction. A per-step
    coupling that rewrites the same value keeps its target asleep.

    Traces equal those of the original sorted-list, full-scan,
    map-valuation, always-step engine, pinned by four recorded traces in
    the test suite. *)

exception
  Time_block of { automaton : string; location : string; time : float }
(** An invariant boundary was reached with no enabled egress — the paper
    assumes time-block-free automata, so this surfaces modeling errors. *)

exception Zeno of { automaton : string; time : float }
(** More than [config.max_chain] discrete changes in one instant. *)

type route_decision =
  | Deliver of float  (** deliver after the given delay (seconds) *)
  | Lose
  | Deferred
      (** the router has taken ownership of the send: it schedules the
          arrival (or records the loss) itself through {!schedule} /
          {!deliver_now} / {!lose_now}. Used by the event-driven ARQ
          transport, whose exchange outcome is not known at send time. *)

type router =
  time:float -> sender:string -> root:string -> receiver:string ->
  route_decision

val reliable_router : router

type config = {
  dt : float;
  max_chain : int;
  sample_vars : (string * Var.t) list;
      (** [(automaton, var)] recorded every [sample_period]. *)
  sample_period : float;
}

val default_config : config
(** 1 ms step, chain bound 64, no sampling. *)

type t

val create :
  ?config:config -> ?trace_sink:(Trace.entry -> unit) -> System.t -> t
(** Validates the system and the config. [trace_sink] streams entries as
    they happen. Raises [Invalid_argument] naming the field for a
    non-finite or non-positive [dt], a non-finite or non-positive
    [sample_period] when [sample_vars] is not empty, and [max_chain < 1]
    (which would hang {!run}, stall the clock at NaN, or raise a
    spurious {!Zeno}). *)

val set_router : t -> router -> unit
val time : t -> float
val trace : t -> Trace.t

val events_processed : t -> int
(** Monotone count of discrete work done so far: message deliveries,
    timer firings and transitions. Cheap (no trace traversal) — the
    throughput benchmarks' events/sec numerator. *)

type stats = {
  steps : int;  (** completed {!step}s *)
  step_bodies : int;
      (** automaton-steps that ran the step body (Euler advance,
          invariant check, bisection); the rest slept *)
  catchup_steps : int;
      (** automaton-steps whose Euler additions a read replayed after
          the automaton slept through them *)
  ode_steps : int;
      (** evaluations of an ODE field: step bodies in an ODE location
          plus replayed ODE steps *)
  writes_skipped : int;
      (** {!set_value}s that left the value bitwise as it was, and so
          did nothing *)
  tombstones_skipped : int;
      (** cancelled queue entries discarded as they surfaced *)
  queue_high_water : int;
      (** the most entries (tombstones included) the event queue held *)
}

val stats : t -> stats
(** Deterministic work counters: a function of the system, the config
    and the inputs, never of the host. *)

(** {2 Revocable scheduling}

    Timers share the delivery queue (one timeline, ordered by (due,
    insertion)), so a scheduled arrival or retransmission timer can be
    revoked before it fires — the primitive behind the event-driven ARQ
    transport. *)

type token
(** Names one scheduled (not yet fired) queue entry. *)

val schedule : t -> ?owner:string -> at:float -> (t -> unit) -> token
(** Run the callback at absolute time [at] (clamped to now if in the
    past), interleaved with message deliveries in queue order. The
    callback may deliver events ({!deliver_now}), schedule or {!cancel}
    further timers, and mutate automata; any discrete cascade it starts
    is finished within the same instant.

    [owner] names the automaton on whose behalf the timer was armed
    (e.g. the sender of a retransmission): Zeno diagnostics raised
    while firing the callback blame it instead of the anonymous
    ["<timer>"], so shrink artifacts name the real culprit.

    Raises [Invalid_argument] if [at] is NaN or infinite — such a timer
    could never fire and would silently wedge its exchange. *)

val cancel : t -> token -> unit
(** Revoke a scheduled entry before it fires. Idempotent: unknown or
    already-fired tokens are ignored. *)

val deliver_now : t -> receiver:string -> root:string -> bool
(** Hand [root] to [receiver] at the current instant — the delivery half
    of a [Deferred] routing decision. Returns [true] if a triggered edge
    consumed it. *)

val lose_now : t -> receiver:string -> root:string -> unit
(** Record the loss of a send owned by a [Deferred] router, at the
    instant the transport gave up on it. *)

(** {2 Handles}

    Environment processes resolve their automaton and variables once, at
    registration, and then read and write by index: a step in which no
    location changed hashes and compares no string. The name-based calls
    below are wrappers over these. *)

module Handle : sig
  type executor := t
  type t
  (** One automaton of the system. *)

  val find : executor -> string -> t
  (** Raises [Invalid_argument] naming an unknown automaton. *)

  val location : executor -> t -> string
  (** The current location's name. *)

  val location_id : executor -> t -> int
  (** The current location's position in the automaton's location list. *)

  val location_index : executor -> t -> string -> int
  (** The position of the named location. Raises [Invalid_argument]
      naming an unknown location. *)

  val halt : executor -> t -> unit
  val restart : executor -> t -> unit
  val set_rate : executor -> t -> float -> unit
end

module Slot : sig
  type executor := t
  type t
  (** One variable of one automaton. *)

  val reader : executor -> Handle.t -> Var.t -> t
  (** A variable the automaton does not declare reads as 0. *)

  val writer : executor -> Handle.t -> Var.t -> t
  (** Raises [Invalid_argument] naming the automaton and the variable
      when the automaton does not declare it. *)

  val get : executor -> t -> float
  val set : executor -> t -> float -> unit
  (** As {!set_value}; raises on an undeclared {!reader} slot. *)
end

val location_of : t -> string -> string

val value_of : t -> string -> Var.t -> float
(** A variable the automaton does not declare reads as 0 (the
    {!Valuation} convention). *)

val dwell_time : t -> string -> float
(** Continuous dwell in the current location. *)

val set_value : t -> string -> Var.t -> float -> unit
(** Overwrite one variable, bypassing flows/resets — the hook for wired
    physical couplings (e.g. the oximeter writing the supervisor's
    ApprovalCondition). Use via [pte_sim]'s coupling API. A value
    bitwise equal to the current one ([0.0] and [-0.0] differ; NaN
    always counts as a change) does nothing. Raises [Invalid_argument]
    naming the automaton and the variable when the automaton does not
    declare it. *)

val note : t -> string -> unit
(** Append a free-form annotation to the trace. *)

(** {2 Node-fault hooks}

    Used by the fault-injection layer ([pte_faults]) to realize
    fail-stop crashes and clock drift — faults {e outside} the paper's
    message-loss-only model, injected to probe how the lease pattern
    degrades when Theorem 1's assumptions are broken. *)

val halt : t -> string -> unit
(** Crash an automaton: flows freeze, edges stop firing, incoming events
    are recorded as unconsumed and dropped, until {!restart}. *)

val restart : t -> string -> unit
(** Reboot an automaton into its initial location and valuation (records
    the location entry, so monitors see the reset). *)

val is_halted : t -> string -> bool

val set_rate : t -> string -> float -> unit
(** Local clock-drift factor: each global [dt] advances this automaton's
    continuous state by [rate * dt]. [rate < 1] = slow clocks (leases
    expire late, eating the c1-c7 margins); [rate > 1] = fast. Raises
    [Invalid_argument] on non-positive or non-finite rates. *)

val rate : t -> string -> float

val step : t -> unit
(** Advance by one [config.dt] step. *)

val run : t -> until:float -> unit

val inject : t -> receiver:string -> root:string -> bool
(** Deliver an environment stimulus now (the paper's emulated surgeon).
    Returns [true] if a triggered edge consumed it. *)
