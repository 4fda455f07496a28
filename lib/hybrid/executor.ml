(** Fixed-step executor for hybrid systems.

    Executes a {!System.t} under the semantics of Section II: per
    location, data state variables evolve along the flow map while the
    invariant holds; discrete transitions fire when guards hold, reset
    variables, and exchange events through synchronization labels.

    Operational choices (documented here because the paper gives
    denotational semantics only):

    - Time advances in fixed steps of [config.dt] (default 1 ms) using
      explicit Euler integration. All configuration constants of the
      design pattern are >= 1 s in the case study, so the discretization
      error is orders of magnitude below every constraint margin.
    - If a step would violate the current invariant, the executor
      bisects to the boundary, fires an enabled spontaneous edge there
      ({e forced} transition), and finishes the step under the new
      location's flow. A boundary with no enabled edge is a time-block
      and raises {!Time_block} — the paper assumes time-block-free
      automata, so this surfaces modeling errors.
    - {!Edge.Eager} edges fire as soon as their guard holds (checked at
      step boundaries and after every discrete change).
    - Event transport is delegated to a pluggable {!router}: the closed
      (wired) semantics delivers instantly and reliably; [pte_sim] plugs
      in the wireless star network, making [??l] receptions lossy.
    - A bounded number of discrete changes may occur per instant;
      exceeding it raises {!Zeno} (the paper assumes non-zeno automata).

    Hot-path organisation (built for N >= 1000): one timeline — a
    {!Pte_util.Heap} of pending deliveries and timers keyed by due time,
    whose FIFO tie-break is the insertion order — with a table of live
    tokens for O(1) cancel (a cancelled entry stays in the heap as a
    tombstone and is skipped when it surfaces); automata live in a flat
    array indexed by int with the name->index table only at the API
    boundary; {!stabilize} re-chases only {e active} automata — those
    that fired, received a message or whose location is time-sensitive
    — instead of scanning the whole system every fixpoint round.
    Quiescent automata contribute nothing to a fixpoint round, so the
    trace equals the one of a full-scan sorted-list engine (pinned by a
    recorded trace in the test suite).

    Valuations are flat: each automaton keeps its variables in a
    [float array], slots numbered once at {!create}. A location's
    dispatch index (trigger-root -> edges, eager/spontaneous arrays) is
    compiled the first time the automaton enters it, from edges grouped
    by source in one pass at {!create}: its {!Flow.Rates} become
    [(slot, rate)] arrays, a {!Flow.Ode}'s declared reads and writes
    slot arrays (with its own [x]/[dx] scratch), its invariant and edge
    guards {!Guard.flat} arrays, its resets slot assignments. The
    continuous step, guard checks and the eager chase are closure-free
    loops over those arrays, so an idle automaton allocates nothing per
    step. The float operations and their order are those of the
    map-based engine — Euler [x +. rate *. span] in rate-list order, an
    ODE's [x +. dx *. span] in [writes] order from derivatives evaluated
    on the pre-step valuation, {!Guard.eps} comparisons, the 30-round
    [a +. alpha *. (b -. a)] bisection — so traces are byte-identical to
    it (pinned by recorded traces).

    Automata sleep. A step runs the step body (Euler advance, invariant
    check, bisection) only for automata whose [wake] step has come, in
    index order; the others' steps are plain Euler advances that cannot
    change the trace, so they are deferred and replayed — the same float
    operations in step order — when the valuation is next read
    (delivery, chase, {!value_of}, {!set_value}, sampling, {!halt},
    {!restart}, {!set_rate}). After each body the wake step is predicted
    in closed form from the location's atoms
    ({!Guard.flat_steps_to_violate}, {!Guard.flat_steps_to_satisfy}),
    early by a proven float-error margin: an early wake only runs a body
    that changes nothing. A location with no invariant and no eager edge
    never wakes, an ODE location included: its replay evaluates the
    field once per skipped step, at that step's own time, regenerated
    from the time of the last synced step by the [now +. dt] recurrence
    the step loop itself uses (the field is a pure function of time and
    state, {!Flow.t}). An ODE location with an invariant or an eager
    edge wakes every step. Any discrete change or outside write that
    changes a value wakes the automaton for the next step; a write of
    the value a slot already holds (bitwise) is skipped altogether. The
    least wake step is kept, so a step at which no automaton is due
    skips the scan, and stabilization scans only while some automaton
    is marked active: an idle step costs O(1), not O(N). *)

exception Time_block of { automaton : string; location : string; time : float }
exception Zeno of { automaton : string; time : float }

type route_decision =
  | Deliver of float  (** deliver after the given delay (seconds) *)
  | Lose
  | Deferred
      (** the router has taken ownership of the send: it will schedule
          the delivery (or record the loss) itself through {!schedule} /
          {!deliver_now} / {!lose_now} — nothing to enqueue now (the
          event-driven ARQ transport) *)

type router =
  time:float -> sender:string -> root:string -> receiver:string ->
  route_decision

let reliable_router ~time:_ ~sender:_ ~root:_ ~receiver:_ = Deliver 0.0

type config = {
  dt : float;
  max_chain : int;
      (** Maximum discrete transitions per automaton per instant. *)
  sample_vars : (string * Var.t) list;
      (** [(automaton, var)] pairs recorded every {!sample_period}. *)
  sample_period : float;
}

let default_config =
  { dt = 1e-3; max_chain = 64; sample_vars = []; sample_period = 1.0 }

(* {2 Flat layout} *)

(* A flow compiled against an automaton's slots: constant rates as
   parallel arrays in rate-list order, or an ODE field with its reads and
   writes as slots and its own [x]/[dx] scratch. *)
type flow =
  | Const of { slots : int array; rates : float array }
  | Ode of {
      reads : int array;
      writes : int array;
      f : float -> float array -> float array -> unit;
      x : float array;
      dx : float array;
    }

(* An edge compiled against its automaton's slots. [reset_ops.(k)]
   assigns slot [reset_dst.(k)]; a [Copy] reads slot [reset_src.(k)]. *)
type cedge = {
  edge : Edge.t;
  guard : Guard.flat;
  reset_dst : int array;
  reset_ops : Reset.assignment array;
  reset_src : int array;
}

(* Per-location dispatch index, compiled on first entry: the edge
   subsets the hot path needs, in declaration order (so "first enabled
   edge" picks the same edge the old linear [edges_from] scan did). *)
type loc_info = {
  loc : Location.t;
  id : int;  (* position in the automaton's location list *)
  flow : flow;
  invariant : Guard.flat;
  eager : cedge array;  (* spontaneous + Eager *)
  spontaneous : cedge array;  (* any urgency *)
  triggered : (string, cedge array) Hashtbl.t;  (* trigger root -> edges *)
  has_eager : bool;
      (* whether time passage alone can enable a transition here: if not,
         the automaton needs no eager re-chase after a continuous step *)
}

type automaton_state = {
  automaton : Automaton.t;
  ix : int;  (* index into [t.states] *)
  slots : (Var.t, int) Hashtbl.t;  (* variable -> index into [values] *)
  initial : float array;  (* the initial valuation *)
  values : float array;  (* the current valuation *)
  before : float array;
      (* the valuation at the start of the current continuous step (the
         bisection's [from]) or before the current reset *)
  sources : (string, int * Location.t * Edge.t list) Hashtbl.t;
      (* location name -> (its position, the location, its out-edges
         reversed): the input of the first-entry compile *)
  infos : (string, loc_info) Hashtbl.t;  (* compiled on first entry *)
  mutable info : loc_info;  (* current location's index *)
  mutable entered_at : float;
  mutable halted : bool;
      (* crashed node: flows frozen, edges disabled, receptions dropped *)
  mutable rate : float;
      (* local clock-drift factor: its flows advance [rate * dt] per step *)
  mutable active : bool;
      (* needs an eager re-chase in the next stabilization round; set
         through [activate] *)
  mutable synced : int;
      (* step bodies [values] reflects: the Euler additions of later
         steps, skipped while the automaton slept, are replayed on read *)
  deltas : float array;
      (* per-slot addition of one step (scratch of the wake prediction) *)
}

type token = int

type t = {
  system : System.t;
  config : config;
  mutable now : float;
  states : automaton_state array;
  index : (string, int) Hashtbl.t;  (* automaton name -> states index *)
  listeners : (string, int array) Hashtbl.t;
      (* root -> listener indices, in system declaration order *)
  pending : pending Pte_util.Heap.t;  (* keyed by due time *)
  live : (int, unit) Hashtbl.t;
      (* tokens queued and not cancelled; cancel = remove (a tombstone),
         pops skip entries whose token is no longer live *)
  mutable next_token : int;
  mutable events : int;  (* deliveries + timer firings + transitions *)
  mutable n_active : int;  (* automata with [active] set *)
  wake : int array;
      (* states index -> first step whose step body must run; the
         bodies of earlier steps are plain Euler additions *)
  mutable next_wake : int;  (* at most the least of [wake] *)
  synced_at : float array;
      (* states index -> the time of its step [synced], where the replay
         of a sleeping ODE regenerates its step times from. Set by every
         step body: a location entry or a restart wakes the automaton,
         so its next step runs a body before any replay can start from
         the new location *)
  mutable steps : int;  (* completed steps *)
  mutable cursor : int;
      (* the step loop's position: automata below it have taken the
         current step already *)
  mutable step_bodies : int;
  mutable catchup_steps : int;
  mutable ode_steps : int;
  mutable writes_skipped : int;
  mutable tombstones_skipped : int;
  mutable queue_high_water : int;
  recorder : Trace.Recorder.recorder;
  mutable router : router;
  mutable next_sample : float;
}

and pending = { token : int; owner : string; payload : payload }
(* [owner]: the automaton blamed in Zeno diagnostics — the receiver for
   messages, the automaton whose exchange armed the timer for timers. *)

and payload =
  | Message of { receiver : int; root : string }
      (* a scheduled arrival: deliver [root] to [receiver] at its due time *)
  | Timer of (t -> unit)
      (* a scheduled callback (e.g. a transport retransmission timer) *)

(* The sentinel {!pop_due} returns when nothing is due. *)
let nothing_due = { token = -1; owner = "<none>"; payload = Timer ignore }

(* {2 Construction} *)

(* Slot of [var] in automaton [a]'s valuation array. *)
let slot_exn (a : Automaton.t) slots var =
  match Hashtbl.find_opt slots var with
  | Some j -> j
  | None ->
      Fmt.invalid_arg "executor: automaton %s has no variable %s"
        a.Automaton.name var

let compile_edge slot_of (e : Edge.t) =
  let reset = Array.of_list e.reset in
  {
    edge = e;
    guard = Guard.flatten slot_of e.guard;
    reset_dst = Array.map (fun (var, _) -> slot_of var) reset;
    reset_ops = Array.map snd reset;
    reset_src =
      Array.map (function _, Reset.Copy src -> slot_of src | _ -> -1) reset;
  }

let compile_loc slot_of id (loc : Location.t) rev_edges =
  let edges = List.rev_map (compile_edge slot_of) rev_edges in
  let keep p = Array.of_list (List.filter p edges) in
  let eager =
    keep (fun c -> Edge.is_spontaneous c.edge && c.edge.urgency = Edge.Eager)
  in
  (* group triggered edges by root, preserving declaration order *)
  let triggered = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match Edge.trigger_root c.edge with
      | Some root ->
          let prev =
            match Hashtbl.find_opt triggered root with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace triggered root (c :: prev)
      | None -> ())
    edges;
  let triggered_arrays = Hashtbl.create (Hashtbl.length triggered) in
  Hashtbl.iter
    (fun root rev ->
      Hashtbl.replace triggered_arrays root (Array.of_list (List.rev rev)))
    triggered;
  let flow =
    match loc.Location.flow with
    | Flow.Rates rates ->
        Const
          {
            slots = Array.of_list (List.map (fun (v, _) -> slot_of v) rates);
            rates = Array.of_list (List.map snd rates);
          }
    | Flow.Ode { reads; writes; f } ->
        let slots vars = Array.of_list (List.map slot_of vars) in
        let reads = slots reads and writes = slots writes in
        Ode
          {
            reads;
            writes;
            f;
            x = Array.make (Array.length reads) 0.0;
            dx = Array.make (Array.length writes) 0.0;
          }
  in
  {
    loc;
    id;
    flow;
    invariant = Guard.flatten slot_of loc.Location.invariant;
    eager;
    spontaneous = keep (fun c -> Edge.is_spontaneous c.edge);
    triggered = triggered_arrays;
    has_eager = Array.length eager > 0;
  }

(* The dispatch index of location [name], compiled on its first entry
   from the edges [create] grouped by source: systems with thousands of
   locations pay only for the ones a run visits. *)
let find_info (a : Automaton.t) slots sources infos name =
  match Hashtbl.find_opt infos name with
  | Some info -> info
  | None ->
      let id, loc, rev_edges =
        match Hashtbl.find_opt sources name with
        | Some src -> src
        | None -> assert false (* validated: no dangling edge endpoints *)
      in
      let info = compile_loc (slot_exn a slots) id loc rev_edges in
      Hashtbl.replace infos name info;
      info

let info_of st name =
  find_info st.automaton st.slots st.sources st.infos name

let build_state ix (a : Automaton.t) =
  let slots = Hashtbl.create 8 in
  List.iter
    (fun v ->
      if not (Hashtbl.mem slots v) then
        Hashtbl.replace slots v (Hashtbl.length slots))
    a.Automaton.vars;
  (* zero, then the initial values in order (a repeated one: last wins) *)
  let initial = Array.make (Hashtbl.length slots) 0.0 in
  List.iter
    (fun (v, x) -> initial.(slot_exn a slots v) <- x)
    a.Automaton.initial_values;
  (* group edges by source location in one pass (reversed declaration
     order) *)
  let sources = Hashtbl.create (List.length a.Automaton.locations * 2) in
  List.iteri
    (fun id (loc : Location.t) ->
      Hashtbl.replace sources loc.Location.name (id, loc, []))
    a.Automaton.locations;
  List.iter
    (fun (e : Edge.t) ->
      match Hashtbl.find_opt sources e.src with
      | Some (id, loc, rev) -> Hashtbl.replace sources e.src (id, loc, e :: rev)
      | None -> assert false (* validated: no dangling edge endpoints *))
    a.Automaton.edges;
  let infos = Hashtbl.create 8 in
  {
    automaton = a;
    ix;
    slots;
    initial;
    values = Array.copy initial;
    before = Array.copy initial;
    sources;
    infos;
    info = find_info a slots sources infos a.Automaton.initial_location;
    entered_at = 0.0;
    halted = false;
    rate = 1.0;
    active = true;
    synced = 0;
    deltas = Array.make (Array.length initial) 0.0;
  }

let validate_config c =
  let positive x = Float.is_finite x && x > 0.0 in
  if not (positive c.dt) then
    Fmt.invalid_arg "executor: config.dt must be finite and positive, got %g"
      c.dt;
  if c.sample_vars <> [] && not (positive c.sample_period) then
    Fmt.invalid_arg
      "executor: config.sample_period must be finite and positive when \
       sample_vars is set, got %g"
      c.sample_period;
  if c.max_chain < 1 then
    Fmt.invalid_arg "executor: config.max_chain must be at least 1, got %d"
      c.max_chain

let create ?(config = default_config) ?trace_sink system =
  validate_config config;
  let system = System.validate_exn system in
  let recorder = Trace.Recorder.create ?sink:trace_sink () in
  let automata = Array.of_list system.System.automata in
  let n = Array.length automata in
  let index = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i (a : Automaton.t) -> Hashtbl.replace index a.Automaton.name i)
    automata;
  let states = Array.mapi build_state automata in
  let listeners = Hashtbl.create (4 * n) in
  Array.iteri
    (fun i (a : Automaton.t) ->
      Var.Set.iter
        (fun root ->
          let prev =
            match Hashtbl.find_opt listeners root with Some l -> l | None -> []
          in
          Hashtbl.replace listeners root (i :: prev))
        (Automaton.listened_roots a))
    automata;
  let listeners_arr = Hashtbl.create (Hashtbl.length listeners) in
  Hashtbl.iter
    (fun root rev_ixs ->
      Hashtbl.replace listeners_arr root (Array.of_list (List.rev rev_ixs)))
    listeners;
  Array.iter
    (fun st ->
      Trace.Recorder.record recorder ~time:0.0
        (Trace.Enter_location
           {
             automaton = st.automaton.Automaton.name;
             location = st.info.loc.Location.name;
           }))
    states;
  {
    system;
    config;
    now = 0.0;
    states;
    index;
    listeners = listeners_arr;
    pending = Pte_util.Heap.create ~dummy:nothing_due;
    live = Hashtbl.create 64;
    next_token = 0;
    events = 0;
    n_active = n;
    wake = Array.make n 0;
    next_wake = 0;
    synced_at = Array.make n 0.0;
    steps = 0;
    cursor = 0;
    step_bodies = 0;
    catchup_steps = 0;
    ode_steps = 0;
    writes_skipped = 0;
    tombstones_skipped = 0;
    queue_high_water = 0;
    recorder;
    router = reliable_router;
    next_sample = 0.0;
  }

let set_router t router = t.router <- router
let time t = t.now
let trace t = Trace.Recorder.entries t.recorder
let events_processed t = t.events

type stats = {
  steps : int;
  step_bodies : int;
  catchup_steps : int;
  ode_steps : int;
  writes_skipped : int;
  tombstones_skipped : int;
  queue_high_water : int;
}

let stats (t : t) =
  { steps = t.steps; step_bodies = t.step_bodies;
    catchup_steps = t.catchup_steps; ode_steps = t.ode_steps;
    writes_skipped = t.writes_skipped;
    tombstones_skipped = t.tombstones_skipped;
    queue_high_water = t.queue_high_water }

let state_ix t name =
  match Hashtbl.find_opt t.index name with
  | Some ix -> ix
  | None -> Fmt.invalid_arg "executor: unknown automaton %s" name

let state t name = t.states.(state_ix t name)

let location_of t name = (state t name).info.loc.Location.name

(* {2 Sleeping automata}

   A step body (Euler advance, invariant check, bisection) runs only for
   automata whose [wake] step has come. Until then an automaton's step
   is a plain Euler advance with no effect on the trace, so it is
   deferred: every read of the valuation first replays the skipped
   steps as the same float operations. Reads after the step loop passed
   an automaton see the current step taken. *)

(* The step count [st]'s valuation must reflect when read now. *)
let read_step t st = if st.ix < t.cursor then t.steps + 1 else t.steps

(* One Euler step of an ODE field at [time]: [x] gathered from [values]
   before any addition, then [x +. dx *. span] in [writes] order. *)
let[@inline] ode_step values ~reads ~writes ~f ~x ~dx time span =
  for i = 0 to Array.length reads - 1 do
    x.(i) <- values.(reads.(i))
  done;
  f time x dx;
  for k = 0 to Array.length writes - 1 do
    let j = writes.(k) in
    values.(j) <- values.(j) +. (dx.(k) *. span)
  done

(* Replay the Euler steps [st.synced .. target - 1]. A constant-rate
   flow replays slot by slot: an automaton that is behind sleeps in its
   location, and a flow adding to one slot twice a step never sleeps
   ({!steps_to_wake}), so each slot's additions are independent. An ODE
   replays step by step, each evaluated at its own step's time, which
   the engine's [now +. dt] recurrence regenerates from [synced_at]. *)
let catch_up (t : t) st target =
  let k = target - st.synced in
  if k > 0 then begin
    if not st.halted then begin
      let span = t.config.dt *. st.rate in
      (match st.info.flow with
      | Const { slots; rates } ->
          if not (span <= 0.0) then begin
            let values = st.values in
            for m = 0 to Array.length slots - 1 do
              let j = slots.(m) in
              let delta = rates.(m) *. span in
              let x = ref values.(j) in
              for _ = 1 to k do
                x := !x +. delta
              done;
              values.(j) <- !x
            done
          end
      | Ode { reads; writes; f; x; dx } ->
          let dt = t.config.dt in
          let time = ref t.synced_at.(st.ix) in
          for _ = 1 to k do
            ode_step st.values ~reads ~writes ~f ~x ~dx !time span;
            time := !time +. dt
          done;
          t.synced_at.(st.ix) <- !time;
          t.ode_steps <- t.ode_steps + k);
      t.catchup_steps <- t.catchup_steps + k
    end;
    st.synced <- target
  end

let sync t st = catch_up t st (read_step t st)

(* Steps until [st]'s next step body must run: the first Euler addition
   that can break the invariant or enable an eager edge (see
   {!Guard.flat_steps_to_violate}); [max_int] when none can. An ODE
   location with no invariant and no eager edge never wakes; one with
   either, or a flow adding to one slot twice a step, wakes every
   step. *)
let steps_to_wake t st =
  let info = st.info in
  match info.flow with
  | Ode _ ->
      if Array.length info.invariant.Guard.slots = 0 && not info.has_eager
      then max_int
      else 1
  | Const { slots; rates } ->
      let deltas = st.deltas and values = st.values in
      let span = t.config.dt *. st.rate in
      for j = 0 to Array.length deltas - 1 do
        deltas.(j) <- 0.0
      done;
      let twice = ref false in
      for m = 0 to Array.length slots - 1 do
        let j = slots.(m) in
        if deltas.(j) <> 0.0 then twice := true;
        deltas.(j) <- rates.(m) *. span
      done;
      if !twice then 1
      else begin
        let n = ref (Guard.flat_steps_to_violate info.invariant values deltas) in
        let eager = info.eager in
        for k = 0 to Array.length eager - 1 do
          n := Int.min !n (Guard.flat_steps_to_satisfy eager.(k).guard values deltas)
        done;
        !n
      end

(* A discrete change or an outside write: take the next step body. *)
let wake_now t st =
  t.wake.(st.ix) <- 0;
  t.next_wake <- 0

let activate t st =
  if not st.active then begin
    st.active <- true;
    t.n_active <- t.n_active + 1
  end

(* Whether the current location's flow advances slot [j]. *)
let advances flow j =
  let listed slots =
    let found = ref false in
    for m = 0 to Array.length slots - 1 do
      if slots.(m) = j then found := true
    done;
    !found
  in
  match flow with
  | Const { slots; _ } -> listed slots
  | Ode { writes; _ } -> listed writes

(* Bitwise equality short of NaN payloads: [0.0] and [-0.0] differ, and a
   NaN never equals anything (a conservative "changed"). *)
let same_bits a b = a = b && Float.sign_bit a = Float.sign_bit b

(* A variable the automaton does not declare reads as 0, the
   {!Valuation} convention. *)
let read_slot t st j =
  sync t st;
  st.values.(j)

let read t st var =
  match Hashtbl.find_opt st.slots var with
  | Some j -> read_slot t st j
  | None -> 0.0

(* Overwrite slot [j]. A write that leaves the value bitwise as it is
   does nothing: an unchanged value cannot enable an edge, break an
   invariant or move a wake prediction. A slot the current flow does not
   advance holds its current value without a replay, so it is compared
   unsynced. *)
let write_slot (t : t) st j value =
  if (not (advances st.info.flow j)) && same_bits st.values.(j) value then
    t.writes_skipped <- t.writes_skipped + 1
  else begin
    sync t st;
    if same_bits st.values.(j) value then
      t.writes_skipped <- t.writes_skipped + 1
    else begin
      st.values.(j) <- value;
      activate t st;
      wake_now t st
    end
  end

let record t event = Trace.Recorder.record t.recorder ~time:t.now event
let note t text = record t (Trace.Note text)

(* {2 Handles}

   Environment processes resolve an automaton (and the variables they
   touch) once, at registration, and then read and write by index: a
   step in which no location changed hashes and compares no string. *)

module Handle = struct
  type nonrec t = int

  let find = state_ix
  let location t h = t.states.(h).info.loc.Location.name
  let location_id t h = t.states.(h).info.id

  let location_index t h location =
    let st = t.states.(h) in
    match Hashtbl.find_opt st.sources location with
    | Some (id, _, _) -> id
    | None ->
        Fmt.invalid_arg "executor: automaton %s has no location %s"
          st.automaton.Automaton.name location

  let halt t h =
    let st = t.states.(h) in
    if not st.halted then begin
      sync t st;
      st.halted <- true;
      note t (Printf.sprintf "fault: %s crashed" st.automaton.Automaton.name)
    end

  let restart t h =
    let st = t.states.(h) in
    st.halted <- false;
    st.info <- info_of st st.automaton.Automaton.initial_location;
    Array.blit st.initial 0 st.values 0 (Array.length st.values);
    st.synced <- read_step t st;
    st.entered_at <- t.now;
    activate t st;
    wake_now t st;
    let name = st.automaton.Automaton.name in
    note t (Printf.sprintf "fault: %s restarted" name);
    record t
      (Trace.Enter_location
         { automaton = name; location = st.info.loc.Location.name })

  let set_rate t h rate =
    if rate <= 0.0 || not (Float.is_finite rate) then
      Fmt.invalid_arg "executor: clock rate must be positive, got %g" rate;
    let st = t.states.(h) in
    sync t st;
    st.rate <- rate;
    wake_now t st
end

module Slot = struct
  type t = { owner : int; slot : int (* -1: undeclared, reads 0 *); var : Var.t }

  let reader exec h var =
    let slot =
      match Hashtbl.find_opt exec.states.(h).slots var with
      | Some j -> j
      | None -> -1
    in
    { owner = h; slot; var }

  let writer exec h var =
    let st = exec.states.(h) in
    { owner = h; slot = slot_exn st.automaton st.slots var; var }

  let get exec r =
    if r.slot < 0 then 0.0 else read_slot exec exec.states.(r.owner) r.slot

  let set exec r value =
    let st = exec.states.(r.owner) in
    if r.slot < 0 then ignore (slot_exn st.automaton st.slots r.var);
    write_slot exec st r.slot value
end

let value_of t name var = read t (state t name) var
let dwell_time t name = t.now -. (state t name).entered_at

(** Overwrite one variable, bypassing flows and resets. This is the hook
    for {e wired} physical couplings that the automata formalism cannot
    express without shared variables (which the system model forbids):
    e.g. the oximeter wired to the supervisor writes the sampled SpO2
    into the supervisor's local data state. Use through [pte_sim]'s
    coupling API rather than directly. Raises [Invalid_argument] when
    the automaton does not declare [var]. *)
let set_value t name var value =
  Slot.set t (Slot.writer t (state_ix t name) var) value

(** Crash an automaton: its flows freeze, its edges stop firing and
    incoming events are dropped until {!restart}. This realizes the
    fail-stop node faults of the robustness campaigns — a behaviour the
    paper's fault model (message loss only) does not cover, which is
    exactly why injecting it is informative. *)
let halt t name = Handle.halt t (state_ix t name)

(** Restart a crashed (or running) automaton from its initial location
    and valuation, as a rebooted node would. *)
let restart t name = Handle.restart t (state_ix t name)

let is_halted t name = (state t name).halted

(** Set an automaton's local clock-drift factor: each global step of
    [dt] advances its continuous state by [rate * dt]. [rate < 1] runs
    its clocks slow (leases expire late), [rate > 1] fast. *)
let set_rate t name rate = Handle.set_rate t (state_ix t name) rate

let rate t name = (state t name).rate

let push (t : t) ~due ~owner payload =
  if not (Float.is_finite due) then
    Fmt.invalid_arg "executor: event due time must be finite, got %g" due;
  (* the heap's FIFO counter advances once per push, in step with
     [next_token], so due-ties pop in token (insertion) order *)
  let token = t.next_token in
  t.next_token <- token + 1;
  Hashtbl.replace t.live token ();
  Pte_util.Heap.push t.pending due { token; owner; payload };
  let size = Pte_util.Heap.length t.pending in
  if size > t.queue_high_water then t.queue_high_water <- size;
  token

let enqueue t ~due ~receiver ~root =
  let owner = t.states.(receiver).automaton.Automaton.name in
  ignore (push t ~due ~owner (Message { receiver; root }))

(** Schedule [f] to run at absolute time [at] (never earlier than the
    current instant), on the same timeline as message deliveries. The
    returned token revokes it through {!cancel} as long as it has not
    fired. This is the hook behind the event-driven ARQ transport:
    retransmission timers live in the delivery queue, so an arriving ACK
    can cancel the pending retransmission before the channel sees it.
    [owner] names the automaton whose exchange armed the timer — it is
    blamed in Zeno diagnostics instead of the anonymous ["<timer>"].
    Raises [Invalid_argument] when [at] is NaN or infinite: such a timer
    could never fire ([Float.max nan now] is NaN), wedging the exchange
    and leaking the cancel token. *)
let schedule t ?(owner = "<timer>") ~at f =
  if not (Float.is_finite at) then
    Fmt.invalid_arg "executor: timer due time must be finite, got %g" at;
  push t ~due:(Float.max at t.now) ~owner (Timer f)

(** Revoke a scheduled timer or arrival before it fires. Unknown or
    already-fired tokens are ignored (cancellation is idempotent). *)
let cancel t token = Hashtbl.remove t.live token

(* Pop the next live entry due by the current instant, or [nothing_due],
   discarding the cancelled entries (tombstones) that surface first.
   Allocates nothing. *)
let rec pop_due (t : t) =
  let pending = t.pending in
  if Pte_util.Heap.is_empty pending then nothing_due
  else
    let p = Pte_util.Heap.min_value pending in
    if not (Hashtbl.mem t.live p.token) then begin
      Pte_util.Heap.drop_min pending;
      t.tombstones_skipped <- t.tombstones_skipped + 1;
      pop_due t
    end
    else if Pte_util.Heap.min_priority pending <= t.now +. 1e-12 then begin
      Pte_util.Heap.drop_min pending;
      Hashtbl.remove t.live p.token;
      p
    end
    else nothing_due

let broadcast t ~sender ~root =
  let sender_name = t.states.(sender).automaton.Automaton.name in
  record t (Trace.Message_sent { sender = sender_name; root });
  match Hashtbl.find_opt t.listeners root with
  | None -> ()
  | Some ixs ->
      Array.iter
        (fun ix ->
          if ix <> sender then begin
            let receiver = t.states.(ix).automaton.Automaton.name in
            match t.router ~time:t.now ~sender:sender_name ~root ~receiver with
            | Lose -> record t (Trace.Message_lost { receiver; root })
            | Deliver delay -> enqueue t ~due:(t.now +. delay) ~receiver:ix ~root
            | Deferred -> ()
          end)
        ixs

(* Apply a compiled reset. The assignments are simultaneous (every
   right-hand side reads the pre-transition valuation, snapshotted in
   [before]) and written in order, so a repeated target keeps its last
   assignment — {!Reset.apply} on the array. *)
let apply_reset st c =
  let n = Array.length c.reset_dst in
  if n > 0 then begin
    let values = st.values and before = st.before in
    Array.blit values 0 before 0 (Array.length values);
    for k = 0 to n - 1 do
      let dst = c.reset_dst.(k) in
      values.(dst) <-
        (match c.reset_ops.(k) with
        | Reset.Set_const x -> x
        | Reset.Add_const x -> before.(dst) +. x
        | Reset.Copy _ -> before.(c.reset_src.(k)))
    done
  end

(* Fire [c] from [st]'s current location. Emits trace entries and
   broadcasts any sent event. The caller maintains the chain budget. *)
let fire t st c ~forced =
  let edge = c.edge in
  let name = st.automaton.Automaton.name in
  record t
    (Trace.Transition
       { automaton = name; src = edge.src; dst = edge.dst; label = edge.label;
         forced });
  apply_reset st c;
  st.info <- info_of st edge.dst;
  st.entered_at <- t.now;
  activate t st;
  wake_now t st;
  t.events <- t.events + 1;
  record t
    (Trace.Enter_location
       { automaton = name; location = st.info.loc.Location.name });
  match edge.label with
  | Some (Label.Send root) -> broadcast t ~sender:st.ix ~root
  | Some (Label.Internal _) | Some (Label.Recv _) | Some (Label.Recv_lossy _)
  | None ->
      ()

(* Index of the first edge of [edges] whose guard holds on [values], or
   -1: a plain loop, since a local closure would allocate per call. *)
let first_enabled edges values =
  let n = Array.length edges in
  let k = ref 0 in
  while !k < n && not (Guard.flat_holds edges.(!k).guard values) do
    incr k
  done;
  if !k < n then !k else -1

(* Deliver [root] to [receiver]: fires the first enabled triggered edge
   listening on [root] in the current location, if any. *)
let deliver t ~receiver ~root =
  let st = t.states.(receiver) in
  let name = st.automaton.Automaton.name in
  sync t st;
  t.events <- t.events + 1;
  if st.halted then begin
    (* a crashed node's radio is off: the frame arrives at nobody *)
    record t
      (Trace.Message_delivered { receiver = name; root; consumed = false });
    false
  end
  else
    let edges =
      match Hashtbl.find_opt st.info.triggered root with
      | Some edges -> edges
      | None -> [||]
    in
    let k = first_enabled edges st.values in
    if k >= 0 then begin
      record t
        (Trace.Message_delivered { receiver = name; root; consumed = true });
      fire t st edges.(k) ~forced:false;
      true
    end
    else begin
      record t
        (Trace.Message_delivered { receiver = name; root; consumed = false });
      false
    end

(** Hand [root] to [receiver] at the current instant — the delivery half
    of a {!Deferred} routing decision (the event-driven transport calls
    this from a scheduled arrival callback). Returns [true] when a
    triggered edge consumed it. Any resulting cascade (eager edges,
    sends) is finished by the enclosing {!stabilize} loop. *)
let deliver_now t ~receiver ~root = deliver t ~receiver:(state_ix t receiver) ~root

(** Record that a send owned by a {!Deferred} router was lost — the
    asynchronous counterpart of the [Lose] routing decision, so traces
    show the loss at the instant the transport gave up rather than at
    the send instant. *)
let lose_now t ~receiver ~root =
  record t (Trace.Message_lost { receiver; root })

(* Fire eager edges and deliver due events until quiescent at the current
   instant.

   Incremental form: only {e active} automata — those that fired,
   received a message, were externally mutated or sit in a location with
   eager spontaneous edges after a continuous step — are re-chased each
   round. Eager enabledness depends only on (location, valuation), and a
   chase that reaches its fixpoint leaves nothing enabled, so skipping
   quiescent automata removes no transition; active automata are visited
   in declaration order, so the firing order (and hence the trace) is
   exactly the full-scan order. *)
let stabilize t =
  let n = Array.length t.states in
  let max_chain = t.config.max_chain in
  let budget = max_chain * n in
  (* plain loops and local refs: a closure here would allocate on every
     call, twice per step *)
  let fires = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    (* due deliveries and timers, in order *)
    let draining = ref true in
    while !draining do
      let p = pop_due t in
      if p == nothing_due then draining := false
      else
      match p with
      | { payload = Message { receiver; root }; _ } ->
          incr fires;
          if !fires > budget then
            raise
              (Zeno
                 {
                   automaton = t.states.(receiver).automaton.Automaton.name;
                   time = t.now;
                 });
          if deliver t ~receiver ~root then progress := true
      | { payload = Timer f; owner; _ } ->
          incr fires;
          if !fires > budget then
            raise (Zeno { automaton = owner; time = t.now });
          t.events <- t.events + 1;
          f t;
          progress := true
    done;
    (* the active automata, in index order; a halted one drops its mark
       ({!restart} sets it again) *)
    let i = ref 0 in
    while t.n_active > 0 && !i < n do
      let st = t.states.(!i) in
      incr i;
      if st.active && st.halted then begin
        st.active <- false;
        t.n_active <- t.n_active - 1
      end
      else if st.active then begin
        sync t st;
        (* chase: fire enabled eager edges, at most [max_chain] *)
        let chain = ref 0 in
        let chasing = ref true in
        while !chasing do
          if !chain >= max_chain then
            raise
              (Zeno { automaton = st.automaton.Automaton.name; time = t.now });
          let eager = st.info.eager in
          let k = first_enabled eager st.values in
          if k >= 0 then begin
            incr fires;
            if !fires > budget then
              raise
                (Zeno
                   { automaton = st.automaton.Automaton.name; time = t.now });
            fire t st eager.(k) ~forced:false;
            progress := true;
            incr chain
          end
          else chasing := false
        done;
        (* fixpoint reached: nothing eager is enabled here until a
           later delivery, mutation or continuous step re-marks it *)
        st.active <- false;
        t.n_active <- t.n_active - 1
      end
    done
  done

(* One Euler step of [span] seconds from absolute time [start] under the
   current location's flow, in place; [before] keeps the pre-step
   valuation. *)
let euler st ~start ~span =
  let values = st.values in
  Array.blit values 0 st.before 0 (Array.length values);
  match st.info.flow with
  | Const { slots; rates } ->
      for k = 0 to Array.length slots - 1 do
        let j = slots.(k) in
        values.(j) <- values.(j) +. (rates.(k) *. span)
      done
  | Ode { reads; writes; f; x; dx } ->
      ode_step values ~reads ~writes ~f ~x ~dx start span

(* Advance one automaton's continuous state by [span] seconds starting at
   absolute time [start]; handles invariant boundaries by bisection and
   forced transitions. Precondition: invariant holds at entry. *)
let rec advance_automaton t st ~start ~span ~depth =
  if span <= 0.0 then ()
  else begin
    if depth > t.config.max_chain then
      raise (Zeno { automaton = st.automaton.Automaton.name; time = start });
    euler st ~start ~span;
    if not (Guard.flat_holds st.info.invariant st.values) then
      cross_boundary t st ~start ~span ~depth
  end

(* The step from [before] to [values] left the invariant: bisect for the
   largest alpha in [0,1] keeping it, move there, force an enabled
   spontaneous edge and advance the rest of the span under the new
   location. *)
and cross_boundary t st ~start ~span ~depth =
  let invariant = st.info.invariant in
  let from = st.before and target = st.values in
  let alpha = ref 0.0 in
  let width = ref 0.5 in
  for _ = 1 to 30 do
    let candidate = !alpha +. !width in
    if Guard.flat_holds_between invariant ~from ~target candidate then
      alpha := candidate;
    width := !width /. 2.0
  done;
  let alpha = !alpha in
  for j = 0 to Array.length target - 1 do
    target.(j) <- from.(j) +. (alpha *. (target.(j) -. from.(j)))
  done;
  let boundary_time = start +. (alpha *. span) in
  let saved_now = t.now in
  t.now <- boundary_time;
  let spontaneous = st.info.spontaneous in
  let k = first_enabled spontaneous st.values in
  if k < 0 then
    raise
      (Time_block
         {
           automaton = st.automaton.Automaton.name;
           location = st.info.loc.Location.name;
           time = boundary_time;
         });
  fire t st spontaneous.(k) ~forced:true;
  t.now <- saved_now;
  advance_automaton t st ~start:boundary_time
    ~span:(span -. (alpha *. span))
    ~depth:(depth + 1)

let sample t =
  List.iter
    (fun (automaton, var) ->
      match Hashtbl.find_opt t.index automaton with
      | None -> ()
      | Some ix ->
          record t
            (Trace.Sample { automaton; var; value = read t t.states.(ix) var }))
    t.config.sample_vars

(** Advance the whole system by one step of [config.dt]. *)
let step (t : t) =
  t.cursor <- 0 (* a raise inside the loop below leaves it set *);
  stabilize t;
  let start = t.now in
  let s = t.steps in
  let dt = t.config.dt in
  let states = t.states and wake = t.wake in
  (* no automaton is due: skip the scan *)
  if t.next_wake <= s then begin
    t.next_wake <- max_int;
    let next = ref max_int in
    for i = 0 to Array.length states - 1 do
      if wake.(i) <= s then begin
        let st = states.(i) in
        if st.halted then wake.(i) <- max_int (* {!restart} wakes it *)
        else begin
          t.cursor <- i;
          catch_up t st s;
          t.step_bodies <- t.step_bodies + 1;
          let span = dt *. st.rate in
          let info = st.info in
          (match info.flow with
          | Const { slots; rates } when not (span <= 0.0) ->
              (* {!euler} inlined: no call, hence no boxed [span] *)
              let values = st.values in
              let bounded = Array.length info.invariant.Guard.slots > 0 in
              if bounded then Array.blit values 0 st.before 0 (Array.length values);
              for k = 0 to Array.length slots - 1 do
                let j = slots.(k) in
                values.(j) <- values.(j) +. (rates.(k) *. span)
              done;
              if bounded && not (Guard.flat_holds info.invariant values) then
                cross_boundary t st ~start ~span ~depth:0
          | Const _ -> advance_automaton t st ~start ~span ~depth:0
          | Ode _ ->
              t.ode_steps <- t.ode_steps + 1;
              advance_automaton t st ~start ~span ~depth:0);
          st.synced <- s + 1;
          t.synced_at.(i) <- start +. dt;
          (* time passed: only a location with eager spontaneous edges can
             have gained an enabled transition from it *)
          if st.info.has_eager then activate t st;
          let n = steps_to_wake t st in
          wake.(i) <- (if n = max_int then max_int else s + n)
        end
      end;
      if wake.(i) < !next then next := wake.(i)
    done;
    (* a [wake_now] during the loop set it to 0: keep that *)
    t.next_wake <- Int.min !next t.next_wake
  end;
  t.cursor <- 0;
  t.steps <- s + 1;
  t.now <- start +. dt;
  stabilize t;
  if t.config.sample_vars <> [] && t.now >= t.next_sample -. 1e-12 then begin
    sample t;
    (* catch up past [now]: with dt > sample_period the old one-period
       bump fell permanently behind, emitting a stale burst *)
    t.next_sample <- t.next_sample +. t.config.sample_period;
    while t.now >= t.next_sample -. 1e-12 do
      t.next_sample <- t.next_sample +. t.config.sample_period
    done
  end

let run t ~until =
  while t.now < until -. 1e-12 do
    step t
  done

(** Deliver an environment stimulus to one automaton at the current time
    (used by scenarios for "at any time" environment transitions, e.g.
    the surgeon's request in the paper's emulation). Returns [true] if a
    triggered edge consumed it. *)
let inject t ~receiver ~root =
  record t (Trace.Message_sent { sender = "env"; root });
  let consumed = deliver t ~receiver:(state_ix t receiver) ~root in
  stabilize t;
  consumed
