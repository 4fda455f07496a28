(** Scenario combinators: the environment behaviours outside the automata.

    The paper's emulation drives the system with three kinds of external
    events (Section V): the surgeon's request timer Ton, the surgeon's
    cancel timer Toff (both exponential), and the supervisor's abort when
    the ApprovalCondition fails. These combinators reproduce that setup
    and generalize it for the other examples.

    Each combinator resolves the automata, locations and written
    variables it names once, when it is registered — an unknown one
    raises [Invalid_argument] there, not inside a later step — and then
    polls by index: an instant at which no location changed compares no
    string. *)

open Pte_hybrid

(** Arm an exponential timer whenever [automaton] dwells in [armed_in];
    when it fires and the automaton is still there, inject [root]
    (locally, losslessly — the stimulus is the environment's "human
    will", not a network message). Re-arms on every fresh entry, exactly
    like the paper's Ton/Toff timers which are created on entry and
    destroyed on exit.

    [immediately] fires the very first timer at time ~0 (used by
    single-episode scenario tests). *)
let exponential_stimulus engine ~mean ?(immediately = false) ~automaton
    ~armed_in ~root () =
  let rng = Engine.fork_rng engine in
  let exec = Engine.executor engine in
  let h = Executor.Handle.find exec automaton in
  let armed = Executor.Handle.location_index exec h armed_in in
  let deadline = ref None in
  let first = ref immediately in
  Engine.add_process engine ~name:(root ^ "-timer") (fun engine ~time ->
      if Executor.Handle.location_id exec h = armed then
        match !deadline with
        | None ->
            let delay =
              if !first then 0.0
              else Pte_util.Rng.exponential rng ~mean
            in
            first := false;
            deadline := Some (time +. delay)
        | Some due when time >= due ->
            deadline := None;
            Engine.inject engine ~receiver:automaton ~root
        | Some _ -> ()
      else deadline := None)

(** Inject [root] exactly once, the first time [automaton] dwells in
    [armed_in] at or after [at]. *)
let one_shot engine ~at ~automaton ~armed_in ~root =
  let exec = Engine.executor engine in
  let h = Executor.Handle.find exec automaton in
  let armed = Executor.Handle.location_index exec h armed_in in
  let done_ = ref false in
  Engine.add_process engine ~name:(root ^ "-oneshot") (fun engine ~time ->
      if (not !done_) && time >= at then
        if Executor.Handle.location_id exec h = armed then begin
          done_ := true;
          Engine.inject engine ~receiver:automaton ~root
        end)

(** Periodically copy a (possibly transformed) reading from one
    automaton's data state into another's — the wired-sensor coupling
    (e.g. oximeter → supervisor). [transform] sees the raw value and the
    component RNG (for sensor noise). *)
let wired_sensor engine ~period ~from:(src_automaton, src_var)
    ~to_:(dst_automaton, dst_var) ?(transform = fun _rng v -> v) () =
  let rng = Engine.fork_rng engine in
  let exec = Engine.executor engine in
  let src =
    Executor.Slot.reader exec (Executor.Handle.find exec src_automaton) src_var
  in
  let dst =
    Executor.Slot.writer exec (Executor.Handle.find exec dst_automaton) dst_var
  in
  Engine.add_process engine ~period ~name:(src_var ^ "-sensor")
    (fun _engine ~time:_ ->
      Executor.Slot.set exec dst (transform rng (Executor.Slot.get exec src)))

(** Every step, write [f engine] into [automaton.var] — for physical
    couplings such as "the patient is being ventilated iff the
    ventilator dwells in a ventilating location". *)
let coupling engine ~automaton ~var f =
  let exec = Engine.executor engine in
  let dst = Executor.Slot.writer exec (Executor.Handle.find exec automaton) var in
  Engine.add_process engine ~name:(var ^ "-coupling") (fun engine ~time:_ ->
      Executor.Slot.set exec dst (f engine))
