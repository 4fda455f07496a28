(** Trace monitor for PTE Safety Rules 1 and 2.

    Decides, from a recorded execution trace, whether a run satisfied the
    PTE safety rules of Section III. This is the measurement instrument
    behind the Table-I reproduction: a trial's "# of Failures" is the
    number of violation episodes this monitor reports.

    The monitor works on each entity's {e risky intervals} — maximal
    spans of continuous dwelling in risky-locations — because both rules
    quantify over exactly those: Rule 1 bounds their length; properties
    p1–p3 of Definition 1 relate the intervals of consecutive entities:

    - p2 requires every inner interval to be contained in an outer one;
    - p1 requires the covering outer interval to start at least
      T^min_risky:i→i+1 before the inner one;
    - p3 requires it to end at least T^min_safe:i+1→i after. *)

type violation =
  | Dwell_exceeded of {
      entity : string;
      start : float;
      stop : float;
      bound : float;
    }
  | Not_embedded of { outer : string; inner : string; start : float; stop : float }
  | Enter_safeguard of {
      outer : string;
      inner : string;
      inner_start : float;
      outer_start : float;
      required : float;
    }
  | Exit_safeguard of {
      outer : string;
      inner : string;
      inner_start : float;  (** identifies the inner episode *)
      inner_stop : float;
      outer_stop : float;
      required : float;
    }

type report = {
  horizon : float;
  intervals : (string * (float * float) list) list;
      (** Risky intervals per entity, merged and in time order. *)
  violations : violation list;
}

let tolerance = 1e-6

(* Merge intervals separated by a zero-length gap (instantaneous dispatch
   locations between two risky locations fire at one timestamp). *)
let merge_adjacent intervals =
  let rec go = function
    | (a, b) :: (c, d) :: rest when c -. b <= tolerance ->
        go ((a, Float.max b d) :: rest)
    | head :: rest -> head :: go rest
    | [] -> []
  in
  go intervals

let tidy spans =
  merge_adjacent spans |> List.filter (fun (a, b) -> b -. a > tolerance)

let risky_intervals trace ~entity ~risky ~initial ~horizon =
  Pte_hybrid.Trace.intervals trace ~automaton:entity ~member:(risky entity)
    ~initial:(initial entity) ~horizon
  |> tidy

(* One entity's state in the one-pass scan: {!Pte_hybrid.Trace.intervals}'
   fold, run for every entity at once. *)
type scan = {
  member : string -> bool;
  mutable current : string;
  mutable start : float;  (* of the open risky interval *)
  mutable spans : (float * float) list;  (* closed ones, reversed *)
}

(* [risky_intervals] of every entity in [entities], in one pass over the
   trace: transitions of other automata, and those whose [src] is not
   the entity's current location, are skipped as there. *)
let all_risky_intervals trace entities ~risky ~initial ~horizon =
  let scans = Hashtbl.create (2 * List.length entities) in
  List.iter
    (fun entity ->
      let current = initial entity in
      if not (Hashtbl.mem scans entity) then begin
        let member = risky entity in
        Hashtbl.replace scans entity
          { member; current; start = (if member current then 0.0 else nan);
            spans = [] }
      end)
    entities;
  let close s stop =
    if stop > s.start then s.spans <- (s.start, stop) :: s.spans
  in
  List.iter
    (fun { Pte_hybrid.Trace.time; event } ->
      match event with
      | Pte_hybrid.Trace.Transition { automaton; src; dst; _ } -> (
          match Hashtbl.find_opt scans automaton with
          | Some s when String.equal src s.current ->
              let was = s.member s.current and is = s.member dst in
              if was && not is then close s time;
              if is && not was then s.start <- time;
              s.current <- dst
          | Some _ | None -> ())
      | _ -> ())
    trace;
  Hashtbl.iter (fun _ s -> if s.member s.current then close s horizon) scans;
  List.map
    (fun entity -> (entity, tidy (List.rev (Hashtbl.find scans entity).spans)))
    entities

let check_rule1 (spec : Rules.t) intervals ~horizon:_ =
  (* {!Rules.dwell_bound} as a table: a list lookup per entity is
     quadratic in N *)
  let bounds = Hashtbl.create (2 * List.length spec.Rules.dwell_bounds) in
  List.iter
    (fun (entity, bound) ->
      if not (Hashtbl.mem bounds entity) then Hashtbl.replace bounds entity bound)
    spec.Rules.dwell_bounds;
  List.concat_map
    (fun (entity, spans) ->
      let bound =
        match Hashtbl.find_opt bounds entity with Some b -> b | None -> infinity
      in
      List.filter_map
        (fun (start, stop) ->
          if stop -. start > bound +. tolerance then
            Some (Dwell_exceeded { entity; start; stop; bound })
          else None)
        spans)
    intervals

let check_pair (pair : Rules.pair) ~outer_spans ~inner_spans ~horizon =
  List.concat_map
    (fun (s, e) ->
      (* the covering outer interval, if any (p2) *)
      let cover =
        List.find_opt
          (fun (a, b) -> a <= s +. tolerance && b +. tolerance >= e)
          outer_spans
      in
      match cover with
      | None ->
          [ Not_embedded { outer = pair.Rules.outer; inner = pair.Rules.inner;
                           start = s; stop = e } ]
      | Some (a, b) ->
          let p1 =
            (* outer must have been risky for T_risky before inner entered;
               an inner interval truncated at time 0 cannot be judged. *)
            if a > s -. pair.Rules.enter_risky_min +. tolerance && s > tolerance
            then
              [ Enter_safeguard
                  { outer = pair.Rules.outer; inner = pair.Rules.inner;
                    inner_start = s; outer_start = a;
                    required = pair.Rules.enter_risky_min } ]
            else []
          in
          let p3 =
            (* outer must stay risky for T_safe after inner exits; spans
               still open at the horizon are unresolved, not violations. *)
            if
              e < horizon -. tolerance
              && b < horizon -. tolerance
              && b < e +. pair.Rules.exit_safe_min -. tolerance
            then
              [ Exit_safeguard
                  { outer = pair.Rules.outer; inner = pair.Rules.inner;
                    inner_start = s; inner_stop = e; outer_stop = b;
                    required = pair.Rules.exit_safe_min } ]
            else []
          in
          p1 @ p3)
    inner_spans

let analyze trace (spec : Rules.t) ~risky ~initial ~horizon =
  let intervals =
    all_risky_intervals trace spec.Rules.order ~risky ~initial ~horizon
  in
  let by_entity = Hashtbl.create (2 * List.length intervals) in
  List.iter
    (fun (entity, spans) ->
      if not (Hashtbl.mem by_entity entity) then
        Hashtbl.replace by_entity entity spans)
    intervals;
  let spans_of entity =
    match Hashtbl.find_opt by_entity entity with Some s -> s | None -> []
  in
  let rule1 = check_rule1 spec intervals ~horizon in
  let rule2 =
    List.concat_map
      (fun (pair : Rules.pair) ->
        check_pair pair
          ~outer_spans:(spans_of pair.Rules.outer)
          ~inner_spans:(spans_of pair.Rules.inner)
          ~horizon)
      spec.Rules.pairs
  in
  { horizon; intervals; violations = rule1 @ rule2 }

(** Convenience: derive [risky]/[initial] from the hybrid system's
    automata (risky-locations as declared on the automata). *)
let analyze_system trace (system : Pte_hybrid.System.t) spec ~horizon =
  (* name -> automaton, the first of a repeated name as [System.find] *)
  let automata = Hashtbl.create (2 * List.length system.Pte_hybrid.System.automata) in
  List.iter
    (fun (a : Pte_hybrid.Automaton.t) ->
      if not (Hashtbl.mem automata a.Pte_hybrid.Automaton.name) then
        Hashtbl.replace automata a.Pte_hybrid.Automaton.name a)
    system.Pte_hybrid.System.automata;
  let risky entity location =
    match Hashtbl.find_opt automata entity with
    | Some a -> Pte_hybrid.Automaton.is_risky a location
    | None -> false
  in
  let initial entity =
    match Hashtbl.find_opt automata entity with
    | Some a -> a.Pte_hybrid.Automaton.initial_location
    | None ->
        (* raises, naming the system and the entity *)
        (Pte_hybrid.System.find_exn system entity).Pte_hybrid.Automaton.initial_location
  in
  analyze trace spec ~risky ~initial ~horizon

let ok report = report.violations = []

(** Number of violation {e episodes}: distinct risky intervals implicated,
    matching the paper's per-incident failure counting. Two safeguard
    breaches of the same inner interval are one failure. *)
let episodes report =
  let key = function
    | Dwell_exceeded { entity; start; _ } -> (entity, start)
    | Not_embedded { inner; start; _ } -> (inner, start)
    | Enter_safeguard { inner; inner_start; _ } -> (inner, inner_start)
    | Exit_safeguard { inner; inner_start; _ } -> (inner, inner_start)
  in
  report.violations |> List.map key |> List.sort_uniq compare |> List.length

let pp_violation ppf = function
  | Dwell_exceeded { entity; start; stop; bound } ->
      Fmt.pf ppf "Rule 1: %s dwelt in risky-locations %.3f..%.3f (%.3fs > bound %.3fs)"
        entity start stop (stop -. start) bound
  | Not_embedded { outer; inner; start; stop } ->
      Fmt.pf ppf "Rule 2 (p2): %s risky %.3f..%.3f not embedded in %s" inner
        start stop outer
  | Enter_safeguard { outer; inner; inner_start; outer_start; required } ->
      Fmt.pf ppf
        "Rule 2 (p1): %s entered risky at %.3f only %.3fs after %s (need %.3fs)"
        inner inner_start (inner_start -. outer_start) outer required
  | Exit_safeguard { outer; inner; inner_stop; outer_stop; required; _ } ->
      Fmt.pf ppf
        "Rule 2 (p3): %s stayed risky only %.3fs after %s exited at %.3f (need %.3fs)"
        outer (outer_stop -. inner_stop) inner inner_stop required

let pp_report ppf report =
  if ok report then Fmt.pf ppf "PTE safety rules satisfied"
  else
    Fmt.pf ppf "@[<v>%d violation(s), %d episode(s):@,%a@]"
      (List.length report.violations)
      (episodes report)
      Fmt.(list ~sep:cut pp_violation)
      report.violations
