(* Differential testing of the PTE monitor against a brute-force
   reference: random two-entity timelines are checked both by the
   interval-based monitor and by dense time-sampling of the rule
   definitions. The two verdicts must agree. *)

open Pte_core
open Pte_hybrid

let horizon = 100.0
let bound = 25.0
let t_risky = 3.0
let t_safe = 1.5

let spec =
  Rules.make ~order:[ "outer"; "inner" ]
    ~dwell_bounds:[ ("outer", bound); ("inner", bound) ]
    ~safeguards:[ { Params.enter_risky_min = t_risky; exit_safe_min = t_safe } ]

(* A timeline is a list of disjoint risky intervals within [0, horizon). *)
let timeline_gen =
  QCheck.Gen.(
    let* n = int_range 0 3 in
    let* points = list_repeat (2 * n) (float_range 0.5 (horizon -. 1.0)) in
    let sorted = List.sort Float.compare points in
    let rec pair = function
      | a :: b :: rest -> (a, b) :: pair rest
      | _ -> []
    in
    (* drop degenerate/touching intervals to keep the reference simple *)
    let rec well_separated = function
      | (a1, b1) :: ((a2, _) :: _ as rest) ->
          b1 -. a1 > 0.2 && a2 -. b1 > 0.2 && well_separated rest
      | [ (a, b) ] -> b -. a > 0.2
      | [] -> true
    in
    let intervals = pair sorted in
    return (if well_separated intervals then intervals else []))

let trace_of_timelines outer inner =
  let events entity spans =
    List.concat_map
      (fun (a, b) ->
        [
          { Trace.time = a;
            event =
              Trace.Transition
                { automaton = entity; src = "S"; dst = "R"; label = None;
                  forced = false } };
          { Trace.time = b;
            event =
              Trace.Transition
                { automaton = entity; src = "R"; dst = "S"; label = None;
                  forced = false } };
        ])
      spans
  in
  List.sort
    (fun a b -> Float.compare a.Trace.time b.Trace.time)
    (events "outer" outer @ events "inner" inner)

(* Reference: dense sampling + direct event checks. *)
let reference_ok outer inner =
  let inside spans t = List.exists (fun (a, b) -> a <= t && t < b) spans in
  let dt = 0.05 in
  let steps = int_of_float (horizon /. dt) in
  let p2 = ref true in
  for i = 0 to steps - 1 do
    let t = Float.of_int i *. dt in
    if inside inner t && not (inside outer t) then p2 := false
  done;
  let dwell_ok spans =
    List.for_all (fun (a, b) -> b -. a <= bound +. 1e-9) spans
  in
  (* p1: at each inner start, outer must have been risky throughout
     [s - t_risky, s] *)
  let p1 =
    List.for_all
      (fun (s, _) ->
        List.exists (fun (a, b) -> a <= s -. t_risky +. 1e-9 && b >= s) outer)
      inner
  in
  (* p3: at each inner end, outer must stay risky until e + t_safe *)
  let p3 =
    List.for_all
      (fun (_, e) ->
        List.exists (fun (a, b) -> a <= e && b >= e +. t_safe -. 1e-9) outer)
      inner
  in
  !p2 && dwell_ok outer && dwell_ok inner && p1 && p3

let prop_monitor_agrees_with_reference =
  QCheck.Test.make ~name:"monitor = brute-force reference on random timelines"
    ~count:500
    (QCheck.make
       QCheck.Gen.(pair timeline_gen timeline_gen)
       ~print:(fun (o, i) ->
         Fmt.str "outer=%a inner=%a"
           Fmt.(list ~sep:comma (pair ~sep:(any "..") float float))
           o
           Fmt.(list ~sep:comma (pair ~sep:(any "..") float float))
           i))
    (fun (outer, inner) ->
      let trace = trace_of_timelines outer inner in
      let report =
        Monitor.analyze trace spec
          ~risky:(fun _ l -> String.equal l "R")
          ~initial:(fun _ -> "S")
          ~horizon
      in
      Monitor.ok report = reference_ok outer inner)

(* ---- one-pass intervals against the per-entity fold ---- *)

let entities = [ "e0"; "e1"; "e2" ]
let locations = [| "S"; "D"; "R1"; "R2" |]
let risky_loc _ l = String.length l > 0 && l.[0] = 'R'
let initial_loc = function "e1" -> "R1" | _ -> "S"

(* One raw trace step: who moves ([3] is an automaton no spec names),
   whether its [src] is its current location or an arbitrary one, the
   destination, and the time since the previous entry — often zero, so
   that risky -> safe -> risky at one instant (a zero-gap merge) is
   common. *)
type move = { who : int; follow : bool; src : int; dst : int; gap : float }

let gen_move =
  QCheck.Gen.(
    let* who = int_range 0 3 in
    let* follow = frequency [ (4, return true); (1, return false) ] in
    let* src = int_range 0 3 in
    let* dst = int_range 0 3 in
    let* gap =
      frequency
        [ (3, return 0.0); (1, return 1e-7); (4, float_range 0.0 5.0) ]
    in
    return { who; follow; src; dst; gap })

(* The trace of [moves], with a note between entries (skipped by both
   scans), and the horizon [tail] after the last entry: zero leaves
   every interval still open at it. *)
let trace_of_moves moves ~tail =
  let current = Hashtbl.create 4 in
  List.iter (fun e -> Hashtbl.replace current e (initial_loc e)) entities;
  let now = ref 0.0 in
  let entries =
    List.concat_map
      (fun m ->
        now := !now +. m.gap;
        let automaton = if m.who = 3 then "ghost" else List.nth entities m.who in
        let cur =
          Option.value (Hashtbl.find_opt current automaton) ~default:"S"
        in
        let src = if m.follow then cur else locations.(m.src) in
        let dst = locations.(m.dst) in
        if String.equal src cur then Hashtbl.replace current automaton dst;
        [ { Trace.time = !now; event = Trace.Note "tick" };
          { Trace.time = !now;
            event =
              Trace.Transition
                { automaton; src; dst; label = None; forced = false } } ])
      moves
  in
  (entries, !now +. tail)

let spec3 =
  Rules.make ~order:entities
    ~dwell_bounds:(List.map (fun e -> (e, bound)) entities)
    ~safeguards:
      (List.init 2 (fun _ ->
           { Params.enter_risky_min = t_risky; exit_safe_min = t_safe }))

let prop_one_pass_matches_fold =
  QCheck.Test.make ~name:"one-pass intervals = per-entity fold" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_range 0 40) gen_move)
           (frequency [ (1, return 0.0); (2, float_range 0.0 3.0) ]))
       ~print:(fun (moves, tail) ->
         Fmt.str "tail=%g moves=%s" tail
           (String.concat "; "
              (List.map
                 (fun m ->
                   Printf.sprintf "%d%s %s->%s +%g" m.who
                     (if m.follow then "" else "!")
                     locations.(m.src) locations.(m.dst) m.gap)
                 moves))))
    (fun (moves, tail) ->
      let trace, horizon = trace_of_moves moves ~tail in
      let report =
        Monitor.analyze trace spec3 ~risky:risky_loc ~initial:initial_loc
          ~horizon
      in
      let fold =
        List.map
          (fun entity ->
            ( entity,
              Monitor.risky_intervals trace ~entity ~risky:risky_loc
                ~initial:initial_loc ~horizon ))
          entities
      in
      if report.Monitor.intervals <> fold then
        QCheck.Test.fail_reportf "one pass %a@ fold %a"
          Fmt.(Dump.list (Dump.pair string (Dump.list (Dump.pair float float))))
          report.Monitor.intervals
          Fmt.(Dump.list (Dump.pair string (Dump.list (Dump.pair float float))))
          fold;
      true)

let suite =
  [
    ( "core.monitor-reference",
      [ QCheck_alcotest.to_alcotest prop_monitor_agrees_with_reference;
        QCheck_alcotest.to_alcotest prop_one_pass_matches_fold ] );
  ]
