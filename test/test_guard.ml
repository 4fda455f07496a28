(* Guard atoms and conjunctions: evaluation and analytic crossing times. *)

open Pte_hybrid

let v bindings = Valuation.of_list bindings

let test_always () =
  Alcotest.(check bool) "true guard" true (Guard.holds Guard.always (v []))

let test_atom_holds () =
  let checks =
    [
      (Guard.atom "x" Guard.Lt 5.0, 4.9, true);
      (Guard.atom "x" Guard.Lt 5.0, 5.1, false);
      (Guard.atom "x" Guard.Le 5.0, 5.0, true);
      (Guard.atom "x" Guard.Gt 5.0, 5.1, true);
      (Guard.atom "x" Guard.Gt 5.0, 4.9, false);
      (Guard.atom "x" Guard.Ge 5.0, 5.0, true);
      (Guard.atom "x" Guard.Eq 5.0, 5.0, true);
      (Guard.atom "x" Guard.Eq 5.0, 5.0001, false);
    ]
  in
  List.iter
    (fun (atom, value, expect) ->
      Alcotest.(check bool)
        (Fmt.str "%a at %g" Guard.pp_atom atom value)
        expect
        (Guard.atom_holds atom value))
    checks

let test_eps_slack () =
  (* a clock landing epsilon short of its threshold still enables the
     guard — required for the fixed-step executor *)
  let atom = Guard.atom "c" Guard.Ge 3.0 in
  Alcotest.(check bool) "within eps" true (Guard.atom_holds atom (3.0 -. 1e-12))

let test_conjunction () =
  let g = [ Guard.atom "x" Guard.Ge 1.0; Guard.atom "y" Guard.Lt 2.0 ] in
  Alcotest.(check bool) "both hold" true (Guard.holds g (v [ ("x", 1.5); ("y", 0.0) ]));
  Alcotest.(check bool) "one fails" false (Guard.holds g (v [ ("x", 0.5); ("y", 0.0) ]));
  Alcotest.(check bool) "other fails" false
    (Guard.holds g (v [ ("x", 1.5); ("y", 2.5) ]))

let test_missing_var_is_zero () =
  let g = [ Guard.atom "unset" Guard.Ge 0.0 ] in
  Alcotest.(check bool) "defaults to 0" true (Guard.holds g (v []))

let check_opt_float name expect actual =
  match (expect, actual) with
  | None, None -> ()
  | Some e, Some a when Float.abs (e -. a) < 1e-9 -> ()
  | _ ->
      Alcotest.failf "%s: expected %a, got %a" name
        Fmt.(option ~none:(any "none") float)
        expect
        Fmt.(option ~none:(any "none") float)
        actual

let test_time_to_satisfy () =
  let atom = Guard.atom "c" Guard.Ge 10.0 in
  check_opt_float "already true" (Some 0.0)
    (Guard.time_to_satisfy atom ~value:11.0 ~rate:1.0);
  check_opt_float "reaches in 4s" (Some 4.0)
    (Guard.time_to_satisfy atom ~value:6.0 ~rate:1.0);
  check_opt_float "wrong direction" None
    (Guard.time_to_satisfy atom ~value:6.0 ~rate:(-1.0));
  check_opt_float "frozen" None (Guard.time_to_satisfy atom ~value:6.0 ~rate:0.0);
  let down = Guard.atom "h" Guard.Le 0.0 in
  check_opt_float "descending" (Some 3.0)
    (Guard.time_to_satisfy down ~value:0.3 ~rate:(-0.1))

let test_time_to_violate () =
  let atom = Guard.atom "h" Guard.Le 0.3 in
  check_opt_float "hits ceiling" (Some 2.0)
    (Guard.time_to_violate atom ~value:0.1 ~rate:0.1);
  check_opt_float "moving away" None
    (Guard.time_to_violate atom ~value:0.1 ~rate:(-0.1));
  check_opt_float "already violated" (Some 0.0)
    (Guard.time_to_violate atom ~value:0.5 ~rate:0.1)

let test_invariant_horizon () =
  let invariant =
    [ Guard.atom "h" Guard.Ge 0.0; Guard.atom "h" Guard.Le 0.3 ]
  in
  let rate_of _ = -0.1 in
  match Guard.invariant_horizon invariant (v [ ("h", 0.2) ]) rate_of with
  | Some d -> Alcotest.(check bool) "2s to floor" true (Float.abs (d -. 2.0) < 1e-9)
  | None -> Alcotest.fail "expected finite horizon"

let prop_time_to_satisfy_correct =
  QCheck.Test.make ~name:"time_to_satisfy lands on a satisfying value"
    ~count:500
    QCheck.(triple (float_range (-50.) 50.) (float_range (-5.) 5.) (float_range (-50.) 50.))
    (fun (value, rate, bound) ->
      let atom = Guard.atom "x" Guard.Ge bound in
      match Guard.time_to_satisfy atom ~value ~rate with
      | None -> true
      | Some d ->
          d >= 0.0 && Guard.atom_holds atom (value +. (rate *. d)))

let prop_conjunction_monotone =
  QCheck.Test.make ~name:"adding atoms only shrinks the guard set" ~count:300
    QCheck.(pair (float_range (-10.) 10.) (float_range (-10.) 10.))
    (fun (x, bound) ->
      let base = [ Guard.atom "x" Guard.Ge (-20.0) ] in
      let narrowed = Guard.atom "x" Guard.Le bound :: base in
      let valuation = v [ ("x", x) ] in
      (not (Guard.holds narrowed valuation)) || Guard.holds base valuation)

(* ---- step prediction against a brute-force Euler replay ---- *)

let replay_limit = 1_000_000

(* The first of [limit] float additions of [delta] to [value] after
   which the atom's truth differs from its truth at [value], if any. *)
let first_flip cmp ~bound ~value ~delta ~limit =
  let atom = Guard.atom "x" cmp bound in
  let holds = Guard.atom_holds atom value in
  let x = ref value and k = ref 0 and flip = ref None in
  while Option.is_none !flip && !k < limit do
    x := !x +. delta;
    incr k;
    if Guard.atom_holds atom !x <> holds then flip := Some !k
  done;
  !flip

let gen_cmp = QCheck.Gen.oneofl Guard.[ Lt; Le; Gt; Ge; Eq ]

(* x0 anywhere from tiny to large, a rate that may be negative, tiny or
   zero, a step, and a bound placed up to [replay_limit] steps away in
   either direction (or just past the eps slack), so most draws flip
   within the replay. *)
let gen_prediction_case =
  QCheck.Gen.(
    let* cmp = gen_cmp in
    let* value =
      frequency
        [ (4, float_range (-100.0) 100.0); (1, float_range (-1e6) 1e6);
          (1, float_range (-1e-6) 1e-6) ]
    in
    let* rate =
      frequency
        [ (5, float_range (-5.0) 5.0); (1, float_range (-1e-9) 1e-9);
          (1, return 0.0); (1, oneofl [ 1.0; -1.0; 1.07; 0.5 ]) ]
    in
    let* span = oneof [ float_range 1e-4 0.1; oneofl [ 1e-3; 1e-2 ] ] in
    let* steps = int_range 0 replay_limit in
    let* jitter =
      oneof [ float_range (-2e-9) 2e-9; return 0.0; float_range (-1.0) 1.0 ]
    in
    let bound = value +. (rate *. span *. Float.of_int steps) +. jitter in
    return (cmp, value, rate, span, bound))

let prop_steps_to_flip_never_late =
  QCheck.Test.make ~name:"steps_to_flip is never later than a replay's flip"
    ~count:150
    (QCheck.make gen_prediction_case
       ~print:(fun (cmp, value, rate, span, bound) ->
         Fmt.str "x %a %h from %h, rate %h, span %h" Guard.pp_cmp cmp bound
           value rate span))
    (fun (cmp, value, rate, span, bound) ->
      let delta = rate *. span in
      let n = Guard.steps_to_flip cmp ~bound ~value ~delta in
      if n < 1 then QCheck.Test.fail_reportf "prediction %d < 1" n;
      (* the prediction claims additions 1 .. n - 1 keep the truth *)
      match
        first_flip cmp ~bound ~value ~delta ~limit:(Int.min (n - 1) replay_limit)
      with
      | None -> true
      | Some k -> QCheck.Test.fail_reportf "predicted %d, flipped at %d" n k)

let test_steps_to_flip_tight () =
  (* a clock from 0.25 at 1 ms steps toward 5 and -3: the prediction is
     at most a few steps early, and never late *)
  List.iter
    (fun (cmp, bound, delta) ->
      let value = 0.25 in
      let n = Guard.steps_to_flip cmp ~bound ~value ~delta in
      match first_flip cmp ~bound ~value ~delta ~limit:replay_limit with
      | None -> Alcotest.fail "no flip within the replay"
      | Some k ->
          if n > k || n < k - 3 then
            Alcotest.failf "%a %g: predicted %d, flip at %d" Guard.pp_cmp cmp
              bound n k)
    Guard.
      [ (Le, 5.0, 1e-3); (Gt, 5.0, 1e-3); (Eq, 5.0, 1e-3); (Ge, -3.0, -1e-3);
        (Lt, -3.0, -1e-3) ];
  Alcotest.(check int) "moving away never flips" max_int
    (Guard.steps_to_flip Guard.Le ~bound:5.0 ~value:0.25 ~delta:(-1e-3));
  Alcotest.(check int) "a rate-0 variable never flips" max_int
    (Guard.steps_to_flip Guard.Eq ~bound:1.0 ~value:0.0 ~delta:0.0);
  Alcotest.(check int) "non-finite deltas predict the next step" 1
    (Guard.steps_to_flip Guard.Le ~bound:5.0 ~value:0.25 ~delta:nan)

let suite =
  [
    ( "hybrid.guard",
      [
        Alcotest.test_case "always" `Quick test_always;
        Alcotest.test_case "atom evaluation" `Quick test_atom_holds;
        Alcotest.test_case "epsilon slack" `Quick test_eps_slack;
        Alcotest.test_case "conjunction" `Quick test_conjunction;
        Alcotest.test_case "missing var is zero" `Quick test_missing_var_is_zero;
        Alcotest.test_case "time_to_satisfy" `Quick test_time_to_satisfy;
        Alcotest.test_case "time_to_violate" `Quick test_time_to_violate;
        Alcotest.test_case "invariant horizon" `Quick test_invariant_horizon;
        QCheck_alcotest.to_alcotest prop_time_to_satisfy_correct;
        QCheck_alcotest.to_alcotest prop_conjunction_monotone;
        QCheck_alcotest.to_alcotest prop_steps_to_flip_never_late;
        Alcotest.test_case "steps_to_flip is tight on clocks" `Quick
          test_steps_to_flip_tight;
      ] );
  ]
