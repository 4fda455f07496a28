(* Valuations: totality convention, update, tolerance comparison. *)

open Pte_hybrid

let test_zero_and_defaults () =
  let v = Valuation.zero [ "a"; "b" ] in
  Alcotest.(check (float 0.0)) "a" 0.0 (Valuation.get v "a");
  Alcotest.(check (float 0.0)) "undeclared is 0" 0.0 (Valuation.get v "zzz")

let test_set_get_update () =
  let v = Valuation.set Valuation.empty "x" 2.0 in
  let v = Valuation.update v "x" (fun x -> x *. 3.0) in
  Alcotest.(check (float 1e-12)) "updated" 6.0 (Valuation.get v "x")

let test_equal_eps () =
  let a = Valuation.of_list [ ("x", 1.0) ] in
  let b = Valuation.of_list [ ("x", 1.0 +. 1e-12) ] in
  Alcotest.(check bool) "close" true (Valuation.equal_eps ~eps:1e-9 a b);
  let c = Valuation.of_list [ ("x", 1.1) ] in
  Alcotest.(check bool) "far" false (Valuation.equal_eps ~eps:1e-9 a c)

let suite =
  [
    ( "hybrid.valuation",
      [
        Alcotest.test_case "zero/defaults" `Quick test_zero_and_defaults;
        Alcotest.test_case "set/get/update" `Quick test_set_get_update;
        Alcotest.test_case "equal_eps" `Quick test_equal_eps;
      ] );
  ]
