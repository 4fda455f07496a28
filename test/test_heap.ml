(* Event-queue heap: ordering, FIFO tie-breaking, growth, pop_until. *)

open Pte_util

let test_empty () =
  let h = Heap.create ~dummy:"" in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check bool) "peek none" true (Heap.peek h = None);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None)

let test_ordering () =
  let h = Heap.create ~dummy:"" in
  List.iter (fun (p, v) -> Heap.push h p v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z") ];
  let order = List.init 4 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "priority order" [ "z"; "a"; "b"; "c" ] order

let test_fifo_ties () =
  let h = Heap.create ~dummy:"" in
  List.iter (fun v -> Heap.push h 1.0 v) [ "first"; "second"; "third" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string))
    "insertion order on equal priority"
    [ "first"; "second"; "third" ] order

let test_growth () =
  let h = Heap.create ~dummy:0 in
  for i = 1000 downto 1 do
    Heap.push h (Float.of_int i) i
  done;
  Alcotest.(check int) "length" 1000 (Heap.length h);
  let prev = ref 0 in
  for _ = 1 to 1000 do
    let _, v = Option.get (Heap.pop h) in
    if v <= !prev then Alcotest.failf "out of order: %d after %d" v !prev;
    prev := v
  done

let test_pop_until () =
  let h = Heap.create ~dummy:"" in
  List.iter (fun (p, v) -> Heap.push h p v)
    [ (1.0, "a"); (2.0, "b"); (3.0, "c"); (4.0, "d") ];
  let due = Heap.pop_until h ~upto:2.5 in
  Alcotest.(check (list string)) "due items" [ "a"; "b" ] (List.map snd due);
  Alcotest.(check int) "remaining" 2 (Heap.length h)

let test_clear () =
  let h = Heap.create ~dummy:"" in
  Heap.push h 1.0 "a";
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun priorities ->
      let h = Heap.create ~dummy:0.0 in
      List.iter (fun p -> Heap.push h p p) priorities;
      let popped = ref [] in
      let rec drain () =
        match Heap.pop h with
        | Some (_, v) ->
            popped := v :: !popped;
            drain ()
        | None -> ()
      in
      drain ();
      List.rev !popped = List.sort Float.compare priorities)

(* The non-allocating top against [peek]/[pop]: two heaps fed the same
   pushes, cancels (tombstones, skipped when they surface, as the
   executor's timeline does) and drains pop the same (due, value)
   stream. *)
type heap_op = Push of float * int | Cancel of int | Drain of float

let show_heap_op = function
  | Push (p, v) -> Printf.sprintf "Push (%g, %d)" p v
  | Cancel v -> Printf.sprintf "Cancel %d" v
  | Drain upto -> Printf.sprintf "Drain %g" upto

let prop_top_matches_peek_pop =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 60)
        (frequency
           [ (4, map2 (fun p v -> Push (Float.of_int p, v)) (int_range 0 8) (int_range 0 30));
             (1, map (fun v -> Cancel v) (int_range 0 30));
             (2, map (fun u -> Drain (Float.of_int u)) (int_range 0 9)) ]))
  in
  QCheck.Test.make ~name:"min_priority/min_value/drop_min pop as peek/pop"
    ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_heap_op ops)) gen)
    (fun ops ->
      let a = Heap.create ~dummy:0 and b = Heap.create ~dummy:0 in
      let cancelled = Hashtbl.create 8 in
      let out_a = ref [] and out_b = ref [] in
      let rec drain_a upto =
        match Heap.peek a with
        | Some (_, v) when Hashtbl.mem cancelled v ->
            ignore (Heap.pop a);
            drain_a upto
        | Some (p, _) when p <= upto ->
            out_a := Option.get (Heap.pop a) :: !out_a;
            drain_a upto
        | Some _ | None -> ()
      in
      let rec drain_b upto =
        if not (Heap.is_empty b) then
          let v = Heap.min_value b in
          if Hashtbl.mem cancelled v then begin
            Heap.drop_min b;
            drain_b upto
          end
          else if Heap.min_priority b <= upto then begin
            out_b := (Heap.min_priority b, v) :: !out_b;
            Heap.drop_min b;
            drain_b upto
          end
      in
      List.iter
        (function
          | Push (p, v) ->
              Hashtbl.remove cancelled v;
              Heap.push a p v;
              Heap.push b p v
          | Cancel v -> Hashtbl.replace cancelled v ()
          | Drain upto ->
              drain_a upto;
              drain_b upto)
        (ops @ [ Drain infinity ]);
      !out_a = !out_b && Heap.length a = Heap.length b)

let test_top_on_empty () =
  let h = Heap.create ~dummy:"" in
  List.iter
    (fun (name, f) ->
      match f () with
      | () -> Alcotest.failf "%s on an empty heap returned" name
      | exception Invalid_argument _ -> ())
    [ ("min_priority", fun () -> ignore (Heap.min_priority h));
      ("min_value", fun () -> ignore (Heap.min_value h));
      ("drop_min", fun () -> Heap.drop_min h) ]

let suite =
  [
    ( "util.heap",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "ordering" `Quick test_ordering;
        Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
        Alcotest.test_case "growth + 1000 elements" `Quick test_growth;
        Alcotest.test_case "pop_until" `Quick test_pop_until;
        Alcotest.test_case "clear" `Quick test_clear;
        QCheck_alcotest.to_alcotest prop_heap_sorts;
        Alcotest.test_case "top on an empty heap" `Quick test_top_on_empty;
        QCheck_alcotest.to_alcotest prop_top_matches_peek_pop;
      ] );
  ]
