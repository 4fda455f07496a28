(** Binary min-heap keyed by float priority with FIFO tie-breaking.

    Backing store for discrete-event queues: scheduled packet deliveries,
    scenario timers. Ties must break in insertion order so traces are
    deterministic regardless of heap layout. *)

type 'a t = {
  mutable items : (float * int * 'a) array;  (* (priority, seq, value) *)
  mutable size : int;
  mutable seq : int;
  hole : float * int * 'a;  (* fills vacated slots, releasing their value *)
}

let create ~dummy =
  let hole = (0.0, 0, dummy) in
  { items = Array.make 16 hole; size = 0; seq = 0; hole }

let length t = t.size
let is_empty t = t.size = 0

(* annotated so the comparisons compile to float/int compares, not the
   polymorphic [compare] *)
let less ((p1 : float), (s1 : int), _) ((p2 : float), (s2 : int), _) =
  p1 < p2 || (p1 = p2 && s1 < s2)

let grow t =
  if t.size = Array.length t.items then begin
    let bigger = Array.make (2 * Array.length t.items) t.hole in
    Array.blit t.items 0 bigger 0 t.size;
    t.items <- bigger
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.items.(i) t.items.(parent) then begin
      let tmp = t.items.(i) in
      t.items.(i) <- t.items.(parent);
      t.items.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && less t.items.(left) t.items.(!smallest) then
    smallest := left;
  if right < t.size && less t.items.(right) t.items.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = t.items.(i) in
    t.items.(i) <- t.items.(!smallest);
    t.items.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t priority value =
  grow t;
  t.items.(t.size) <- (priority, t.seq, value);
  t.seq <- t.seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let empty name = invalid_arg ("Heap." ^ name ^ ": empty heap")

(* The non-allocating top: the root's fields are read in place. *)
let min_priority t =
  if t.size = 0 then empty "min_priority";
  let priority, _, _ = t.items.(0) in
  priority

let min_value t =
  if t.size = 0 then empty "min_value";
  let _, _, value = t.items.(0) in
  value

let drop_min t =
  if t.size = 0 then empty "drop_min";
  t.size <- t.size - 1;
  t.items.(0) <- t.items.(t.size);
  t.items.(t.size) <- t.hole;
  sift_down t 0

let peek t = if t.size = 0 then None else Some (min_priority t, min_value t)

let pop t =
  match peek t with
  | None -> None
  | top ->
      drop_min t;
      top

(** Pop every item with priority <= [upto], in priority/FIFO order. *)
let pop_until t ~upto =
  let rec go acc =
    match peek t with
    | Some (priority, _) when priority <= upto -> (
        match pop t with
        | Some (p, v) -> go ((p, v) :: acc)
        | None -> List.rev acc)
    | _ -> List.rev acc
  in
  go []

let clear t = t.size <- 0
