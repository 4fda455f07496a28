module Nest = struct
  type frame = { start : float; mutable child : float }

  type t = {
    mutable stack : frame list;
    mutable calls : int;
    mutable self : float;
  }

  let create () = { stack = []; calls = 0; self = 0.0 }
  let enter t now = t.stack <- { start = now; child = 0.0 } :: t.stack

  let leave t now =
    match t.stack with
    | [] -> invalid_arg "Span.Nest.leave: no open call"
    | f :: rest ->
        let d = now -. f.start in
        let self = d -. f.child in
        t.stack <- rest;
        t.calls <- t.calls + 1;
        t.self <- t.self +. self;
        (match rest with parent :: _ -> parent.child <- parent.child +. d | [] -> ());
        (d, self)

  let calls t = t.calls
  let self t = t.self
end

type t = { name : string; start : float; stop : float; self : float }

type recorder = { now : unit -> float; nest : Nest.t; mutable closed : t list }

let create ~now () = { now; nest = Nest.create (); closed = [] }

let with_span r name f =
  let start = r.now () in
  Nest.enter r.nest start;
  let close () =
    let stop = r.now () in
    let _, self = Nest.leave r.nest stop in
    r.closed <- { name; start; stop; self } :: r.closed
  in
  Fun.protect ~finally:close f

(* [closed] is newest first in stop order, and a parent stops after its
   children: sort by start. *)
let spans r = List.stable_sort (fun a b -> Float.compare a.start b.start) (List.rev r.closed)
let duration s = s.stop -. s.start

let totals spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d, st =
        match Hashtbl.find_opt tbl s.name with
        | Some x -> x
        | None ->
            order := s.name :: !order;
            (0.0, 0.0)
      in
      Hashtbl.replace tbl s.name (d +. duration s, st +. s.self))
    spans;
  List.rev_map
    (fun name ->
      let d, st = Hashtbl.find tbl name in
      (name, d, st))
    !order
