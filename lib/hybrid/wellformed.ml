(** Static sufficient checks for the paper's standing assumptions: every
    hybrid automaton is {e time-block-free} (time can always either
    elapse or a transition fire) and {e non-zeno} (no infinite discrete
    activity in finite time). Exact checks are undecidable in general;
    these are conservative syntactic criteria that the pattern automata
    satisfy and that catch typical modeling slips.

    The paper (footnote 3) asserts the pattern automata are
    time-block-free and non-zeno whenever c1–c7 hold; these checks
    mechanize the easy half of that claim. *)

type issue =
  | Possible_time_block of { location : string; reason : string }
      (** A location whose invariant can expire with no spontaneous
          egress that is certainly enabled at the boundary. *)
  | Possible_zeno_cycle of { locations : string list }
      (** A cycle of edges that can be traversed without time passing
          (all-eager, no lower-bound guard on any reset-fresh clock). *)

let pp_issue ppf = function
  | Possible_time_block { location; reason } ->
      Fmt.pf ppf "possible time-block at %S: %s" location reason
  | Possible_zeno_cycle { locations } ->
      Fmt.pf ppf "possible zeno cycle through %a"
        Fmt.(list ~sep:(any " -> ") string)
        locations

(* Invariant atoms whose boundary the flow can actually reach: an upper
   bound expires under a positive rate, a lower bound under a negative
   one; frozen variables never expire a satisfied atom. An ODE is
   treated conservatively on the variables it drives (every atom on them
   may expire); the others are frozen. *)
let expirable_bounds (l : Location.t) =
  let rate var =
    match l.Location.flow with
    | Flow.Rates rates -> (
        match List.assoc_opt var rates with Some r -> Some r | None -> Some 0.0)
    | Flow.Ode { writes; _ } ->
        if List.exists (Var.equal var) writes then None else Some 0.0
  in
  List.filter
    (fun (a : Guard.atom) ->
      match (a.Guard.cmp, rate a.Guard.var) with
      | _, None -> true (* ODE: conservative *)
      | (Guard.Lt | Guard.Le), Some r -> r > Guard.eps
      | (Guard.Gt | Guard.Ge), Some r -> r < -.Guard.eps
      | Guard.Eq, Some r -> Float.abs r > Guard.eps)
    l.Location.invariant

(* Does [guard] certainly hold when [bound]'s variable sits exactly at
   the boundary value? Conservative: every guard atom must constrain the
   same variable and hold at that value. *)
let enabled_at_boundary (bound : Guard.atom) guard =
  List.for_all
    (fun (g : Guard.atom) ->
      String.equal g.Guard.var bound.Guard.var
      && Guard.atom_holds g bound.Guard.bound)
    guard

(** Time-block check: every location whose invariant has a reachable
    boundary must have a spontaneous egress edge enabled there. *)
let check_time_block_free (a : Automaton.t) =
  List.filter_map
    (fun (l : Location.t) ->
      match expirable_bounds l with
      | [] -> None
      | bounds ->
          let edges = Automaton.edges_from a l.Location.name in
          let saved =
            List.for_all
              (fun bound ->
                List.exists
                  (fun (e : Edge.t) ->
                    Edge.is_spontaneous e
                    && enabled_at_boundary bound e.Edge.guard)
                  edges)
              bounds
          in
          if saved then None
          else
            Some
              (Possible_time_block
                 {
                   location = l.Location.name;
                   reason =
                     Fmt.str "invariant (%a) can expire with no matching egress"
                       Guard.pp l.Location.invariant;
                 }))
    a.Automaton.locations

(* An edge is "timed" (cannot be part of a zero-time cycle) when its
   guard contains a strictly positive lower bound on a variable that some
   edge of the cycle resets — conservatively: a positive lower bound on
   any variable it does not itself reset to a satisfying value. We use an
   even simpler criterion: a positive lower-bound atom makes the edge
   timed, because pattern-style cycles always reset their clock when
   entering the cycle. *)
let is_timed (e : Edge.t) =
  List.exists
    (fun (g : Guard.atom) ->
      match g.Guard.cmp with
      | Guard.Ge | Guard.Gt -> g.Guard.bound > Guard.eps
      | Guard.Le | Guard.Lt | Guard.Eq -> false)
    e.Edge.guard

(** Non-zeno check: no cycle of spontaneous {e untimed} edges. Triggered
    edges need an external event per traversal and are excluded (zeno
    behaviour through them requires a zeno sender, caught at that
    sender). *)
let check_non_zeno (a : Automaton.t) =
  let untimed_successors location =
    List.filter_map
      (fun (e : Edge.t) ->
        if Edge.is_spontaneous e && not (is_timed e) then Some e.Edge.dst
        else None)
      (Automaton.edges_from a location)
  in
  (* DFS cycle detection over the untimed-edge graph *)
  let states = Hashtbl.create 16 in
  let issue = ref None in
  let rec visit path location =
    if !issue <> None then ()
    else
      match Hashtbl.find_opt states location with
      | Some `Done -> ()
      | Some `Active ->
          let cycle =
            let rec cut = function
              | [] -> [ location ]
              | l :: rest ->
                  if String.equal l location then [ l ]
                  else l :: cut rest
            in
            List.rev (cut path)
          in
          issue := Some (Possible_zeno_cycle { locations = cycle @ [ location ] })
      | None ->
          Hashtbl.replace states location `Active;
          List.iter (visit (location :: path)) (untimed_successors location);
          Hashtbl.replace states location `Done
  in
  List.iter (fun (l : Location.t) -> visit [] l.Location.name) a.Automaton.locations;
  match !issue with Some i -> [ i ] | None -> []

(** Both checks. An empty list is a (conservative) certificate that the
    automaton is time-block-free and non-zeno. *)
let check (a : Automaton.t) = check_time_block_free a @ check_non_zeno a
