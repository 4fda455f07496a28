(** Valuations of data state variables.

    A valuation is a data state [~s] of the automaton (paper, Section
    II-A, item 1): a total map from the automaton's declared variables to
    reals. Variables absent from the map are treated as 0, matching the
    paper's convention that "all data state variables initial values are
    zero". *)

type t = float Var.Map.t

let empty : t = Var.Map.empty

let zero vars =
  List.fold_left (fun acc v -> Var.Map.add v 0.0 acc) empty vars

let get valuation var =
  match Var.Map.find_opt var valuation with Some x -> x | None -> 0.0

let set valuation var value = Var.Map.add var value valuation

let update valuation var f = set valuation var (f (get valuation var))

let of_list bindings =
  List.fold_left (fun acc (v, x) -> Var.Map.add v x acc) empty bindings

let to_list valuation = Var.Map.bindings valuation

let vars valuation =
  Var.Map.fold (fun v _ acc -> Var.Set.add v acc) valuation Var.Set.empty

let equal_eps ~eps a b =
  let keys = Var.Set.union (vars a) (vars b) in
  Var.Set.for_all (fun v -> Float.abs (get a v -. get b v) <= eps) keys

let pp ppf valuation =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (v, x) -> Fmt.pf ppf "%s=%g" v x))
    (to_list valuation)
