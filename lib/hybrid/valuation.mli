(** Valuations: total maps from a hybrid automaton's data state variables
    to reals (a data state [~s]); variables absent from the map read as 0,
    matching the paper's all-zero initial convention. *)

type t = float Var.Map.t

val empty : t
val zero : Var.t list -> t
val get : t -> Var.t -> float
val set : t -> Var.t -> float -> t
val update : t -> Var.t -> (float -> float) -> t
val of_list : (Var.t * float) list -> t
val to_list : t -> (Var.t * float) list
val vars : t -> Var.Set.t

val equal_eps : eps:float -> t -> t -> bool
val pp : t Fmt.t
