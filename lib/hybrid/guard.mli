(** Guards and invariants: conjunctions of half-space atoms [x ⋈ c]
    (Section II-A items 3 and 6). Closed under the operations the
    executor needs and coinciding with clock constraints on the timed
    fragment used by the model checker. *)

type cmp = Lt | Le | Gt | Ge | Eq

type atom = { var : Var.t; cmp : cmp; bound : float }

type t = atom list
(** Conjunction; [[]] is [true]. *)

val always : t

val eps : float
(** Numeric slack used by all comparisons (guards must enable when a
    fixed-step executor lands epsilon short of a threshold). *)

val atom : Var.t -> cmp -> float -> atom

val ( <. ) : Var.t -> float -> atom
val ( <=. ) : Var.t -> float -> atom
val ( >. ) : Var.t -> float -> atom
val ( >=. ) : Var.t -> float -> atom
val ( =. ) : Var.t -> float -> atom

val conj : atom list -> t
val atom_holds : atom -> float -> bool
val holds : t -> Valuation.t -> bool

val vars : t -> Var.Set.t

val bounds : t -> Var.t -> float option * float option
(** Interval [(lo, hi)] the conjunction implies for a variable ([None] =
    unbounded on that side; strictness is dropped, matching the
    executor's [eps]-slack semantics). *)

val compatible : t -> t -> bool
(** Per-variable interval emptiness test: [false] certifies the
    conjunction of both guards is unsatisfiable; [true] is inconclusive
    (no single-variable contradiction). *)

val time_to_satisfy : atom -> value:float -> rate:float -> float option
(** Least [d >= 0] such that the atom holds after linear evolution;
    [None] if never. *)

val time_to_violate : atom -> value:float -> rate:float -> float option
(** Least [d >= 0] such that the atom stops holding; [None] if it holds
    forever (or never held). *)

val invariant_horizon :
  t -> Valuation.t -> (Var.t -> float) -> float option
(** Earliest violation time of a conjunction under per-variable constant
    rates. *)

val pp_cmp : cmp Fmt.t
val pp_atom : atom Fmt.t
val pp : t Fmt.t

(** {2 Flat form}

    A guard compiled against a slot numbering of its automaton's
    variables: the executor keeps each valuation as a [float array] and
    evaluates guards without allocating. *)

type flat = private {
  slots : int array;  (** atom [k] reads [values.(slots.(k))] *)
  cmps : cmp array;
  bounds : float array;
}

val flatten : (Var.t -> int) -> t -> flat
(** [flatten slot_of guard], atoms in order. *)

val flat_holds : flat -> float array -> bool
(** Same truth value as {!holds} on the valuation the array encodes. *)

val flat_holds_between :
  flat -> from:float array -> target:float array -> float -> bool
(** [flat_holds_between f ~from ~target alpha] evaluates the guard at
    [from + alpha * (target - from)], computed per atom exactly as the
    executor interpolates (its invariant-boundary bisection). *)

(** {2 Step prediction}

    A constant-rate variable advances by repeated float additions
    [x +. delta], one per executor step. These bound from below the
    first addition after which an atom's truth can change, so the
    executor can skip the steps before it without changing a trace. *)

val steps_to_flip : cmp -> bound:float -> value:float -> delta:float -> int
(** [steps_to_flip cmp ~bound ~value ~delta] is [n >= 1] such that for
    every [k < n], adding [delta] to [value] [k] times in floating point
    leaves the atom's truth (with {!eps} slack) as it is at [value].
    [max_int] when no number of additions can change it (motion away
    from the boundary, or [delta = 0]); otherwise at most 2{^30} (predict
    again after). [1] for a non-finite [value] or [delta]. *)

val flat_steps_to_violate : flat -> float array -> float array -> int
(** [flat_steps_to_violate f values deltas]: a lower bound [n >= 1] on
    the first addition of [deltas.(slot)] to every slot after which the
    conjunction can be false ([1] when it is false now); [max_int] when
    never. Allocates nothing. *)

val flat_steps_to_satisfy : flat -> float array -> float array -> int
(** Likewise for the first addition after which the conjunction can
    hold ([1] when it holds now): the latest of its atoms' bounds. *)
