(** Flow maps (Section II-A item 4): the differential equations governing
    data state variables per location. *)

type t =
  | Rates of (Var.t * float) list
      (** constant derivatives; unlisted variables have derivative 0
          (clocks, the ventilator cylinder of Fig. 2). *)
  | Ode of {
      reads : Var.t list;  (** the variables [f] sees, in [x] order *)
      writes : Var.t list;  (** the variables it drives, in [dx] order *)
      f : float -> float array -> float array -> unit;
    }
      (** A flat vector field, integrated numerically (physical dynamics
          such as SpO2). [f time x dx] fills [dx.(k)], the derivative of
          the [k]-th of [writes], from [x.(i)], the value of the [i]-th
          of [reads]; unlisted variables have derivative 0.

          The contract: [f] is a pure function of [time] and [x]. It
          writes every [dx.(k)], keeps no state between calls and reads
          nothing else. The executor relies on it: an ODE location with
          no invariant and no eager edge sleeps, and its skipped Euler
          steps are evaluated later, when a variable is next read, each
          at its own step's time. *)

val clocks : Var.t list -> t
(** All listed variables advance at rate 1. *)

val frozen : t

val derivatives : t -> time:float -> Valuation.t -> (Var.t * float) list
(** The derivatives at [time] from the valuation, in [writes] order for
    an {!Ode}. *)

val rate_of : t -> time:float -> Valuation.t -> Var.t -> float
val is_constant_rate : t -> bool

val constant_rates : t -> (Var.t * float) list option
(** The rate table of a {!Rates} flow; [None] for {!Ode} flows. *)

val reads : t -> Var.t list
(** The variables the flow reads: an ODE's [reads], none for {!Rates}. *)

val writes : t -> Var.t list
(** The variables the flow drives: an ODE's [writes], every listed
    variable of {!Rates}. *)

val combine : t -> t -> t
(** Evolve the (disjoint) variables of both flows simultaneously (used
    by elaboration). *)

val pp : t Fmt.t
