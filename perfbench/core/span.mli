(** Phase spans and self time.

    The traced run records one span per phase it drives — build, run,
    trace fetch, monitor, certification cell — keeps them in memory and
    hands them to the report at the end. Hot, re-entrant calls (the
    transport router, which a delivery can re-enter) use {!Nest}
    directly, which keeps only totals. Both compute self time the same
    way: a call's duration minus the durations of the calls directly
    nested in it. Calls are properly nested (a stack), so the children
    of one call never overlap. *)

(** Online self time of a call site: [enter]/[leave] pairs with
    timestamps in seconds. *)
module Nest : sig
  type t

  val create : unit -> t
  val enter : t -> float -> unit

  val leave : t -> float -> float * float
  (** Close the innermost open call; returns its (duration, self time).
      Raises [Invalid_argument] without a matching [enter]. *)

  val calls : t -> int

  val self : t -> float
  (** Total self time of every completed call: the outermost calls'
      total duration. *)
end

type t = {
  name : string;
  start : float;  (** seconds, on the recorder's clock. *)
  stop : float;
  self : float;  (** duration less the direct children's durations. *)
}

type recorder

val create : now:(unit -> float) -> unit -> recorder

val with_span : recorder -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span, child of the innermost open one. The
    span is closed (and kept) when the thunk raises, too. *)

val spans : recorder -> t list
(** Closed spans, in start order. *)

val duration : t -> float

val totals : t list -> (string * float * float) list
(** Per span name, in first-seen order: (name, total duration, total
    self time). *)
