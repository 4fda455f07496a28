(** Binary min-heap keyed by float priority with FIFO tie-breaking, so
    discrete-event queues pop deterministically regardless of layout. *)

type 'a t

val create : dummy:'a -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> float -> 'a -> unit

(** {2 The top without allocation}

    For hot event loops: none of these allocates. Each raises
    [Invalid_argument] on an empty heap. *)

val min_priority : 'a t -> float
(** The least priority. *)

val min_value : 'a t -> 'a
(** The value {!pop} would return next (FIFO among equal priorities). *)

val drop_min : 'a t -> unit
(** Remove the entry {!min_value} returns. *)

val peek : 'a t -> (float * 'a) option
(** [Some (min_priority, min_value)], [None] when empty. *)

val pop : 'a t -> (float * 'a) option
(** {!peek}, then {!drop_min}. *)

val pop_until : 'a t -> upto:float -> (float * 'a) list
(** Every item with priority <= [upto], in priority/FIFO order. *)

val clear : 'a t -> unit
