(** The per-run results: their compact form is the last line of
    standard output, and [--results] writes them whole. They
    round-trip through {!Pte_util.Json}. *)

type value = { value : float; unit_ : string }

type results = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  correct : bool;
  attempted : int;  (** units of work started: trials, or whole runs. *)
  failed : int;  (** units that raised. *)
  metrics : (string * value) list;
  checks : (string * bool) list;  (** every correctness check, by name. *)
  notes : (string * string) list;
      (** context a number needs, e.g. the tail's percentile and [n]. *)
}

val line : results -> Pte_util.Json.t
(** The result line: exactly [correct], [attempted], [failed] and
    [metrics] (each [{"value", "unit"}]). *)

val to_json : results -> Pte_util.Json.t
(** The full results file: {!line}'s keys plus the context. *)

val of_json : Pte_util.Json.t -> (results, string) result

val file : results list -> string
(** A results file: a JSON array with one run per line. *)
