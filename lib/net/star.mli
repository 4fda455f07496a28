(** The distributed sink-based wireless topology of Section II-B: one
    base station ξ0, an uplink and a downlink per remote entity, and no
    direct remote-to-remote links. The topology reaches the executor
    through {!Transport.router}, which treats non-node automata (e.g.
    the patient) as wired. *)

type t = {
  base : string;
  uplinks : (string * Link.t) list;
  downlinks : (string * Link.t) list;
  by_remote : (string, Link.t * Link.t) Hashtbl.t;
      (** remote -> (uplink, downlink), the first binding of a repeated
          remote: the O(1) lookups behind {!is_remote} and {!link_for}.
          The lists keep remote order for {!links} and
          {!schedule_links}. *)
  mutable remote_to_remote_dropped : int;
}

val create :
  base:string ->
  remotes:string list ->
  loss_kind:Loss.kind ->
  ?delay_base:float ->
  ?delay_jitter:float ->
  ?mac_retries:int ->
  rng:Pte_util.Rng.t ->
  unit ->
  t
(** Each link gets an independent loss process and delay stream split
    from [rng]. *)

val is_remote : t -> string -> bool
val is_node : t -> string -> bool
val link_for : t -> sender:string -> receiver:string -> Link.t option
val all_links : t -> Link.t list

(** Every link paired with the remote entity it serves (uplinks first,
    in remote order) — for installing per-link fault injectors. *)
val links : t -> (string * Link.t) list

val schedule_links : t -> (Pte_sched.Schedule.link * float) list
(** The star's directed links as schedule endpoints, each with its
    worst one-way frame delay ({!Link.worst_delay}) — the synthesis
    input of {!Pte_sched.Synth.synthesize}. Uplinks first, in remote
    order, so slot assignment is deterministic per topology. *)

val worst_frame_delay : t -> float
(** Worst one-way latency across every link ({!Link.worst_delay}) — the
    per-attempt term of {!Transport.worst_case_latency}. *)

val total_stats : t -> Link_stats.t
val pp : t Fmt.t
