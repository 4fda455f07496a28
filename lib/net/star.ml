(** The distributed sink-based wireless topology of Section II-B: one
    base station ξ0 and N remote entities, an uplink and a downlink per
    remote, and {e no} direct remote-to-remote links (a send whose
    source and destination are both remotes is dropped and counted).

    {!Transport.router} adapts the topology to the executor's transport
    hook: messages whose sender or receiver is not a registered node
    (e.g. physically co-located automata such as the patient model) are
    delivered reliably with zero delay, i.e. treated as wired. *)

type t = {
  base : string;
  uplinks : (string * Link.t) list;  (* remote -> link remote->base *)
  downlinks : (string * Link.t) list;  (* remote -> link base->remote *)
  by_remote : (string, Link.t * Link.t) Hashtbl.t;
      (* remote -> (uplink, downlink): the O(1) routing lookups; the
         lists keep the remote order that schedule synthesis relies on *)
  mutable remote_to_remote_dropped : int;
}

let create ~base ~remotes ~loss_kind ?(delay_base = 0.01)
    ?(delay_jitter = 0.02) ?(mac_retries = 0) ~rng () =
  let mk direction remote =
    let name =
      match direction with
      | Link.Uplink -> Printf.sprintf "%s->%s" remote base
      | Link.Downlink -> Printf.sprintf "%s->%s" base remote
    in
    ( remote,
      Link.create ~name ~direction
        ~loss:(Loss.create_rng loss_kind (Pte_util.Rng.split rng))
        ~delay_base ~delay_jitter ~mac_retries
        ~rng:(Pte_util.Rng.split rng) () )
  in
  (* the downlinks split [rng] before the uplinks: every recorded trial
     depends on this order *)
  let downlinks = List.map (mk Link.Downlink) remotes in
  let uplinks = List.map (mk Link.Uplink) remotes in
  let by_remote = Hashtbl.create (2 * List.length remotes) in
  (* a repeated remote keeps its first links, as [List.assoc] did *)
  List.iter2
    (fun (remote, up) (_, down) ->
      if not (Hashtbl.mem by_remote remote) then
        Hashtbl.replace by_remote remote (up, down))
    uplinks downlinks;
  { base; uplinks; downlinks; by_remote; remote_to_remote_dropped = 0 }

let is_remote t name = Hashtbl.mem t.by_remote name
let is_node t name = String.equal name t.base || is_remote t name

let link_for t ~sender ~receiver =
  if String.equal sender t.base then
    match Hashtbl.find_opt t.by_remote receiver with
    | Some (_, down) -> Some down
    | None -> None
  else if String.equal receiver t.base then
    match Hashtbl.find_opt t.by_remote sender with
    | Some (up, _) -> Some up
    | None -> None
  else None

let all_links t =
  List.map snd t.uplinks @ List.map snd t.downlinks

(** Every link with the remote entity it serves — uplinks first, in
    remote order — for layers that install per-link machinery (fault
    injectors, per-link observers). *)
let links t =
  List.map (fun (remote, link) -> (remote, link)) t.uplinks
  @ List.map (fun (remote, link) -> (remote, link)) t.downlinks

(** The star's directed links as schedule endpoints, each with its
    worst one-way frame delay — the synthesis input of
    {!Pte_sched.Synth.synthesize}. Uplinks first, in remote order, so
    slot assignment is deterministic per topology. *)
let schedule_links t =
  let up (remote, link) =
    ({ Pte_sched.Schedule.src = remote; dst = t.base }, Link.worst_delay link)
  in
  let down (remote, link) =
    ({ Pte_sched.Schedule.src = t.base; dst = remote }, Link.worst_delay link)
  in
  List.map up t.uplinks @ List.map down t.downlinks

(** Worst one-way frame latency across every link of the star — the
    per-attempt term of {!Transport.worst_case_latency}. *)
let worst_frame_delay t =
  List.fold_left
    (fun acc link -> Float.max acc (Link.worst_delay link))
    0.0 (all_links t)

let total_stats t =
  List.fold_left
    (fun acc link -> Link_stats.merge acc (Link.stats link))
    (Link_stats.create ()) (all_links t)

let pp ppf t =
  Fmt.pf ppf "@[<v>star network (base %s)@,%a@]" t.base
    (Fmt.list ~sep:Fmt.cut Link.pp) (all_links t)
