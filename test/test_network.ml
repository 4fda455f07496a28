(* Links and the sink-based star topology of Section II-B. *)

open Pte_net

let mk_star ?(loss = Loss.Perfect) () =
  Star.create ~base:"base" ~remotes:[ "r1"; "r2" ] ~loss_kind:loss
    ~rng:(Pte_util.Rng.create 1) ()

(* The executor hook over [star]: the transport in [`Bare] mode — one
   attempt per send, no ACKs, no RNG draws. *)
let bare_router star =
  Transport.router
    (Transport.create ~mode:`Bare ~rng:(Pte_util.Rng.create 3) star)

let test_link_delivery_and_delay () =
  let link =
    Link.create ~name:"l" ~direction:Link.Uplink
      ~loss:(Loss.create Loss.Perfect) ~delay_base:0.01 ~delay_jitter:0.02
      ~rng:(Pte_util.Rng.create 2) ()
  in
  for _ = 1 to 100 do
    match Link.send link ~time:5.0 ~src:"a" ~dst:"b" ~root:"evt" with
    | Link.Deliver { arrival; packet } ->
        let delay = arrival -. 5.0 in
        if delay < 0.01 -. 1e-9 || delay > 0.03 +. 1e-9 then
          Alcotest.failf "delay out of range: %g" delay;
        Alcotest.(check bool) "packet intact" true (Packet.intact packet)
    | Link.Deliver_dup _ -> Alcotest.fail "no injector, no duplicates"
    | Link.Drop _ -> Alcotest.fail "perfect link dropped"
  done;
  Alcotest.(check int) "stats sent" 100 (Link.stats link).Link_stats.sent;
  Alcotest.(check int) "stats delivered" 100 (Link.stats link).Link_stats.delivered

let test_link_loss_counted () =
  let link =
    Link.create ~name:"l" ~direction:Link.Downlink
      ~loss:(Loss.create (Loss.Bernoulli 1.0)) ~rng:(Pte_util.Rng.create 2) ()
  in
  (match Link.send link ~time:0.0 ~src:"a" ~dst:"b" ~root:"e" with
  | Link.Drop Loss.Lost_in_air -> ()
  | _ -> Alcotest.fail "expected loss");
  Alcotest.(check int) "lost counted" 1 (Link.stats link).Link_stats.lost

let test_link_corruption_discarded () =
  let kind = Loss.Corrupting { inner = Loss.Bernoulli 1.0; corrupt_fraction = 1.0 } in
  let link =
    Link.create ~name:"l" ~direction:Link.Downlink ~loss:(Loss.create kind)
      ~rng:(Pte_util.Rng.create 2) ()
  in
  (match Link.send link ~time:0.0 ~src:"a" ~dst:"b" ~root:"e" with
  | Link.Drop Loss.Corrupted -> ()
  | _ -> Alcotest.fail "expected CRC discard");
  Alcotest.(check int) "corrupted counted" 1
    (Link.stats link).Link_stats.corrupted

let test_star_topology () =
  let star = mk_star () in
  Alcotest.(check bool) "base is node" true (Star.is_node star "base");
  Alcotest.(check bool) "remote is node" true (Star.is_node star "r1");
  Alcotest.(check bool) "stranger is not" false (Star.is_node star "patient");
  Alcotest.(check bool) "uplink exists" true
    (Star.link_for star ~sender:"r1" ~receiver:"base" <> None);
  Alcotest.(check bool) "downlink exists" true
    (Star.link_for star ~sender:"base" ~receiver:"r2" <> None);
  Alcotest.(check bool) "no remote-remote link" true
    (Star.link_for star ~sender:"r1" ~receiver:"r2" = None)

let test_router_semantics () =
  let star = mk_star () in
  let router = bare_router star in
  (match router ~time:0.0 ~sender:"base" ~root:"e" ~receiver:"r1" with
  | Pte_hybrid.Executor.Deliver d when d >= 0.0 -> ()
  | _ -> Alcotest.fail "downlink should deliver");
  (* remote to remote: dropped and counted *)
  (match router ~time:0.0 ~sender:"r1" ~root:"e" ~receiver:"r2" with
  | Pte_hybrid.Executor.Lose -> ()
  | _ -> Alcotest.fail "no direct remote links");
  Alcotest.(check int) "drop counted" 1 star.Star.remote_to_remote_dropped;
  (* non-node participants are wired: instant, reliable *)
  match router ~time:0.0 ~sender:"patient" ~root:"e" ~receiver:"base" with
  | Pte_hybrid.Executor.Deliver 0.0 -> ()
  | _ -> Alcotest.fail "wired delivery expected"

let test_star_loss_applies () =
  let star = mk_star ~loss:(Loss.Bernoulli 1.0) () in
  let router = bare_router star in
  (match router ~time:0.0 ~sender:"base" ~root:"e" ~receiver:"r1" with
  | Pte_hybrid.Executor.Lose -> ()
  | _ -> Alcotest.fail "lossy link should lose");
  let stats = Star.total_stats star in
  Alcotest.(check int) "loss in stats" 1 stats.Link_stats.lost

let test_mac_retries_recover () =
  (* 50% i.i.d. loss: 3 retries push delivery to ~94% *)
  let link =
    Link.create ~name:"l" ~direction:Link.Downlink
      ~loss:(Loss.create ~seed:9 (Loss.Bernoulli 0.5))
      ~mac_retries:3 ~rng:(Pte_util.Rng.create 2) ()
  in
  let delivered = ref 0 in
  for _ = 1 to 2000 do
    match Link.send link ~time:0.0 ~src:"a" ~dst:"b" ~root:"e" with
    | Link.Deliver _ | Link.Deliver_dup _ -> incr delivered
    | Link.Drop _ -> ()
  done;
  let rate = Float.of_int !delivered /. 2000.0 in
  if rate < 0.90 || rate > 0.97 then
    Alcotest.failf "delivery rate with retries: %.3f (expected ~0.9375)" rate;
  Alcotest.(check bool) "retransmissions counted" true
    ((Link.stats link).Link_stats.retransmissions > 500)

let test_mac_retries_add_delay () =
  let link =
    Link.create ~name:"l" ~direction:Link.Downlink
      ~loss:(Loss.create (Loss.Adversarial (fun nth _ -> nth < 2)))
      ~mac_retries:3 ~delay_base:0.01 ~delay_jitter:0.0 ~retry_spacing:0.005
      ~rng:(Pte_util.Rng.create 2) ()
  in
  (* first two attempts lost, third delivered: delay = base + 2 spacings *)
  match Link.send link ~time:1.0 ~src:"a" ~dst:"b" ~root:"e" with
  | Link.Deliver { arrival; _ } ->
      Alcotest.(check bool)
        (Fmt.str "arrival %.4f" arrival)
        true
        (Float.abs (arrival -. 1.02) < 1e-9)
  | Link.Deliver_dup _ | Link.Drop _ ->
      Alcotest.fail "expected delivery on third attempt"

let test_adversarial_blackout_defeats_retries () =
  (* a root-targeted blackout loses every attempt, retries or not *)
  let link =
    Link.create ~name:"l" ~direction:Link.Uplink
      ~loss:(Loss.create (Loss.Adversarial (fun _ root -> root = "evt_cancel")))
      ~mac_retries:5 ~rng:(Pte_util.Rng.create 2) ()
  in
  (match Link.send link ~time:0.0 ~src:"a" ~dst:"b" ~root:"evt_cancel" with
  | Link.Drop _ -> ()
  | Link.Deliver _ | Link.Deliver_dup _ -> Alcotest.fail "blackout must hold");
  match Link.send link ~time:0.0 ~src:"a" ~dst:"b" ~root:"evt_other" with
  | Link.Deliver _ -> ()
  | Link.Deliver_dup _ | Link.Drop _ ->
      Alcotest.fail "other roots unaffected"

let test_total_stats_merge () =
  let star = mk_star () in
  let router = bare_router star in
  ignore (router ~time:0.0 ~sender:"base" ~root:"e" ~receiver:"r1");
  ignore (router ~time:0.0 ~sender:"r2" ~root:"e" ~receiver:"base");
  let stats = Star.total_stats star in
  Alcotest.(check int) "two sends" 2 stats.Link_stats.sent;
  Alcotest.(check int) "two deliveries" 2 stats.Link_stats.delivered

(* qcheck property: whatever fraction of losses arrives as corrupted
   frames, the receiver-side CRC rejects every one of them end-to-end —
   a corrupt packet is never handed up as a delivery *)
let prop_corrupted_frames_always_rejected =
  QCheck.Test.make ~name:"corrupted frames always rejected by the CRC"
    ~count:30
    QCheck.(
      make
        ~print:(fun (p, f, seed) -> Printf.sprintf "loss=%.2f corrupt=%.2f seed=%d" p f seed)
        Gen.(triple (float_bound_inclusive 1.0) (float_bound_inclusive 1.0) int))
    (fun (loss_p, corrupt_fraction, seed) ->
      let kind =
        Loss.Corrupting { inner = Loss.Bernoulli loss_p; corrupt_fraction }
      in
      let link =
        Link.create ~name:"l" ~direction:Link.Uplink ~loss:(Loss.create ~seed kind)
          ~rng:(Pte_util.Rng.create (seed + 1)) ()
      in
      let crc_drops = ref 0 in
      for i = 1 to 400 do
        match
          Link.send link ~time:(Float.of_int i) ~src:"a" ~dst:"b" ~root:"e"
        with
        | Link.Deliver { packet; _ } ->
            if not (Packet.intact packet) then
              QCheck.Test.fail_reportf "corrupt packet delivered at send %d" i
        | Link.Deliver_dup _ ->
            QCheck.Test.fail_reportf "no injector, no duplicates"
        | Link.Drop Loss.Corrupted -> incr crc_drops
        | Link.Drop _ -> ()
      done;
      (Link.stats link).Link_stats.corrupted = !crc_drops)

let suite =
  [
    ( "net.link+star",
      [
        Alcotest.test_case "delivery and delay" `Quick test_link_delivery_and_delay;
        Alcotest.test_case "loss counted" `Quick test_link_loss_counted;
        Alcotest.test_case "corruption discarded" `Quick
          test_link_corruption_discarded;
        Alcotest.test_case "star topology" `Quick test_star_topology;
        Alcotest.test_case "router semantics" `Quick test_router_semantics;
        Alcotest.test_case "star loss applies" `Quick test_star_loss_applies;
        Alcotest.test_case "mac retries recover" `Quick test_mac_retries_recover;
        Alcotest.test_case "mac retries add delay" `Quick
          test_mac_retries_add_delay;
        Alcotest.test_case "blackout defeats retries" `Quick
          test_adversarial_blackout_defeats_retries;
        Alcotest.test_case "stats merge" `Quick test_total_stats_merge;
        QCheck_alcotest.to_alcotest prop_corrupted_frames_always_rejected;
      ] );
  ]
