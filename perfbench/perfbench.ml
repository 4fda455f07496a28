(* The PTE-Lease benchmark: runs one workload (or all of them) for a
   fixed time from a seed, checks the outputs, and prints every metric
   by name and unit, ending with one JSON result line.

     perfbench --workload table1|transport|certify|scale|all
               --seed N --seconds S --trace 0|1 [--results FILE]

   --trace 0 measures the end-to-end metrics with no instrumentation;
   --trace 1 is the separate traced run that reports the per-layer
   metrics and checks that tracing did not change any deterministic
   count. *)

open Workloads
module J = Pte_util.Json
module Report = Perfbench_core.Report

(* In the order [--workload all] runs them; BENCHMARK.json registers
   them and README.md says why each was chosen. *)
let workload_names = [ "table1"; "transport"; "certify"; "scale" ]

(* ------------------------------------------------------------------ *)
(* measurement helpers                                                *)
(* ------------------------------------------------------------------ *)

(* Set up several times and report the median time of one set-up
   (scaled to nominal host speed), keeping the last build. A set-up of
   the trial workloads takes well under a millisecond, too short to
   scale against the ~2.5-ms calibration kernel, so set-ups are timed
   in batches of at least [setup_batch_s] each: at least 5 and at most
   15 batches, stopping after 0.5 s. The first, untimed set-up sizes
   the batch. *)
let setup_batch_s = 0.025

let setup_median f =
  let t0 = now () in
  let first = f () in
  let batch = max 1 (int_of_float (Float.ceil (setup_batch_s /. (now () -. t0)))) in
  let timed_batch () =
    Host.timed (fun () ->
        let x = ref first in
        for _ = 1 to batch do
          x := f ()
        done;
        !x)
  in
  let rec go k times spent last =
    if k >= 5 && (k >= 15 || spent >= 0.5) then (last, Pct.median (Array.of_list times))
    else
      let x, dt = timed_batch () in
      go (k + 1) ((dt /. float_of_int batch) :: times) (spent +. dt) x
  in
  go 0 [] 0.0 first

let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Minor words the program allocated so far on every domain (workers'
   counts are folded in when they terminate), less the calibration
   kernel's. *)
let minor_words () = Host.minor_words () -. !Host.kernel_words

(* Conjunction of each named check over every round. *)
let merge_checks rounds =
  List.fold_left
    (fun acc (r : round) ->
      List.fold_left
        (fun acc (name, ok) ->
          if List.mem_assoc name acc then
            List.map (fun (n, prev) -> (n, if n = name then prev && ok else prev)) acc
          else acc @ [ (name, ok) ])
        acc r.checks)
    [] rounds

let value unit_ v = { Report.value = v; unit_ }

type outcome = {
  metrics : (string * Report.value) list;
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  notes : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* untraced run: end-to-end metrics                                    *)
(* ------------------------------------------------------------------ *)

(* Closed loop: the next round starts when the previous one returns,
   until [seconds] of host time have passed (at least one round). *)
let closed_loop ~seconds run_round =
  let t0 = now () and w0 = minor_words () in
  let rec loop acc =
    let acc = run_round () :: acc in
    if now () -. t0 < seconds then loop acc else List.rev acc
  in
  let rounds = loop [] in
  (rounds, now () -. t0, minor_words () -. w0)

(* Every timing is scaled to nominal host speed (Host); the raw
   throughput and the host's slowdown are kept in the notes. *)
let end_to_end ~seconds setup =
  let run_round, setup_s = setup_median setup in
  let rounds, wall, words = closed_loop ~seconds run_round in
  let units = List.concat_map (fun r -> r.units) rounds in
  let sum f = List.fold_left (fun acc u -> acc +. f u) 0.0 units in
  let sim = sum (fun u -> u.sim_s) and trials = sum (fun u -> float_of_int u.trials) in
  let host = sum (fun u -> u.host_s) in
  let per_trial_ms =
    Array.of_list (List.map (fun u -> u.host_s *. 1000.0 /. float_of_int u.trials) units)
  in
  let tail = Pct.tail per_trial_ms in
  let digest = (List.hd rounds).digest in
  let metrics =
    [
      ("sim_s_per_wall_s", value "s/s" (sim /. host));
      ("trials_per_s", value "1/s" (trials /. host));
      ("trial_ms_p50", value "ms" (Pct.percentile per_trial_ms 50.0));
      ("trial_ms_tail", value "ms" tail.value);
      ("time_to_verdict_s", value "s" (host /. float_of_int (List.length rounds)));
      ("alloc_words_per_sim_s", value "words/s" (words /. sim));
      ("peak_rss_mb", value "MB" (peak_rss_mb ()));
      ("setup_s", value "s" setup_s);
    ]
  in
  {
    metrics;
    checks =
      merge_checks rounds
      @ [
          ( "every round gives identical outputs",
            List.for_all (fun r -> String.equal r.digest digest) rounds );
        ];
    attempted = List.length units;
    failed = 0;
    notes =
      [
        ("rounds", string_of_int (List.length rounds));
        ( "raw",
          Fmt.str "%.6g simulated s per wall s unscaled; host ran %.3fx slower than nominal"
            (sim /. wall) (Host.slowdown ()) );
        ("comparability", Host.comparability ());
        ( "trial_ms_tail",
          Fmt.str "p%g of n=%d (%d beyond)" tail.q tail.n tail.beyond );
        ("digest", Digest.to_hex (Digest.string digest));
        ("outputs", digest);
      ];
  }

(* ------------------------------------------------------------------ *)
(* traced run: per-layer metrics                                       *)
(* ------------------------------------------------------------------ *)

type certify_layer = {
  with_s : float;
  without_s : float;
  trials_run : int;
  screen_trials : int;
  ms_per_trial : float;
  split_stages : int;
  effective : float;
}

let no_certify =
  {
    with_s = 0.0;
    without_s = 0.0;
    trials_run = 0;
    screen_trials = 0;
    ms_per_trial = 0.0;
    split_stages = 0;
    effective = 0.0;
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b

let layer_metrics p ~certify ~overhead =
  let units = float_of_int p.p_units in
  let per_unit x = ratio x units in
  let spans = Span.spans p.spans in
  let mean_ms name =
    let ds = List.filter_map (fun s -> if s.Span.name = name then Some (Span.duration s) else None) spans in
    match ds with [] -> 0.0 | _ -> 1000.0 *. List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)
  in
  let total name =
    List.fold_left (fun acc s -> if s.Span.name = name then acc +. Span.duration s else acc) 0.0 spans
  in
  let us h q = Pct.Hist.quantile h q /. 1000.0 in
  let step_s = float_of_int (Pct.Hist.sum p.step) *. 1e-9 in
  let route_s = Span.Nest.self p.route in
  let fi = float_of_int in
  let m name unit_ v = (name, value unit_ v) in
  [
    m "gc.minor_words_per_step" "words" (ratio p.minor_words (fi p.steps));
    m "gc.major_collections" "count" (per_unit (fi p.major));
    m "engine.step_us_p50" "us" (us p.step 50.0);
    m "engine.step_us_p99" "us" (us p.step 99.0);
    m "engine.idle_step_us_p50" "us" (us p.idle 50.0);
    m "engine.busy_step_us_p50" "us" (us p.busy 50.0);
    m "engine.idle_share" "share" (ratio (fi p.idle_ns) (fi (Pct.Hist.sum p.step)));
    m "executor.steps" "count" (per_unit (fi p.steps));
    m "executor.events" "count" (per_unit (fi p.p_events));
    m "executor.events_per_sim_s" "1/s" (ratio (fi p.p_events) p.p_sim_s);
    m "transport.route_calls" "count" (per_unit (fi (Span.Nest.calls p.route)));
    m "transport.route_ms" "ms" (per_unit (1000.0 *. route_s));
    m "transport.share" "share" (ratio route_s step_s);
    m "transport.data_sends" "count" (per_unit (fi p.data_sends));
    m "transport.delivered_ratio" "ratio" (ratio (fi p.delivered) (fi p.data_sends));
    m "transport.retx_per_send" "ratio" (ratio (fi p.retx) (fi p.data_sends));
    m "transport.gave_up" "count" (per_unit (fi p.p_gave_up));
    m "trace.entries" "count" (per_unit (fi p.p_entries));
    m "trace.entries_per_sim_s" "1/s" (ratio (fi p.p_entries) p.p_sim_s);
    m "trace.fetch_ms" "ms" (mean_ms "trace.fetch");
    m "monitor.analyze_ms" "ms" (mean_ms "monitor.analyze");
    m "monitor.share" "share" (ratio (total "monitor.analyze") p.p_host_s);
    m "emulation.build_ms" "ms" (mean_ms "emulation.build");
    m "synthesis.ms" "ms" (mean_ms "synthesis");
    m "pattern.build_ms" "ms" (mean_ms "pattern.build");
    m "engine.create_ms" "ms" (mean_ms "engine.create");
    m "certify.with-lease_s" "s" certify.with_s;
    m "certify.without-lease_s" "s" certify.without_s;
    m "certify.trials_run" "count" (fi certify.trials_run);
    m "certify.screen_trials" "count" (fi certify.screen_trials);
    m "certify.ms_per_trial" "ms" certify.ms_per_trial;
    m "rare.split_stages" "count" (fi certify.split_stages);
    m "rare.effective_trials" "count" certify.effective;
    m "tracing.overhead" "share" overhead;
  ]

let span_notes p =
  List.map
    (fun (name, total, self) -> ("span " ^ name, Fmt.str "total %.3f s, self %.3f s" total self))
    (Span.totals (Span.spans p.spans))

(* Loop traced rounds until the time is up (at least one). *)
let traced_loop ~seconds round =
  let t0 = now () in
  let rec go k = round (); if now () -. t0 < seconds then go (k + 1) else k + 1 in
  go 0

(* Simulated and scaled host seconds of a set of replicas. *)
type tally = { mutable sim : float; mutable host : float }

let tally () = { sim = 0.0; host = 0.0 }

let tallied t ~sim f =
  let x, dt = Host.timed f in
  t.sim <- t.sim +. sim;
  t.host <- t.host +. dt;
  x

(* Tracing overhead: the drop in simulated seconds per host second from
   the plain replicas to the instrumented ones. *)
let overhead ~plain ~traced =
  1.0 -. ratio (ratio traced.sim traced.host) (ratio plain.sim plain.host)

(* table1 / transport: Trial.run and a plain replica per cell as the
   untraced reference, then instrumented replicas until time is up. *)
let traced_trials ~seconds ~checks cells =
  let p = probe () and plain_t = tally () and traced_t = tally () in
  let refs =
    List.map
      (fun c ->
        let r = Trial.run c.config in
        (c, r, tallied plain_t ~sim:c.config.Em.horizon (fun () -> trial_replica c.config)))
      cells
  in
  let mismatches = ref 0 in
  let rounds =
    traced_loop ~seconds (fun () ->
        List.iter
          (fun (c, _, plain) ->
            let traced =
              tallied traced_t ~sim:c.config.Em.horizon (fun () ->
                  span (Some p) "trial" (fun () -> trial_replica ~probe:p c.config))
            in
            if replica_key traced <> replica_key plain then incr mismatches)
          refs)
  in
  let results = List.map (fun (c, r, _) -> (c, r, { host_s = 0.0; sim_s = 0.0; trials = 1 })) refs in
  {
    metrics = layer_metrics p ~certify:no_certify ~overhead:(overhead ~plain:plain_t ~traced:traced_t);
    checks =
      checks results
      @ [
          ( "the replica reproduces Trial.run's counts",
            List.for_all (fun (_, r, pl) -> counts_of_result r = pl.counts) refs );
          ("the traced run reproduces the untraced counts", !mismatches = 0);
        ];
    attempted = (2 * List.length refs) + (rounds * List.length refs);
    failed = 0;
    notes = ("traced rounds", string_of_int rounds) :: span_notes p;
  }

(* certify: one untraced Certify.run, then each design certified under
   a span, plus instrumented 300-s trials of each design (the trials
   the certification runs, at seeds of the benchmark's own) for the
   engine, transport, trace and monitor layers. *)
let representative_trials = 4

let traced_certify ~seconds ~seed config =
  let p = probe () and plain_t = tally () and traced_t = tally () in
  let reference = Certify.run ~config () in
  let ref_keys = List.map cell_key reference.cells in
  let rep =
    List.concat_map
      (fun (d : Certify.design) ->
        List.map
          (fun seed -> { d.config with Em.seed })
          (seeds ~seed:(seed + Bool.to_int d.lease) representative_trials))
      (Certify.designs config)
  in
  let plain =
    List.map (fun cfg -> tallied plain_t ~sim:cfg.Em.horizon (fun () -> trial_replica cfg)) rep
  in
  let mismatches = ref 0 and times = ref [] and last = ref [] in
  let rounds =
    traced_loop ~seconds (fun () ->
        let cells =
          List.map
            (fun (d : Certify.design) ->
              Host.timed (fun () ->
                  span (Some p) ("certify." ^ d.label) (fun () -> Certify.certify_design config d)))
            (Certify.designs config)
        in
        if List.map (fun (c, _) -> cell_key c) cells <> ref_keys then incr mismatches;
        times := cells :: !times;
        last := List.map fst cells;
        List.iter2
          (fun cfg pl ->
            let traced =
              tallied traced_t ~sim:cfg.Em.horizon (fun () ->
                  span (Some p) "trial" (fun () -> trial_replica ~probe:p cfg))
            in
            if replica_key traced <> replica_key pl then incr mismatches)
          rep plain)
  in
  let median_time lease =
    Pct.median
      (Array.of_list
         (List.concat_map
            (List.filter_map (fun ((c : Certify.cell), dt) ->
                 if c.design.lease = lease then Some dt else None))
            !times))
  in
  let cells = !last in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cells in
  let trials_run = sum (fun (c : Certify.cell) -> c.trials_run) in
  let with_lease = List.find (fun (c : Certify.cell) -> c.design.lease) cells in
  let certify =
    {
      with_s = median_time true;
      without_s = median_time false;
      trials_run;
      screen_trials =
        sum (fun (c : Certify.cell) ->
            match c.screen with Some s -> s.Pte_rare.Seq.trials | None -> 0);
      ms_per_trial = 1000.0 *. (median_time true +. median_time false) /. float_of_int trials_run;
      split_stages =
        (match with_lease.split with Some s -> List.length s.Pte_rare.Split.stages | None -> 0);
      effective = with_lease.effective_trials;
    }
  in
  {
    metrics = layer_metrics p ~certify ~overhead:(overhead ~plain:plain_t ~traced:traced_t);
    checks =
      certify_checks reference.cells
      @ [ ("the traced run reproduces the untraced counts and bound", !mismatches = 0) ];
    attempted = 1 + List.length rep + (rounds * (1 + List.length rep));
    failed = 0;
    notes = ("traced rounds", string_of_int rounds) :: span_notes p;
  }

let traced_scale ~seconds ~seed =
  let p = probe () in
  let inp = scale_setup ~probe:p ~seed () in
  let plain, plain_host = scale_emulation inp in
  let traced_t = tally () and mismatches = ref 0 in
  let rounds =
    traced_loop ~seconds (fun () ->
        let o, host =
          span (Some p) "trial" (fun () -> scale_emulation ~probe:p inp)
        in
        traced_t.sim <- traced_t.sim +. scale_horizon;
        traced_t.host <- traced_t.host +. host;
        if scale_key o <> scale_key plain then incr mismatches)
  in
  {
    metrics =
      layer_metrics p ~certify:no_certify
        ~overhead:(overhead ~plain:{ sim = scale_horizon; host = plain_host } ~traced:traced_t);
    checks =
      scale_checks plain
      @ [ ("the traced run reproduces the untraced counts", !mismatches = 0) ];
    attempted = 1 + rounds;
    failed = 0;
    notes = ("traced rounds", string_of_int rounds) :: span_notes p;
  }

(* ------------------------------------------------------------------ *)
(* workloads                                                          *)
(* ------------------------------------------------------------------ *)

let run_workload ~name ~seed ~seconds ~trace =
  match (name, trace) with
  | "table1", false ->
      end_to_end ~seconds (fun () ->
          trial_round table1_checks (setup_cells (table1_cells ~seed)))
  | "transport", false ->
      end_to_end ~seconds (fun () ->
          trial_round transport_checks (setup_cells (transport_cells ~seed)))
  | "certify", false ->
      let config = certify_config () in
      end_to_end ~seconds (fun () ->
          List.iter (fun (d : Certify.design) -> ignore (Em.build d.config)) (Certify.designs config);
          certify_round config)
  | "scale", false ->
      end_to_end ~seconds (fun () ->
          let inp = scale_setup ~seed () in
          ignore (scale_engine inp);
          scale_round inp)
  | "table1", true ->
      traced_trials ~seconds ~checks:table1_checks (setup_cells (table1_cells ~seed))
  | "transport", true ->
      traced_trials ~seconds ~checks:transport_checks (setup_cells (transport_cells ~seed))
  | "certify", true -> traced_certify ~seconds ~seed (certify_config ())
  | "scale", true -> traced_scale ~seconds ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)

let measure ~name ~seed ~seconds ~trace =
  let o =
    try run_workload ~name ~seed ~seconds:(float_of_int seconds) ~trace
    with e ->
      Fmt.epr "perfbench: %s raised %s@." name (Printexc.to_string e);
      {
        metrics = [];
        checks = [ ("no operation raised", false) ];
        attempted = 1;
        failed = 1;
        notes = [ ("exception", Printexc.to_string e) ];
      }
  in
  {
    Report.workload = name;
    seed;
    seconds;
    trace;
    correct = o.failed = 0 && List.for_all snd o.checks;
    attempted = o.attempted;
    failed = o.failed;
    metrics = o.metrics;
    checks = o.checks;
    notes = o.notes;
  }

let print_human (r : Report.results) =
  Fmt.pr "== %s (seed %d, %d s, trace %d)@." r.workload r.seed r.seconds (Bool.to_int r.trace);
  List.iter (fun (name, ok) -> Fmt.pr "  [%s] %s@." (if ok then "ok" else "FAIL") name) r.checks;
  List.iter
    (fun (name, (v : Report.value)) -> Fmt.pr "  %-28s %14.6g %s@." name v.value v.unit_)
    r.metrics;
  List.iter (fun (k, v) -> Fmt.pr "  %s: %s@." k v) r.notes;
  Fmt.pr "  attempted %d, failed %d -> %s@." r.attempted r.failed
    (if r.correct then "correct" else "INCORRECT")

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 in
  let trace = ref 0 and results = ref "" in
  let usage = "perfbench --workload NAME|all --seed N --seconds S --trace 0|1 [--results FILE]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads, or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured time per workload");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
      ("--results", Arg.Set_string results, "FILE also write the full results as JSON");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let chosen = if !workload = "all" then workload_names else [ !workload ] in
  if not (List.for_all (fun n -> List.mem n workload_names) chosen) || !seconds < 1
     || not (!trace = 0 || !trace = 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let rs =
    List.map
      (fun name ->
        let r = measure ~name ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
        print_human r;
        r)
      chosen
  in
  if !results <> "" then
    Out_channel.with_open_text !results (fun oc -> output_string oc (Report.file rs));
  let line =
    match rs with
    | [ r ] -> Report.line r
    | _ ->
        Report.line
          {
            (List.hd rs) with
            correct = List.for_all (fun (r : Report.results) -> r.correct) rs;
            attempted = List.fold_left (fun a (r : Report.results) -> a + r.attempted) 0 rs;
            failed = List.fold_left (fun a (r : Report.results) -> a + r.failed) 0 rs;
            metrics =
              List.concat_map
                (fun (r : Report.results) ->
                  List.map (fun (k, v) -> (r.workload ^ "." ^ k, v)) r.metrics)
                rs;
          }
  in
  print_endline (J.to_string line);
  if not (List.for_all (fun (r : Report.results) -> r.correct) rs) then exit 1
