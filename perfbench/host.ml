(* Host-speed calibration.

   The benchmark runs on shared hosts whose CPU speed drifts with other
   tenants' load. On the 2-vCPU host the baselines were taken on, the
   same Table-I trial took 110 ms in one minute and 190 ms a few
   minutes later, and ten unscaled runs spread by 15-30% (IQR over
   median). Averaging inside a run cannot remove a drift that outlasts
   the run, so every timed segment is followed by a short calibration
   kernel, and the segment's time is scaled by the kernel's times around
   it: [t * nominal / kernel time]. The result is the segment's time on
   the host running at its nominal speed.

   The kernel allocates and folds short-lived float lists, because the
   simulator's cost is mostly allocation and minor collection. Of the
   kernels tried (pointer chasing, arithmetic, a sequential memory
   sweep, this one), it tracked trial times best: over eight processes
   it cut their spread from 17% to 3%. It shares no data with the
   simulator, and the GC work the program still owes is done before it
   runs (Gc.major_slice 0), so none of the program's collection is
   charged to the kernel. The scaling only follows swings slower than a
   segment. The host's swings last one to a few seconds, so the
   [scale] run is timed in 0.25-s chunks. A [certify] round (~5 s) is
   one library call, scaled as a whole, and stays the noisiest.

   The kernel runs in the program's process, so the program's GC
   settings would reach it too. On the reference host the kernel runs
   28% slower with a 4M-word minor heap and 35% slower with a 64k-word
   one than with the default 256k, so a minor heap set by Gc.set or
   OCAMLRUNPARAM would move the kernel with the simulator and cancel
   out of every scaled time. The kernel therefore always runs
   under the settings [nominal] was measured with, switching to them
   and back only when the program's differ. What the scaling cannot
   separate is a change of the OCaml runtime itself, which moves the
   kernel as well; [comparability] says when the runtime is not the
   one [nominal] was measured on. *)

let now () = float_of_int (Int64.to_int (Monotonic_clock.now ())) *. 1e-9

(* The kernel's time on an unloaded core of the reference host, under
   OCaml [reference_ocaml] with the default minor heap and space
   overhead. *)
let nominal = 0.0025
let reference_ocaml = "5.1.1"
let reference_minor_heap = 262144
let reference_space_overhead = 120

(* Minor words the kernel allocated, for the caller to leave out of the
   program's allocation count. *)
let kernel_words = ref 0.0

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let kernel_once () =
  let t0 = now () in
  let acc = ref 0.0 in
  for _ = 1 to 300 do
    let l = List.init 1000 (fun i -> float_of_int i *. 1.0001) in
    acc := !acc +. List.fold_left ( +. ) 0.0 l
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* A resized minor heap is fresh memory, whose first touch would be
   charged to whatever runs next (the kernel, or the program's next
   segment): fill it once with garbage first. *)
let touch_minor_heap words =
  for i = 1 to words / 2 do
    ignore (Sys.opaque_identity (ref i))
  done

let reference_gc (g : Gc.control) =
  g.minor_heap_size = reference_minor_heap && g.space_overhead = reference_space_overhead

let use_gc (g : Gc.control) =
  Gc.set g;
  touch_minor_heap g.minor_heap_size

(* The median of [reps] kernel runs: longer segments get more (up to
   41 runs, ~0.1 s, after a segment of 5 s or more), so a short hiccup
   of the host does not rescale seconds of work. In six interleaved
   pairs of [certify] runs, whose ~5-s rounds see only a few kernel
   samples per run, raising the cap from 9 to 41 runs cut the spread
   of the scaled throughput from 15% to 9%. *)
let kernel ?(reps = 1) () =
  ignore (Gc.major_slice 0);
  let w0 = minor_words () in
  let program_gc = Gc.get () in
  let switch = not (reference_gc program_gc) in
  if switch then
    use_gc
      {
        program_gc with
        minor_heap_size = reference_minor_heap;
        space_overhead = reference_space_overhead;
      };
  let ks = Array.init reps (fun _ -> kernel_once ()) in
  if switch then use_gc program_gc;
  kernel_words := !kernel_words +. (minor_words () -. w0);
  Array.sort compare ks;
  ks.(reps / 2)

let last = ref nan
let raw_total = ref 0.0
let scaled_total = ref 0.0

(* Time [f]; return its result and its time scaled to nominal host
   speed by the kernel runs just before and just after it. *)
let timed f =
  if Float.is_nan !last then last := kernel ();
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  let k = kernel ~reps:(1 + (2 * min 20 (int_of_float (dt /. 0.25)))) () in
  let scaled = dt *. nominal /. ((!last +. k) /. 2.0) in
  last := k;
  raw_total := !raw_total +. dt;
  scaled_total := !scaled_total +. scaled;
  (x, scaled)

(* Raw over scaled time of everything timed so far: how much slower
   than nominal the host ran. *)
let slowdown () = if !scaled_total = 0.0 then 1.0 else !raw_total /. !scaled_total

(* The program's GC settings, and whether the scaled times compare with
   those of other runs: only on the runtime [nominal] was measured on. *)
let comparability () =
  let g = Gc.get () in
  Fmt.str "program GC minor_heap_size=%d space_overhead=%d (kernel runs under %d/%d); %s"
    g.minor_heap_size g.space_overhead reference_minor_heap reference_space_overhead
    (if Sys.ocaml_version = reference_ocaml then "OCaml " ^ Sys.ocaml_version
     else
       Fmt.str "NOT COMPARABLE: OCaml %s, nominal was measured on %s" Sys.ocaml_version
         reference_ocaml)
