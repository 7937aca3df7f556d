(* The pipeline benchmark: nest -> analyze -> schedule -> compile ->
   execute -> measure, for one workload per process.

   A run is a closed loop: one client runs its operations ("ops")
   back to back until the time budget is spent.  The workload seed
   generates the inputs; the program under test only receives them.

   --trace 0 times every op through the public entry points
   (Driver.analyze, Driver.execute, Driver.execute_resilient) and prints
   the end-to-end metrics.  --trace 1 alternates such untraced ops with
   decomposed ops that call the same layers one public function at a
   time, timing each call from outside, and prints the per-layer
   metrics; the gap between the two kinds of op is the tracing overhead.

   Usage:
     pipebench --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  A record the self-check
   finds impossible (a non-positive duration, a layer longer than its
   op, an iteration count other than extents x steps, a footprint
   larger than the operand universe) is not written: the program
   reports it on stderr and exits with code 3. *)

open Loopir
open Partition
open Runtime
module Driver = Loopart.Driver
module Programs = Loopart.Programs
module Rs = Baselines.Ramanujam_sadayappan
module Ah = Baselines.Abraham_hudak

let nprocs = 2
let now = Mclock.now

(* ------------------------------------------------------------------ *)
(* Metric tables: the names BENCHMARK.json declares, with their units. *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("run_s", "s");
    ("recover_s", "s");
    ("setup_s", "s");
    ("setup_p95_s", "s");
    ("nests_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("ok_frac", "frac");
  ]

let per_layer =
  [
    ("partition.cost_s", "s");
    ("partition.rect_s", "s");
    ("partition.skewed_s", "s");
    ("partition.skewed_failed", "frac");
    ("baselines.rs_s", "s");
    ("baselines.ah_s", "s");
    ("partition.schedule_s", "s");
    ("partition.predict_s", "s");
    ("partition.points_s", "s");
    ("partition.points_alloc_mb", "MB");
    ("runtime.work_s", "s");
    ("runtime.compile_s", "s");
    ("runtime.plan_s", "s");
    ("runtime.boxes_s", "s");
    ("runtime.pool_s", "s");
    ("runtime.alloc_s", "s");
    ("runtime.step_s", "s");
    ("runtime.step_imbalance", "ratio");
    ("runtime.step_ns_per_iter", "ns");
    ("runtime.measure_s", "s");
    ("runtime.footprint_ratio", "ratio");
    ("runtime.tiles_s", "s");
    ("runtime.tiles_alloc_mb", "MB");
    ("runtime.reexec_safe_s", "s");
    ("runtime.resilient_s", "s");
    ("runtime.tiles_reexecuted", "count");
    ("runtime.attempts", "count");
    ("gc.alloc_mb", "MB");
    ("gc.major", "count");
    ("oracle.sequential_s", "s");
    ("fail.imat_not_square", "frac");
    ("fail.size_zero_g", "frac");
    ("fail.rect_no_grid", "frac");
    ("fail.other", "frac");
    ("trace.untraced_op_s", "s");
    ("trace.traced_op_s", "s");
    ("trace.layers_s", "s");
    ("trace.overhead_s", "s");
  ]

(* ------------------------------------------------------------------ *)
(* Samples, checks and the impossible-record guard                     *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* The statistic reported for short samples (calibration loops, kernel
   steps), of which a run takes many.  Co-tenant load only ever inflates
   a sample, by up to 2x for seconds at a time, so a low percentile is
   steadier across runs than the median; the 10th keeps the run's few
   quietest samples from deciding it alone. *)
let low = quantile 0.1

(* Sample lists behind the reported statistics, printed before the
   result so a run can be inspected. *)
let sample_lists = ref []

let sampled name xs =
  sample_lists := (name, List.rev xs) :: !sample_lists;
  xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let correct = ref true

let check ok what =
  if not ok then (
    correct := false;
    prerr_endline ("pipebench: check failed: " ^ what))

let impossible = ref []
let reject what = impossible := what :: !impossible

let duration what d =
  if not (d > 0.0 && Float.is_finite d) then
    reject (Printf.sprintf "%s: non-positive duration %g" what d)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Bytes the program allocated so far, all domains included (a finished
   domain's counters are folded into the process totals). *)
let allocated_mb () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let vm_hwm_mb () =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:"VmHWM:" l then
        Some (Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6))
      else None)
    (read_lines "/proc/self/status")
  |> Option.value ~default:nan

(* Seconds the hypervisor ran something else while one of this
   machine's vCPUs was ready to run: the steal column of /proc/stat,
   summed over vCPUs, in USER_HZ (100) ticks; 0 where the kernel does
   not report it. *)
let steal_s () =
  match read_lines "/proc/stat" with
  | l :: _ -> (
      try Scanf.sscanf l "cpu %_d %_d %_d %_d %_d %_d %_d %d" (fun st -> float_of_int st /. 100.0)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0.0)
  | [] -> 0.0

(* [f ()] and the steal seconds counted while it ran. *)
let steal_during f =
  let s0 = steal_s () in
  let r = f () in
  (r, steal_s () -. s0)

(* A sample's wall seconds net of the steal counted during it.  On a
   shared host co-tenants take a vCPU away for up to a few hundred ms at
   a time, and a parallel op waits for the domain that lost its vCPU:
   over four stencil2d runs, op medians spread by 21% raw and by 9% net
   of steal.  A sample whose counted steal reaches half its wall time is
   dropped: there the count is all quantization (10 ms ticks) or two
   vCPUs were stolen at once, and the difference measures neither. *)
let net ~stolen wall =
  if stolen < 0.5 *. wall then Some (wall -. stolen) else None

(* VmHWM once set-up and the first op are done: the memory a one-shot
   run of the pipeline needs.  Later ops only add GC-timing noise. *)
let first_op_peak = ref nan
let note_first_op_peak () =
  if Float.is_nan !first_op_peak then first_op_peak := vm_hwm_mb ()

(* ------------------------------------------------------------------ *)
(* The per-layer recorder of decomposed ops                            *)
(* ------------------------------------------------------------------ *)

(* Sum of each layer's time (or count) over the decomposed ops, and the
   layers timed inside the current op. *)
let layer_total : (string, float) Hashtbl.t = Hashtbl.create 64
let op_layers = ref []

let bump name v =
  let old = Option.value ~default:0.0 (Hashtbl.find_opt layer_total name) in
  Hashtbl.replace layer_total name (old +. v)

let total name = Option.value ~default:0.0 (Hashtbl.find_opt layer_total name)

(* Time one public call as a layer of the current decomposed op; the
   time counts also when the call raises. *)
let layer name f =
  let t0 = now () in
  let finish () =
    let dt = now () -. t0 in
    duration name dt;
    bump name dt;
    op_layers := (name, dt) :: !op_layers
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let layer_alloc name f =
  let m0 = allocated_mb () in
  let r = layer (name ^ "_s") f in
  bump (name ^ "_alloc_mb") (allocated_mb () -. m0);
  r

(* Wall times of the decomposed ops, newest first. *)
let traced_walls = ref []

(* Run one decomposed op [f], whose result is the check of its outputs;
   the check runs after the op's wall time is taken.  The layers the op
   timed must fit inside it. *)
let decomposed_op f =
  op_layers := [];
  let verify, wall = timed f in
  duration "traced op" wall;
  let layers = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 !op_layers in
  List.iter
    (fun (name, dt) ->
      if dt > wall then
        reject
          (Printf.sprintf "%s: layer %.6f s longer than its op %.6f s" name
             dt wall))
    !op_layers;
  bump "trace.traced_op_s" wall;
  bump "trace.layers_s" layers;
  traced_walls := wall :: !traced_walls;
  verify ()

(* ------------------------------------------------------------------ *)
(* Shared pieces of the run workloads                                  *)
(* ------------------------------------------------------------------ *)

type run_nest = {
  nest : Nest.t;
  steps : int;
  points : int;  (** iterations of one parallel step *)
  compiled : Exec.compiled;
  oracle : float array;  (** [Exec.sequential]'s final buffer *)
  oracle_sum : float;
}

let prepare nest =
  let compiled = Exec.compile nest in
  let steps = Exec.steps_of_nest nest in
  let oracle, oracle_s = timed (fun () -> Exec.sequential compiled ~steps) in
  duration "oracle" oracle_s;
  bump "oracle.sequential_s" oracle_s;
  let points =
    Array.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 (Nest.bounds nest)
  in
  {
    nest;
    steps;
    points;
    compiled;
    oracle;
    oracle_sum = Array.fold_left ( +. ) 0.0 oracle;
  }

let working_set_bytes r = 8 * Exec.total_elements r.compiled

let check_iterations what r n =
  if n <> r.points * r.steps then
    reject
      (Printf.sprintf "%s: executed %d iterations, extents x steps = %d" what n
         (r.points * r.steps))

let check_footprint what r ~measured ~predicted =
  if measured > Exec.total_elements r.compiled then
    reject
      (Printf.sprintf "%s: footprint %d exceeds the operand universe %d" what
         measured (Exec.total_elements r.compiled));
  check (measured = predicted)
    (Printf.sprintf "%s: measured footprint %d <> predicted %d" what measured
       predicted)

(* Compile-time setup of one op: the passes [setup_s] times. *)
let setup ?(try_skewed = false) ~nprocs nest =
  let a = Driver.analyze ~try_skewed ~nprocs nest in
  (a, Driver.schedule ~tile:(Driver.best_tile a) a)

(* The fastest of [repeats] back-to-back setups of a nest.  Co-tenant
   load on a shared machine only ever inflates a sample, so the minimum
   of a short burst is the setup's own cost. *)
let setup_burst ~repeats nest =
  let best = ref infinity in
  for _ = 1 to repeats do
    let _, dt = timed (fun () -> setup ~nprocs nest) in
    duration "setup" dt;
    best := Float.min !best dt
  done;
  !best

(* The closed loop: op [i] for i = 0, 1, ..., each on a freshly
   collected heap, while an op as long as the last one still ends within
   [seconds], and at least [min_ops] times. *)
let closed_loop ~seconds ~min_ops op =
  let t_end = now () +. seconds in
  let rec go i last =
    if i < min_ops || now () +. last <= t_end then (
      Gc.compact ();
      let (), dt = timed (fun () -> op i) in
      go (i + 1) dt)
  in
  go 0 0.0

(* ns per iteration of warmed [Kernel.one_pass] steps over operands the
   benchmark owns; a sample is a pass of enough steps for about 2 M
   iterations.  The pass of all steps that warms the operands must leave
   the buffer [Exec.sequential] computes, bit for bit. *)
let kernel_steps r ~plan ~boxes ~samples =
  let k = max 1 (2_000_000 / r.points) in
  Pool.with_pool nprocs (fun pool ->
      let storage = Exec.alloc r.compiled in
      let seconds = Array.make nprocs 0.0 in
      let iterations = Array.make nprocs 0 in
      Kernel.one_pass pool plan storage ~boxes ~steps:r.steps ~seconds ~iterations;
      check_iterations "kernel pass" r (Array.fold_left ( + ) 0 iterations);
      check
        (same_bits (Exec.to_float_array storage) r.oracle)
        "Kernel.one_pass buffer differs from Exec.sequential";
      List.init samples (fun _ ->
          let (), dt =
            timed (fun () ->
                Kernel.one_pass pool plan storage ~boxes ~steps:k ~seconds
                  ~iterations)
          in
          duration "kernel step" dt;
          dt *. 1e9 /. float_of_int (k * r.points)))

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                           *)
(* ------------------------------------------------------------------ *)

(* The host's speed drifts: co-tenant load slows every core by up to 2x
   for minutes at a time, longer than a run.  A fixed loop of the
   benchmark's own - an integer chain, random reads in a 256 KB array,
   short allocations - timed after every op measures that speed, and the
   end-to-end times are reported at the speed where the loop takes
   [calibration_ref] seconds (its median over a quiet run on a 2-vCPU
   Xeon VM).  The program's code never runs inside the loop, so a change
   to the program moves the scaled times as it moves the raw ones. *)
let calibration_ref = 0.42e-3
let calibration_buf = Array.make 32768 1.0

let calibration_loop () =
  let x = ref 1 and acc = ref 0.0 and l = ref [] in
  for i = 0 to 199_999 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc +. Array.unsafe_get calibration_buf (!x land 32767);
    if i land 15 = 0 then l := i :: (if i land 1023 = 0 then [] else !l)
  done;
  ignore (Sys.opaque_identity (!acc, !l))

let calibrations = ref []

(* One calibration sample: the fastest of five loops. *)
let calibrate () =
  let best = ref infinity in
  for _ = 1 to 5 do
    let (), dt = timed calibration_loop in
    best := Float.min !best dt
  done;
  duration "calibration" !best;
  calibrations := !best :: !calibrations

(* The factor that brings this run's times to the reference speed.  The
   median over the run's samples, like the op times it scales, spans
   the run's slow and quiet phases alike. *)
let speed_scale () =
  calibration_ref /. median (sampled "calibration_s" !calibrations)

let kernel_inputs r =
  let _, sched = setup ~nprocs r.nest in
  (Kernel.plan r.compiled, Kernel.boxes_of_schedule sched)

(* ------------------------------------------------------------------ *)
(* stencil2d: Driver.execute, Tiled policy, kernels                     *)
(* ------------------------------------------------------------------ *)

let exec_config =
  { Driver.default_exec_config with Driver.repeats = 1; kernels = true }

(* One untraced op; returns its seconds. *)
let execute_op r =
  let t0 = now () in
  let a, _ = setup ~nprocs r.nest in
  let rep = Driver.execute ~config:exec_config a in
  let op = now () -. t0 in
  duration "op" op;
  let iters =
    Array.fold_left
      (fun acc (d : Measure.domain_stat) -> acc + d.iterations)
      0 rep.Measure.per_domain
  in
  check_iterations "Driver.execute" r iters;
  (match rep.Measure.predicted_per_domain with
  | Some predicted ->
      check_footprint "Driver.execute" r ~measured:(Measure.max_footprint rep)
        ~predicted
  | None -> check false "Driver.execute: no footprint prediction");
  check rep.Measure.exact_footprints "Driver.execute: footprints not exact";
  check
    (Int64.equal
       (Int64.bits_of_float rep.Measure.checksum)
       (Int64.bits_of_float r.oracle_sum))
    "Driver.execute checksum differs from Exec.sequential";
  op

(* The same op, one public call at a time (what Driver.analyze,
   Driver.schedule and Driver.execute's kernel path do, in order). *)
let execute_decomposed r =
  let nest = r.nest in
  let cost = layer "partition.cost_s" (fun () -> Cost.of_nest nest) in
  let rect = layer "partition.rect_s" (fun () -> Rectangular.optimize cost ~nprocs) in
  ignore (layer "baselines.rs_s" (fun () -> Rs.analyze nest));
  ignore (layer "baselines.ah_s" (fun () -> Ah.partition nest ~nprocs));
  let tile = rect.Rectangular.tile in
  let sched = layer "partition.schedule_s" (fun () -> Codegen.make nest tile ~nprocs) in
  let predicted =
    layer "partition.predict_s" (fun () ->
        Cost.misses_per_tile cost tile
        * Intmath.Int_math.ceil_div (Codegen.num_tiles sched) nprocs)
  in
  let compiled = layer "runtime.compile_s" (fun () -> Exec.compile nest) in
  let plan = layer "runtime.plan_s" (fun () -> Kernel.plan compiled) in
  let boxes = layer "runtime.boxes_s" (fun () -> Kernel.boxes_of_schedule sched) in
  let assignment =
    layer_alloc "partition.points" (fun () -> Scheduling.of_schedule sched)
  in
  let work = layer "runtime.work_s" (fun () -> Exec.static_of_assignment assignment) in
  let pool = layer "runtime.pool_s" (fun () -> Pool.create nprocs) in
  let storage = layer "runtime.alloc_s" (fun () -> Exec.alloc compiled) in
  let seconds = Array.make nprocs 0.0 and iterations = Array.make nprocs 0 in
  layer "runtime.step_s" (fun () ->
      Kernel.one_pass pool plan storage ~boxes ~steps:r.steps ~seconds ~iterations);
  let inst =
    layer "runtime.measure_s" (fun () ->
        Exec.measure pool compiled work ~steps:r.steps ~mode:Measure.Auto)
  in
  layer "runtime.pool_s" (fun () -> Pool.shutdown pool);
  fun () ->
    check_iterations "decomposed kernel pass" r
      (Array.fold_left ( + ) 0 iterations);
    check_iterations "decomposed measure pass" r
      (Array.fold_left ( + ) 0 inst.Exec.iterations);
    let measured = Array.fold_left max 0 inst.Exec.footprints in
    check_footprint "Exec.measure" r ~measured ~predicted;
    check
      (same_bits (Exec.to_float_array storage) r.oracle)
      "decomposed Kernel.one_pass buffer differs from Exec.sequential";
    let busy = Array.fold_left max 0.0 seconds in
    let avg = Array.fold_left ( +. ) 0.0 seconds /. float_of_int nprocs in
    bump "runtime.step_imbalance" (if avg > 0.0 then busy /. avg else nan);
    bump "runtime.footprint_ratio"
      (float_of_int measured /. float_of_int predicted)

(* ------------------------------------------------------------------ *)
(* stencil2d-resilient: Driver.execute_resilient, crash every other op  *)
(* ------------------------------------------------------------------ *)

let resilient_config = { Driver.default_exec_config with Driver.kernels = true }

(* A fresh one-shot plan per crash op: plans are consumed as they fire. *)
let crash_plan step =
  Fault.make [ { Fault.action = Fault.Crash; domain = None; step; claim = 0 } ]

(* Check a resilient outcome; false when the op failed (a crash op that
   re-executed no tile, or a fault-free op that re-executed some). *)
let check_resilient r ~crash (report, buffer) =
  check report.Report.completed "resilient op did not complete";
  check report.Report.covered_exactly_once "resilient op: tiles not covered exactly once";
  check (same_bits buffer r.oracle) "resilient buffer differs from Exec.sequential";
  let reexecuted = Report.reexecuted_tiles report in
  if crash then reexecuted >= 1 else reexecuted = 0

(* One untraced op; returns its seconds and whether it succeeded. *)
let resilient_op r ~crash_step =
  let t0 = now () in
  let a, _ = setup ~nprocs r.nest in
  let plan = Option.map crash_plan crash_step in
  let outcome = Driver.execute_resilient ~config:resilient_config ?plan a in
  let op = now () -. t0 in
  duration "op" op;
  (op, check_resilient r ~crash:(crash_step <> None) outcome)

let resilient_decomposed r ~crash_step =
  let nest = r.nest in
  let cost = layer "partition.cost_s" (fun () -> Cost.of_nest nest) in
  let rect = layer "partition.rect_s" (fun () -> Rectangular.optimize cost ~nprocs) in
  ignore (layer "baselines.rs_s" (fun () -> Rs.analyze nest));
  ignore (layer "baselines.ah_s" (fun () -> Ah.partition nest ~nprocs));
  let sched =
    layer "partition.schedule_s" (fun () ->
        Codegen.make nest rect.Rectangular.tile ~nprocs)
  in
  let compiled = layer "runtime.compile_s" (fun () -> Exec.compile nest) in
  let part = layer_alloc "runtime.tiles" (fun () -> Resilient.tiles_of_schedule sched) in
  let plan = Option.map crash_plan crash_step in
  let ((report, _) as outcome) =
    layer "runtime.resilient_s" (fun () ->
        Resilient.execute ~kernels:true ?plan ~compiled ~steps:r.steps
          ~partition:(fun ~nprocs:_ -> part)
          ~nprocs ())
  in
  if crash_step <> None then
    bump "runtime.tiles_reexecuted" (float_of_int (Report.reexecuted_tiles report));
  bump "runtime.attempts" (float_of_int (List.length report.Report.attempts));
  fun () -> (compiled, check_resilient r ~crash:(crash_step <> None) outcome)

(* ------------------------------------------------------------------ *)
(* compile-skewed: seeded Proptest.Gen cases, analysis only             *)
(* ------------------------------------------------------------------ *)

let failure_causes =
  [
    ("Imat.det: not square", "fail.imat_not_square");
    ("Size.reduce: zero G", "fail.size_zero_g");
    ("Rectangular.optimize: no feasible grid", "fail.rect_no_grid");
  ]

let cause_of = function
  | Invalid_argument m | Failure m -> m
  | e -> Printexc.to_string e

(* The failure class of a diagnostic: a known cause, else the message. *)
let classify msg =
  match
    List.find_opt
      (fun (prefix, _) -> String.starts_with ~prefix msg)
      failure_causes
  with
  | Some (sub, metric) -> (sub, metric)
  | None -> (msg, "fail.other")

(* What a decided case must satisfy without enumerating its space. *)
let check_decision (c : Proptest.Gen.case) (a : Driver.analysis) sched =
  let r = a.Driver.rect in
  let bounds = Nest.bounds c.Proptest.Gen.nest in
  let id = Proptest.Gen.to_string c in
  check
    (Array.fold_left ( * ) 1 r.Rectangular.grid = c.Proptest.Gen.nprocs)
    ("grid does not multiply to P: " ^ id);
  check
    (Array.length r.Rectangular.sizes = Array.length bounds
    && Array.for_all2
         (fun s (lo, hi) -> s >= 1 && s <= hi - lo + 1)
         r.Rectangular.sizes bounds)
    ("tile sizes outside 1..N: " ^ id);
  check (Codegen.num_tiles sched >= 1) ("no tiles: " ^ id);
  check
    (Tile.nesting sched.Codegen.tile = Array.length bounds
    && Intmath.Rat.compare (Tile.volume sched.Codegen.tile) Intmath.Rat.zero > 0)
    ("empty or ill-shaped tile: " ^ id)

let causes : (string, int) Hashtbl.t = Hashtbl.create 8

(* One untraced case: Ok seconds, or Error (cause, seconds to the
   diagnostic). *)
let decide (c : Proptest.Gen.case) =
  let t0 = now () in
  match setup ~try_skewed:true ~nprocs:c.Proptest.Gen.nprocs c.Proptest.Gen.nest with
  | a, sched ->
      let dt = now () -. t0 in
      duration "case" dt;
      check_decision c a sched;
      Ok dt
  | exception e ->
      let dt = now () -. t0 in
      duration "case" dt;
      Error (cause_of e, dt)

(* The same case one call at a time, up to the first that raises. *)
let decide_decomposed (c : Proptest.Gen.case) =
  let nest = c.Proptest.Gen.nest and nprocs = c.Proptest.Gen.nprocs in
  try
    let cost = layer "partition.cost_s" (fun () -> Cost.of_nest nest) in
    let rect = layer "partition.rect_s" (fun () -> Rectangular.optimize cost ~nprocs) in
    let skewed =
      match layer "partition.skewed_s" (fun () -> Skewed.optimize cost ~nprocs) with
      | s -> s
      | exception e ->
          bump "partition.skewed_failed" 1.0;
          raise e
    in
    ignore (layer "baselines.rs_s" (fun () -> Rs.analyze nest));
    ignore (layer "baselines.ah_s" (fun () -> Ah.partition nest ~nprocs));
    let tile =
      match skewed with
      | Some s when s.Skewed.improves_on_rect -> s.Skewed.tile
      | Some _ | None -> rect.Rectangular.tile
    in
    ignore (layer "partition.schedule_s" (fun () -> Codegen.make nest tile ~nprocs))
  with _ -> ()

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

type tally = { mutable tried : int; mutable lost : int }

(* Run one op; an op that raises or returns [false] counts as failed,
   and only a successful op's time is a sample. *)
let attempt t f =
  t.tried <- t.tried + 1;
  match f () with
  | dt, true -> Some dt
  | _, false ->
      t.lost <- t.lost + 1;
      None
  | exception e ->
      t.lost <- t.lost + 1;
      prerr_endline ("pipebench: op failed: " ^ Printexc.to_string e);
      None

let push xs = function Some x -> xs := x :: !xs | None -> ()
let minimum xs = List.fold_left Float.min infinity xs

let ok_frac t = float_of_int (t.tried - t.lost) /. float_of_int (max 1 t.tried)

(* Run [f], recording the megabytes it allocated and the major
   collections it triggered. *)
let gc_counted ~alloc ~majors f =
  let m0 = allocated_mb () and g0 = major_collections () in
  let r = f () in
  alloc := (allocated_mb () -. m0) :: !alloc;
  majors := float_of_int (major_collections () - g0) :: !majors;
  r

let timing_layers =
  List.filter_map
    (fun (name, unit) ->
      if unit = "s" && not (String.starts_with ~prefix:"trace." name)
         && name <> "oracle.sequential_s"
      then Some name
      else None)
    per_layer

(* Per-layer metrics of a traced run: layer sums averaged over [ops]
   decomposed ops, and the untraced ops' allocation.  Each untraced op
   runs right before a decomposed op on the same input; the tracing
   overhead is the median over these pairs of traced minus untraced. *)
let traced_metrics ~ops ~untraced ~alloc ~majors extra =
  let per_op name = (name, total name /. float_of_int (max 1 ops)) in
  let rec gaps us ts =
    match (us, ts) with
    | u :: us, t :: ts -> (t -. u) :: gaps us ts
    | _ -> []
  in
  List.map per_op (timing_layers @ extra @ [ "trace.traced_op_s"; "trace.layers_s" ])
  @ [
      ("gc.alloc_mb", mean alloc);
      ("gc.major", mean majors);
      ("oracle.sequential_s", total "oracle.sequential_s");
      ("trace.untraced_op_s", mean untraced);
      ( "trace.overhead_s",
        median (gaps (List.rev untraced) (List.rev !traced_walls)) );
    ]

(* End-to-end metrics of a run nest, at the reference speed.  [ops] and
   [recover] hold op seconds, reported as their median: one op's time
   varies by up to 2x within a run, so a low percentile rests on too few
   samples to repeat from run to run. *)
let run_metrics ~ops ~recover ~setups t =
  let scale = speed_scale () in
  let run_s = scale *. median (sampled "op_s" ops) in
  let setup_s = scale *. minimum (sampled "setup_s" setups) in
  [
    ("run_s", run_s);
    ("recover_s", scale *. median (sampled "recover_op_s" recover));
    ("setup_s", setup_s);
    (* One nest: its setup time is also the tail over nests. *)
    ("setup_p95_s", setup_s);
    ("nests_per_s", 1.0 /. run_s);
    ("ok_frac", ok_frac t);
  ]

let execute_workload ~nest ~seconds ~trace =
  let r = prepare nest in
  let plan, boxes = kernel_inputs r in
  (* One untimed op first: heap growth and cold code are not op costs. *)
  ignore (execute_op r);
  note_first_op_peak ();
  let t = { tried = 0; lost = 0 } in
  let metrics =
    if not trace then (
      (* Driver.execute checks values on the interpreter; check the
         kernels the op timed against the oracle once. *)
      ignore (kernel_steps r ~plan ~boxes ~samples:0);
      let ops = ref [] and setups = ref [] in
      closed_loop ~seconds ~min_ops:3 (fun _ ->
          let op, stolen =
            steal_during (fun () -> attempt t (fun () -> (execute_op r, true)))
          in
          push ops (Option.bind op (net ~stolen));
          setups := setup_burst ~repeats:20 nest :: !setups;
          calibrate ());
      (* No fault is injected: every op completes without recovery. *)
      run_metrics ~ops:!ops ~recover:!ops ~setups:!setups t)
    else
      let untraced = ref [] and ops = ref [] and steps = ref [] in
      let alloc = ref [] and majors = ref [] in
      closed_loop ~seconds ~min_ops:4 (fun i ->
          if i mod 2 = 0 then
            push untraced
              (attempt t (fun () ->
                   (gc_counted ~alloc ~majors (fun () -> execute_op r), true)))
          else (
            push ops
              (attempt t (fun () ->
                   decomposed_op (fun () -> execute_decomposed r);
                   ((), true)));
            steps := kernel_steps r ~plan ~boxes ~samples:10 @ !steps));
      traced_metrics ~ops:(List.length !ops) ~untraced:!untraced ~alloc:!alloc
        ~majors:!majors
        [
          "partition.points_alloc_mb";
          "runtime.step_imbalance";
          "runtime.footprint_ratio";
        ]
      @ [ ("runtime.step_ns_per_iter", low !steps) ]
  in
  (Some (working_set_bytes r), { attempted = t.tried; failed = t.lost; metrics })

let resilient_workload ~nest ~seed ~seconds ~trace =
  let r = prepare nest in
  let rng = Random.State.make [| seed |] in
  (* Odd ops crash once, at a seeded step. *)
  let crash_step i =
    if i mod 2 = 1 then Some (1 + Random.State.int rng r.steps) else None
  in
  ignore (resilient_op r ~crash_step:None);
  note_first_op_peak ();
  let t = { tried = 0; lost = 0 } in
  let metrics =
    if not trace then (
      let ff = ref [] and crash = ref [] and setups = ref [] in
      closed_loop ~seconds ~min_ops:4 (fun i ->
          let crash_step = crash_step i in
          let op, stolen =
            steal_during (fun () -> attempt t (fun () -> resilient_op r ~crash_step))
          in
          push (if crash_step = None then ff else crash) (Option.bind op (net ~stolen));
          setups := setup_burst ~repeats:20 nest :: !setups;
          calibrate ());
      run_metrics ~ops:!ff ~recover:!crash ~setups:!setups t)
    else
      (* Ops cycle through untraced fault-free, traced fault-free,
         untraced crash, traced crash. *)
      let untraced = ref [] and ops = ref 0 and crashes = ref 0 in
      let alloc = ref [] and majors = ref [] in
      closed_loop ~seconds ~min_ops:4 (fun i ->
          let crash_step = crash_step (i / 2) in
          if i mod 2 = 0 then
            push untraced
              (attempt t (fun () ->
                   gc_counted ~alloc ~majors (fun () -> resilient_op r ~crash_step)))
          else
            match
              attempt t (fun () ->
                  decomposed_op (fun () -> resilient_decomposed r ~crash_step))
            with
            | Some compiled ->
                incr ops;
                if crash_step <> None then incr crashes;
                (* A sub-layer of Resilient.execute, probed outside the op. *)
                let _, dt = timed (fun () -> Exec.reexecution_safe compiled) in
                duration "runtime.reexec_safe_s" dt;
                bump "runtime.reexec_safe_s" dt
            | None -> ());
      traced_metrics ~ops:!ops ~untraced:!untraced ~alloc:!alloc ~majors:!majors
        [ "runtime.tiles_alloc_mb"; "runtime.attempts" ]
      @ [
          ( "runtime.tiles_reexecuted",
            total "runtime.tiles_reexecuted" /. float_of_int (max 1 !crashes) );
        ]
  in
  (Some (working_set_bytes r), { attempted = t.tried; failed = t.lost; metrics })

(* The draw every run decides: cases 0..299 of Proptest.Gen seed 1.
   Decision times of these nests span five decades (a few depth-3 nests
   take 0.3-4 s in Skewed.optimize), so a draw that changed with the
   benchmark seed would move nests_per_s by tens of percent from seed to
   seed; the benchmark seed shuffles the order of each pass instead. *)
let draw_seed = 1
let draw_size = 300

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let compile_workload ~seed ~trace =
  let cases =
    Array.init draw_size (fun id -> Proptest.Gen.generate ~seed:draw_seed ~id)
  in
  let times = Array.make draw_size [] in
  let cause = Array.make draw_size None in
  let rng = Random.State.make [| seed |] in
  let t = { tried = 0; lost = 0 } in
  let untraced = ref [] and ops = ref 0 and alloc = ref [] and majors = ref [] in
  (* Decide case [k]; a diagnostic counts as failed, timed up to it. *)
  let decide_case k =
    t.tried <- t.tried + 1;
    let dt, stolen =
      steal_during (fun () ->
          match gc_counted ~alloc ~majors (fun () -> decide cases.(k)) with
          | Ok dt -> dt
          | Error (msg, dt) ->
              t.lost <- t.lost + 1;
              cause.(k) <- Some (classify msg);
              dt)
    in
    times.(k) <- (dt, stolen) :: times.(k);
    dt
  in
  (* An op is one whole pass over the draw.  Every run does the same
     work, so that a case's time is over the same number of decisions:
     untraced, two passes deciding each case twice; traced, one pass.
     Untraced, a calibration sample precedes every decision, so that
     the speed samples span the same moments as the decisions. *)
  for _ = 1 to if trace then 1 else 2 do
    Gc.compact ();
    let order = Array.init draw_size Fun.id in
    shuffle rng order;
    Array.iter
      (fun k ->
        if trace then (
          untraced := decide_case k :: !untraced;
          decomposed_op (fun () ->
              decide_decomposed cases.(k);
              ignore);
          incr ops)
        else
          for _ = 1 to 2 do
            calibrate ();
            ignore (decide_case k)
          done)
      order;
    note_first_op_peak ()
  done;
  Array.iter
    (Option.iter (fun (msg, metric) ->
         Hashtbl.replace causes msg
           (1 + Option.value ~default:0 (Hashtbl.find_opt causes msg));
         bump metric 1.0))
    cause;
  let per_case name = (name, total name /. float_of_int draw_size) in
  let metrics =
    if not trace then
      (* A case's time is the median of its decisions net of steal
         (of its wall times, if [net] dropped them all); the mean over
         cases is the time to decide a nest.  The median case is a
         0.1 ms decision whose time moves with cache state, not with
         the analysis. *)
      let scale = speed_scale () in
      let case_times =
        sampled "case_s"
          (Array.to_list
             (Array.map
                (fun ds ->
                  match List.filter_map (fun (dt, stolen) -> net ~stolen dt) ds with
                  | [] -> median (List.map fst ds)
                  | nets -> median nets)
                times))
        |> List.map (fun dt -> scale *. dt)
      in
      let case_s = mean case_times in
      [
        ("run_s", case_s);
        ("recover_s", case_s);
        ("setup_s", case_s);
        ("setup_p95_s", quantile 0.95 case_times);
        ("nests_per_s", 1.0 /. case_s);
        ("ok_frac", ok_frac t);
      ]
    else
      traced_metrics ~ops:!ops ~untraced:!untraced ~alloc:!alloc ~majors:!majors
        [ "partition.skewed_failed" ]
      @ List.map per_case ("fail.other" :: List.map snd failure_causes)
  in
  (None, { attempted = t.tried; failed = t.lost; metrics })

(* ------------------------------------------------------------------ *)
(* Environment, output                                                 *)
(* ------------------------------------------------------------------ *)

let cache_sizes () =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let entries = try Array.to_list (Sys.readdir dir) with Sys_error _ -> [] in
  List.filter_map
    (fun e ->
      let read f =
        match read_lines (Filename.concat (Filename.concat dir e) f) with
        | l :: _ -> Some (String.trim l)
        | [] -> None
      in
      match (read "level", read "type", read "size") with
      | Some level, Some ty, Some size when ty <> "Instruction" ->
          Some (Printf.sprintf "\"L%s\": %S" level size)
      | _ -> None)
    (List.sort compare entries)

let env_line ~workload ~working_set =
  let cpu =
    Option.value ~default:"unknown"
      (List.find_map
         (fun l ->
           match String.index_opt l ':' with
           | Some i when String.trim (String.sub l 0 i) = "model name" ->
               Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | _ -> None)
         (read_lines "/proc/cpuinfo"))
  in
  let pmu = Sys.file_exists "/sys/bus/event_source/devices/cpu" in
  Printf.sprintf
    "env: {\"workload\": %S, \"cores\": %d, \"cpu\": %S, %s, \"ocaml\": %S, \
     \"working_set_bytes\": %s, \"cpu_pmu\": %b, \"misses\": %S}"
    workload
    (Domain.recommended_domain_count ())
    cpu
    (String.concat ", " (cache_sizes ()))
    Sys.ocaml_version
    (match working_set with Some b -> string_of_int b | None -> "null")
    pmu
    (if pmu then "hardware counters available but not read"
     else "footprint counts, not hardware counts (no cpu PMU)")

let workloads = [ "stencil2d"; "stencil2d-resilient"; "compile-skewed" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage = "pipebench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then (
    prerr_endline ("pipebench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2);
  if !trace <> 0 && !trace <> 1 then (
    prerr_endline "pipebench: --trace must be 0 or 1";
    exit 2);
  let seconds = !seconds and trace = !trace = 1 and seed = !seed in
  let working_set, res =
    match !workload with
    | "stencil2d" ->
        execute_workload ~nest:(Programs.stencil5 ~n:512 ~steps:16 ()) ~seconds ~trace
    | "stencil2d-resilient" ->
        resilient_workload ~nest:(Programs.stencil5 ~n:512 ~steps:4 ()) ~seed ~seconds
          ~trace
    | _ -> compile_workload ~seed ~trace
  in
  let res =
    if trace then res
    else { res with metrics = res.metrics @ [ ("peak_rss_mb", !first_op_peak) ] }
  in
  let table = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name res.metrics with
        | Some v ->
            if not (Float.is_finite v) then
              reject (Printf.sprintf "%s: non-finite value" name);
            (name, unit, v)
        | None when trace -> (name, unit, 0.0)
        | None ->
            reject (name ^ ": not measured");
            (name, unit, nan))
      table
  in
  if res.attempted < 1 then reject "no op attempted";
  if not trace then
    List.iter
      (fun (name, unit, v) -> if unit = "s" then duration name v)
      metrics;
  match !impossible with
  | _ :: _ as why ->
      List.iter
        (fun w -> prerr_endline ("pipebench: impossible record: " ^ w))
        (List.rev why);
      exit 3
  | [] ->
      print_endline (env_line ~workload:!workload ~working_set);
      if !sample_lists <> [] then
        print_endline
          ("samples: {"
          ^ String.concat ", "
              (List.rev_map
                 (fun (name, xs) ->
                   Printf.sprintf "%S: [%s]" name
                     (String.concat ", " (List.map (Printf.sprintf "%.6g") xs)))
                 !sample_lists)
          ^ "}");
      if Hashtbl.length causes > 0 then
        print_endline
          ("failures: {"
          ^ String.concat ", "
              (Hashtbl.fold
                 (fun msg n acc -> Printf.sprintf "%S: %d" msg n :: acc)
                 causes []
              |> List.sort compare)
          ^ "}");
      Printf.printf
        "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        !correct res.attempted res.failed
        (String.concat ", "
           (List.map
              (fun (name, unit, v) ->
                Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
              metrics))
