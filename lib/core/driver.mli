(** The end-to-end partitioning pipeline: the OCaml analogue of the
    Alewife compiler passes of Figure 10 (analysis on the communication
    graph, loop partitioning, data partitioning/alignment, and - standing
    in for a machine run - simulation). *)

open Loopir
open Partition
open Machine

type analysis = {
  nest : Nest.t;
  nprocs : int;
  cost : Cost.t;  (** classification + symbolic footprints *)
  rect : Rectangular.result;  (** the partition the compiler emits *)
  skewed : Skewed.result option;
      (** parallelepiped alternative, when the engine applies and was
          requested *)
  rs : Baselines.Ramanujam_sadayappan.t;  (** communication-freedom *)
  ah : (Baselines.Abraham_hudak.result, string) result;
}

val analyze : ?try_skewed:bool -> nprocs:int -> Nest.t -> analysis
(** Classify, build the cost model and optimize.  [try_skewed] defaults to
    [false] (rectangular only, like the implemented Alewife subset). *)

val best_tile : analysis -> Tile.t
(** The skewed tile when it strictly improves on the rectangular one,
    else the rectangular tile. *)

val schedule : ?tile:Tile.t -> analysis -> Codegen.schedule

val simulate :
  ?tile:Tile.t -> ?config:Sim.config -> analysis -> Sim.result
(** Run the simulator on the chosen partition (default: rectangular tile,
    default simulator configuration). *)

val simulate_aligned :
  ?tile:Tile.t -> ?geometry:Cache.geometry -> analysis -> Sim.result
(** Distributed-memory run: 2-D mesh with loop-tile-aligned data
    placement (the paper's Section 4 configuration). *)

(** {2 Real execution on OCaml 5 domains}

    The measurement the paper's Section 4 deferred to the Alewife
    machine: run the partitioned nest for real, on [nprocs] domains over
    shared operands, and measure what the model predicts. *)

type exec_policy =
  | Tiled  (** the compile-time partition of {!schedule} *)
  | Cyclic  (** run-time self-scheduling, chunk 1 *)
  | Block_cyclic of int  (** run-time self-scheduling, fixed chunk *)
  | Guided  (** guided self-scheduling (the paper's reference [1]) *)
  | Work_steal of int
      (** the compile-time tiles, drained by their owners in chunks of
          this many iterations, with back-stealing *)

type exec_config = {
  policy : exec_policy;
  repeats : int;  (** timed runs; minimum is reported *)
  steps : int option;  (** override the outer [Doseq] trip count *)
  kernels : bool;
      (** run boxes on {!Runtime.Kernel}'s strided loops instead of the
          interpreter, under every policy and in {!execute_resilient}:
          rectangular tiles, box-shaped parallelepiped groups (ragged
          tiles stay interpreted) and the sub-boxes of claimed ranges *)
  trace : Runtime.Trace.t option;
      (** record per-domain spans and counters into this recorder during
          the timed passes (size it for [analysis.nprocs]); under the
          [Tiled] policy every tile gets its own span *)
}

val default_exec_config : exec_config
(** [Tiled], 3 repeats, the nest's own step count, interpreter (no
    kernels), no trace. *)

val execute :
  ?config:exec_config -> ?tile:Tile.t -> analysis -> Runtime.Measure.report
(** Execute the nest on [analysis.nprocs] domains and measure per-domain
    wall-clock, iterations and exact distinct-elements footprints,
    alongside the Theorem 2/4 prediction when the policy is [Tiled].
    One path for every policy: build the work, {!Runtime.Exec.run} it,
    report.  [Tiled] and [Work_steal] run
    {!Runtime.Resilient.tiles_of_schedule}'s tiles, the self-scheduling
    policies claim ranges of the iteration space, and no policy lists
    iteration points. *)

val execute_resilient :
  ?config:exec_config ->
  ?resilience:Runtime.Resilient.config ->
  ?plan:Runtime.Fault.plan ->
  ?tile:Tile.t ->
  analysis ->
  Runtime.Report.t * float array
(** Execute the nest under the fault-tolerant runtime ({!Runtime.Resilient}):
    watchdog timeouts, tile-level crash recovery and policy-driven
    retry/degradation.  [plan] injects faults for testing; when degrading
    shrinks the pool, the partition is re-optimized for the smaller
    processor count.  [config.repeats] and [config.policy] are ignored
    (a resilient run is a single monitored execution of the tiles). *)

val validate : ?tile:Tile.t -> analysis -> Runtime.Validate.verdict
(** Run the tiled schedule through both {!Machine.Sim} and the runtime
    and check write-race freedom, footprint agreement and value
    determinism. *)

val report : Format.formatter -> analysis -> unit
(** Human-readable compiler report: classes, polynomials, chosen
    partition, baselines. *)
