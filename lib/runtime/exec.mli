(** The multicore loop-nest interpreter: executes partitioned [Doall]
    nests over real shared operands on a {!Pool} of OCaml domains.

    Each affine reference [(G, a)] is compiled once into a closed-form
    row-major index function [c + m . i] via {!Machine.Layout.frame}, so
    the per-iteration work is exactly the address arithmetic plus the
    loads/stores the partitioned loop would perform on the real machine:
    reads are summed, [Write] stores the sum, and [Accumulate] (the
    paper's [l$] references) adds it in place.

    A nest's optional [Doseq] loop (Figure 9) becomes real re-execution:
    the pool's sense-reversing barrier separates the outer steps without
    respawning domains, which is where steady-state coherence traffic
    appears on actual hardware. *)

open Loopir
open Matrixkit

type compiled

type cref = { c : int; m : int array }
(** A compiled affine reference: the flat element address at iteration
    [i] is [c + m . i].  [m.(k)] is therefore the {e compile-time
    constant} address delta of one step along loop axis [k] - the
    strength-reduction fact {!Kernel} builds its incremental-address
    loops on. *)

val compile : Nest.t -> compiled
(** Build the layout and index functions. *)

val nest : compiled -> Nest.t
val total_elements : compiled -> int

val reads : compiled -> cref array
(** The compiled read references, in body order. *)

val writes : compiled -> (cref * bool) array
(** The compiled write-like references in body order, each flagged
    [true] when it accumulates.  Together with {!reads} this is the
    whole body semantics: the loads are summed, [+. 1.0] is applied,
    and the result is stored (or added) through every write. *)

val addr : cref -> Ivec.t -> int
(** [c + m . i]: the flat element address of a compiled reference at an
    iteration. *)

val address : compiled -> Reference.t -> Ivec.t -> int
(** The flat element address the compiled reference touches at an
    iteration.  Partial application compiles the reference once, so
    validation loops should apply it to the reference first. *)

(** {2 Raw storage access}

    The resilient executor ({!Resilient}) drives tiles itself and the
    kernel backend ({!Kernel}) runs them its own way, so both need the
    operand buffer and the per-point body as first-class values. *)

type storage = float array
(** The whole operand space, one element per flat address of the
    {!layout}. *)

val alloc : compiled -> storage
(** Fresh operands with the deterministic initial values every execution
    path (including {!sequential}) starts from. *)

val exec_point : compiled -> storage -> Ivec.t -> unit
(** The loop body at one iteration point.  Its loads and stores are
    unchecked: the point must lie in the nest's iteration space. *)

val checksum : storage -> float

val to_float_array : storage -> float array
(** A copy of the operands. *)

val plain_write_addresses : compiled -> Ivec.t -> int list
(** Addresses stored through non-accumulate writes at an iteration (the
    safe targets for an injected corruption: re-executing the iteration
    restores them). *)

val reexecution_safe : ?enumerate:bool -> compiled -> bool
(** Whether tiles of this nest are idempotent: no iteration of the Doall
    body reads an address the body writes, and no write accumulates.
    Exactly then a partially executed or duplicated tile can be re-run
    (by any domain, any number of times) without changing the final
    buffer - the precondition for tile-level crash recovery.  Accepted
    at once when every read's {!addr_interval} over the iteration space
    is {!disjoint} from every write's; otherwise (or always, with
    [enumerate]) decided by enumerating the written addresses into an
    exact bitset. *)

(** {2 Boxes and tiles} *)

val iter_box : (int * int) array -> (Ivec.t -> unit) -> unit
(** Visit every point of an inclusive per-axis box in lexicographic
    order, through one point array reused across calls of [f] ([f] must
    not retain it).  An empty box ([hi < lo] on some axis) visits
    nothing. *)

val box_volume : (int * int) array -> int

val in_space : (int * int) array -> (int * int) array -> bool
(** [in_space bounds b]: the box [b] has the arity of the space [bounds]
    and is empty or lies inside it - the one test that guards the
    unchecked loads and stores of {!exec_point} and {!Kernel}. *)

val bounding_box : int -> Ivec.t array -> (int * int) array
(** [bounding_box d pts]: the smallest box holding every point, empty
    when there are none.  The points lie in a space exactly when it
    does, and fill it exactly when its {!box_volume} is their count.
    Raises [Invalid_argument] for a point of arity other than [d]. *)

val addr_interval : cref -> (int * int) array -> int * int
(** Inclusive range of the addresses a reference touches over a box:
    exact bounds of [c + m . i], so every address the box produces lies
    inside. *)

val disjoint : int * int -> int * int -> bool

type tile =
  | Box of (int * int) array
      (** every point of an inclusive per-axis box, lexicographically:
          a rectangular tile held as its bounds, never as points *)
  | Points of Ivec.t array  (** a ragged tile's points, in order *)

val iter_tile : tile -> (Ivec.t -> unit) -> unit
(** The tile's points in order, a box through {!iter_box}. *)

val iter_range : tile array -> lo:int -> hi:int -> (tile -> unit) -> unit
(** [iter_range tiles ~lo ~hi f] hands [f], in order, positions
    [lo .. hi-1] of the tiles' points in {!iter_tile} order as non-empty
    sub-tiles: at most [2d - 1] sub-boxes of a [Box], an array slice of
    [Points] - the claim unit of self-scheduled work.  [iter_range tiles]
    precomputes the tiles' start positions and holds one box array
    (boxes share one arity) reused for every sub-box: [f] must not
    retain a sub-box, and one domain owns the partial application. *)

type runner = storage -> tile -> unit
(** Executes every iteration of one tile once on the operands.  A
    runner may set up scratch state when applied to the operands, so
    each domain applies it once and keeps the result to itself. *)

val run_tile : compiled -> runner
(** The interpreter, {!exec_point} at each point: the default runner
    ({!Kernel.run_tile} is the other). *)

type work =
  | Tiled of { tiles : tile array; owners : int array }
      (** a compile-time partition: tile id -> tile, tile id -> owning
          domain (the shape of {!Resilient.partitioned}).  Each domain
          runs its tiles in tile-id order through a {!runner}, and a
          traced run records one claim-to-completion span per tile *)
  | Dynamic of { chunk : remaining:int -> int }
      (** self-scheduling: domains claim ranges of the iteration space's
          lexicographic order from a shared {!Pool.Counter}, sized by
          [chunk] (1: cyclic, a constant: block-cyclic,
          [ceil remaining/P]: guided self-scheduling) *)
  | Steal of { tiles : tile array; owners : int array; chunk : int }
      (** a [Tiled] partition drained through {!Pool.Deques}: deque [p]
          holds the positions of domain [p]'s tile sequence, claimed
          [chunk] at a time by the owner from the front and by thieves
          from the back *)

val static_of_assignment : Partition.Scheduling.assignment -> work
(** Per-domain point lists (the schedules of {!Partition.Codegen} /
    {!Partition.Scheduling}) as [Tiled] work: one [Points] tile per
    domain, owned by that domain. *)

val tiles_by_owner : nprocs:int -> int array -> int array array
(** Tile ids by owning domain, each domain's in tile-id order. *)

val check_work : compiled -> nprocs:int -> work -> unit
(** Raises [Invalid_argument] when [Tiled] or [Steal] work does not fit
    an [nprocs]-domain pool or holds a box or a point outside the
    iteration space ({!in_space}): the guard of the unchecked body, run
    first by every entry point taking [work]. *)

val steps_of_nest : ?override:int -> Nest.t -> int
(** The outer sequential trip count: [override], else the nest's
    [Doseq] extent, else 1. *)

val one_pass :
  ?trace:Trace.t ->
  ?runner:runner ->
  Pool.t ->
  compiled ->
  storage ->
  work ->
  steps:int ->
  seconds:float array ->
  iterations:int array ->
  unit
(** The one step loop: [steps] barrier-separated sweeps of the work over
    the operands, every tile and every sub-tile ({!iter_range}) of a
    claimed range through [runner] (default {!run_tile}).  Fills
    per-domain wall seconds ({!Mclock}) and iterations.  A live [trace]
    records barrier and step spans and one span per tile or claim. *)

val footprints :
  Pool.t -> compiled -> work -> mode:Measure.mode -> Measure.touched array
(** Per-domain footprint sets of [Tiled] work without executing it:
    domain [p] adds every reference's addresses over each tile it owns,
    a [Box] as runs ({!Measure.touch_run}) along the reference's own
    run axis, a [Points] tile address by address.  Addresses do not
    depend on the outer sequential step, so these are exactly the sets
    an instrumented all-steps execution ({!measure}) collects.  Raises
    [Invalid_argument] for [Dynamic] and [Steal] work, whose owners are
    only known once run. *)

type instrumented = {
  footprints : int array;  (** distinct elements touched per domain *)
  iterations : int array;
  distinct_total : int;
  exact : bool;  (** footprints counted exactly (vs Bloom estimate) *)
  checksum : float;
  buffer : float array;  (** final operand values, for value checks *)
}

val measure :
  Pool.t -> compiled -> work -> steps:int -> mode:Measure.mode -> instrumented
(** One instrumented (untimed) execution on fresh operands, point by
    point: the reference the oracles hold {!footprints} and {!Kernel}
    to. *)

val time :
  ?trace:Trace.t ->
  ?runner:runner ->
  Pool.t ->
  compiled ->
  work ->
  steps:int ->
  repeats:int ->
  float * float array * int array * float
(** [repeats] {!one_pass} executions, each on fresh operands:
    [(wall, per_domain_seconds, per_domain_iterations, checksum)] of the
    fastest (minimum wall-clock on {!Mclock}), [checksum] being
    {!checksum} of its final operands.  A live [trace] records every
    repeat. *)

val run :
  ?trace:Trace.t ->
  ?runner:runner ->
  Pool.t ->
  compiled ->
  work ->
  steps:int ->
  repeats:int ->
  mode:Measure.mode ->
  Measure.raw
(** {!time} and footprints as a {!Measure.raw}: iterations and checksum
    of the fastest repeat, footprints from {!footprints} for [Tiled]
    work, else from one more, instrumented and untraced execution.  The
    footprints feed the trace's elements-touched counter. *)

val sequential : compiled -> steps:int -> float array
(** Reference execution: every iteration in lexicographic order on the
    calling domain, over fresh operands; returns the final buffer.  The
    ground truth for {!Validate}'s determinism check. *)
