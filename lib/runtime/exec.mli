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
val layout : compiled -> Machine.Layout.t
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

    The resilient executor ({!Resilient}) and the kernel backend
    ({!Kernel}) drive tiles themselves instead of going through
    {!measure}/{!time}, so they need the operand buffer and the
    per-point body as first-class values. *)

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

type work =
  | Static of Ivec.t array array
      (** per-domain iteration arrays, fixed at compile time (the
          schedules of {!Partition.Codegen} / {!Partition.Scheduling}) *)
  | Tiled of { tiles : tile array; owners : int array }
      (** the same compile-time partition with tile boundaries kept:
          tile id -> tile, tile id -> owning domain (the shape of
          {!Resilient.partitioned}).  Executes like [Static] work over
          the concatenation of each owner's tiles, but a traced run
          records one claim-to-completion span per tile *)
  | Dynamic of { points : Ivec.t array; chunk : remaining:int -> int }
      (** self-scheduling over the lexicographic iteration stream via a
          shared {!Pool.Counter}: chunk [fun ~remaining:_ -> 1] is
          cyclic, a constant is block-cyclic, [ceil remaining/P] is
          guided self-scheduling *)
  | Steal of { queues : Ivec.t array array; chunk : int }
      (** per-domain queues (normally the tiled assignment) drained
          front-first by their owners with back-stealing *)

val static_of_assignment : Partition.Scheduling.assignment -> work
val queues_of_assignment : Partition.Scheduling.assignment -> chunk:int -> work

val steps_of_nest : ?override:int -> Nest.t -> int
(** The outer sequential trip count: [override], else the nest's
    [Doseq] extent, else 1. *)

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
(** One instrumented (untimed) execution on fresh operands.  {!measure},
    {!time} and {!run} raise [Invalid_argument] before running anything
    when the work does not fit the pool, or holds a box tile or a point
    outside the nest's iteration space ({!in_space}). *)

val best_of_repeats :
  compiled ->
  nprocs:int ->
  repeats:int ->
  (storage -> seconds:float array -> iterations:int array -> unit) ->
  float * float array * int array * float
(** [best_of_repeats c ~nprocs ~repeats pass] calls [pass] [repeats]
    times, each on fresh operands and per-domain result arrays, and
    returns [(wall, per_domain_seconds, per_domain_iterations,
    checksum)] of the fastest call (minimum-of-N wall-clock on
    {!Mclock}); [checksum] is {!checksum} of that call's final
    operands.  The timing loop of {!time} and {!Kernel.time}. *)

val time :
  ?trace:Trace.t ->
  Pool.t ->
  compiled ->
  work ->
  steps:int ->
  repeats:int ->
  float * float array * int array * float
(** {!best_of_repeats} over uninstrumented executions of the work.  A
    live [trace] records barrier waits, steps, and tile/chunk claims of
    {e every} repeat. *)

val run :
  ?trace:Trace.t ->
  Pool.t ->
  compiled ->
  work ->
  steps:int ->
  repeats:int ->
  mode:Measure.mode ->
  Measure.raw
(** {!time} + {!measure} combined into a {!Measure.raw}.  The timed
    pass is traced; the instrumented pass only feeds the trace's
    elements-touched counter from its per-domain footprints. *)

val sequential : compiled -> steps:int -> float array
(** Reference execution: every iteration in lexicographic order on the
    calling domain, over fresh operands; returns the final buffer.  The
    ground truth for {!Validate}'s determinism check. *)
