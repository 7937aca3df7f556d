(** Kernel lowering: compile a [(nest, tile)] pair into specialized
    inner loops instead of interpreting the body point by point.

    {!Exec} pays, at {e every} iteration, one [c + m . i] multiply-add
    per reference.  But over a rectangular tile box the address of a
    compiled reference ({!Exec.cref}) changes by the compile-time
    constant [m.(k)] per unit step along axis [k].  A plan therefore
    precomputes the per-axis address deltas once, seeds one running
    address per reference at the box corner, and executes the box with
    incremental bumps only - plus:

    - {b traversal order}: when a conservative safety analysis proves
      reordering bit-exact (injective write maps, at most one
      same-address fiber axis per accumulate, no read/write aliasing
      besides identical maps), the axis with the most unit-stride
      references is rotated innermost so the inner loop walks arrays
      contiguously;
    - {b shape specialization}: a 1-read copy and a 5-point stencil get
      hand-specialized unsafe loops over the operand array; every other
      body (matmul's 2-read accumulate included) runs the generic
      bumped-address loop, unrolled for single-write bodies of 2 to 5
      reads.

    Value semantics are the interpreter's, bit for bit: reads summed in
    body order, [+. 1.0], the result stored or added through every
    write in body order.  Fuzz oracle 8 ({!Proptest.Oracle}) holds the
    two engines to byte-identical final buffers. *)

open Loopir

type box = (int * int) array
(** Inclusive per-axis bounds, indexed by loop axis - the clipped
    rectangles {!Partition.Codegen.rect_tile_ranges} produces. *)

type plan

val plan : ?force_generic:bool -> ?order:int array -> Exec.compiled -> plan
(** Lower a compiled nest.  [force_generic] disables shape
    specialization (benchmark baseline for isolating the incremental
    addressing win).  [order] overrides the traversal order ({e
    bypassing} the safety analysis - test/bench use only); it must be a
    permutation of the axes, outermost first. *)

val compiled : plan -> Exec.compiled
val order : plan -> int array
(** Chosen traversal order, outermost first.  The identity permutation
    unless the nest is {!reorderable} and a different innermost axis has
    strictly more unit-stride references. *)

val reorderable : plan -> bool
(** Whether the safety analysis proved every traversal order bit-exact
    (see the module preamble for the conditions).  In-place relaxations
    whose reads overlap their writes are the canonical [false]. *)

val shape : plan -> string
(** The specialization picked: ["copy"], ["stencil5"] or ["generic"]. *)

val strides : plan -> (Reference.t * int array) list
(** Each body reference with its per-axis address deltas [m] (original
    axis order): [m.(k)] is exactly
    [address ref (i + e_k) - address ref i] for any in-bounds [i]. *)

val box_volume : box -> int

val run_box : plan -> Exec.storage -> box -> unit
(** Execute every iteration of the box once (one parallel step's worth
    of one tile).  Degenerate axes (extent 1) are fine; an empty box
    ([hi < lo] somewhere) is a no-op.  Raises [Invalid_argument] for a
    non-empty box reaching outside the nest's iteration space.  Every
    box-independent quantity is in the plan; the partial application
    [run_box plan data] holds the corner-address array its boxes reuse,
    so it belongs to one domain. *)

val boxes_of_schedule : Partition.Codegen.schedule -> box array array
(** The schedule's clipped tile boxes grouped by owning processor, each
    owner's boxes in tile-identifier order - [result.(p)] is domain
    [p]'s work for one step. *)

val run_tile : plan -> Exec.runner
(** The kernel runner: a [Box] tile through {!run_box}, a one-point
    [Box] through {!Exec.exec_point} and a [Points] tile through the
    interpreter ({!Exec.run_tile}).  Like the interpreter, it relies on
    {!Exec.check_work} for the boxes it interprets. *)

val one_pass :
  ?trace:Trace.t ->
  Pool.t ->
  plan ->
  Exec.storage ->
  boxes:box array array ->
  steps:int ->
  seconds:float array ->
  iterations:int array ->
  unit
(** {!Exec.one_pass} with the kernel runner over [Tiled] work of box
    tiles, domain [p] owning [boxes.(p)] in order: [steps]
    barrier-separated sweeps on the given operands, filling per-domain
    wall seconds and iteration counts. *)

val sequential : plan -> steps:int -> Exec.storage
(** The whole iteration space as one box on the calling domain, [steps]
    times, on fresh operands. *)
