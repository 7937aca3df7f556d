(** General hyperparallelepiped (parallelogram) partitioning
    (Sections 3.2-3.6).

    The objective is Theorem 2's cumulative footprint summed over classes,
    normalized per class by the lattice index [|det G'|] so that the
    volume term counts {e distinct elements} rather than the volume of the
    bounding parallelepiped (for unimodular [G] the normalization is 1 and
    the objective is exactly the paper's).  The constraint is
    [|det L| = iterations / P].

    The solver is the paper's "standard numerical methods" step:
    multi-start coordinate descent over the entries of [L] with
    determinant renormalization, seeded from the rectangular optimum and
    from unit skews of it.  The continuous solution is then rounded to an
    integer [L] suitable for code generation.

    Each call prepares the objective once: every class's reduction, rank
    check and lattice index ({!Footprint.Size.pped_prepare}), then [G'],
    the spread rows, the weights, the extents and the target volume in
    flat float arrays.  A probe of the search renormalizes [L], forms
    [LG'] and takes its [n + 1] determinants - for nesting 2 and 3 as
    straight-line code on unboxed floats, for any other nesting in one
    flat loop - with exactly {!Footprint.Size.float_det}'s float
    operations in its order, so decisions are bit-identical to the
    allocating reference.  The ~10{^5} probes of a depth-3 search
    allocate no arrays and no closures, and concurrent calls share no
    state.

    A rounded [L] that is a positive diagonal is returned as the
    rectangular tile of that diagonal, so it takes the box paths. *)

open Matrixkit

type result = {
  l : Imat.t;  (** integer tile matrix (rows are edge vectors) *)
  tile : Tile.t;
  continuous_l : float array array;
  continuous_cost : float;
  rounded_cost : float;
  rect_cost : float;  (** best rectangular cost, for comparison *)
  improves_on_rect : bool;
}

val objective : Cost.t -> float array array -> float
(** Normalized Theorem 2 objective at a real [L], through the prepared
    evaluator: the sum over classes of
    [sync_weight * Size.pped_cumulative_float / |det G'|].  [infinity]
    when some class is outside the parallelepiped engine's domain. *)

val search_objective : Cost.t -> nprocs:int -> float array array -> float
(** What the search minimizes at a real [L]: [L] scaled to
    [|det L| = iterations / nprocs], then {!objective} times
    [1 + 100 * penalty], where the penalty sums [(ratio - 1)^2] over the
    dimensions whose bounding-box edge exceeds the extent by [ratio > 1].
    [infinity] when [|det L| < 1e-9], or when {!objective} is. *)

val optimize : Cost.t -> nprocs:int -> result option
(** [None] when any class has rank(G) < nesting, including a constant
    reference (zero [G]): the parallelepiped engine does not apply; use
    {!Rectangular}.  The check runs before any determinant is taken, so
    such nests never raise.  Also [None] when the continuous optimum
    does not round to a nonsingular integer [L]. *)

val pp_result : Format.formatter -> result -> unit
