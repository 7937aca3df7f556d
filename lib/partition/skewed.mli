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

    Each call prepares every class once ({!Footprint.Size.pped_prepare}:
    reduction, rank check, lattice index, [G'] and spread as floats) and
    evaluates the objective in scratch buffers it owns, so the ~10{^5}
    evaluations of a depth-3 search allocate no arrays and concurrent
    calls share no state. *)

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
(** Normalized Theorem 2 objective at a real [L]: the sum over classes
    of [sync_weight * Size.pped_cumulative_float / |det G'|].  [infinity]
    when some class is outside the parallelepiped engine's domain. *)

val optimize : Cost.t -> nprocs:int -> result option
(** [None] when any class has rank(G) < nesting, including a constant
    reference (zero [G]): the parallelepiped engine does not apply; use
    {!Rectangular}.  The check runs before any determinant is taken, so
    such nests never raise.  Also [None] when the continuous optimum
    does not round to a nonsingular integer [L]. *)

val pp_result : Format.formatter -> result -> unit
