(** Tile-space code generation: turning a chosen tile into the
    per-processor iteration sets the Alewife compiler would emit loops for
    (Section 4, "Loop Partitioning" + code generation).

    A {!schedule} fixes the nest, the tile at the origin and the processor
    count, and provides the owner map from iterations to processors.  Tiles
    are anchored at the iteration-space lower bounds and numbered
    deterministically; tile [t] runs on processor [t mod nprocs] (for
    rectangular tiles with a processor grid this is the usual wrapped
    block distribution). *)

open Matrixkit
open Loopir

type schedule = private {
  nest : Nest.t;
  tile : Tile.t;
  nprocs : int;
  origin : Ivec.t;  (** iteration-space lower bounds *)
}

val make : Nest.t -> Tile.t -> nprocs:int -> schedule

val tile_id : schedule -> Ivec.t -> int array
(** Tile coordinates of an iteration (relative to the origin).  Partial
    application inverts the tile matrix once. *)

val tile_index : schedule -> Ivec.t -> int
(** The tile coordinates linearized into one non-negative integer over
    the bounding box of the space's tile coordinates: distinct tiles get
    distinct indices.  Partial application precomputes that box. *)

val owner : schedule -> Ivec.t -> int
(** Processor that executes the iteration: [tile_index mod nprocs].
    Partial application precomputes {!tile_index}. *)

val num_tiles : schedule -> int
(** Number of distinct tiles covering the iteration space (exact for
    rectangular tiles; computed by scanning otherwise). *)

val iterations_by_proc : schedule -> Ivec.t list array
(** All iterations grouped by executing processor, each list in
    lexicographic order.  Enumerates the full space - intended for the
    simulator and for spaces up to a few million points. *)

val rect_tile_ranges : schedule -> (int * int) array list
(** For rectangular tiles: the inclusive per-dimension bounds of every
    tile, clipped to the iteration space (the loop bounds the code
    generator would emit).  Raises [Invalid_argument] for [Pped]. *)

val emit_pseudocode : schedule -> string
(** A human-readable rendition of the generated SPMD loop nest. *)

val load_balance : schedule -> int * int * float
(** [(min, max, imbalance)] iterations per processor, where imbalance is
    [max /. average].  Never NaN: the degenerate no-iterations case
    reports [1.0], and a processor count above the trip count simply
    yields [min = 0] with the true ratio. *)
