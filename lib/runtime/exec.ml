open Loopir
open Matrixkit
open Machine

type cref = { c : int; m : int array }
(* Address of iteration [i] through the reference: [c + m . i]. *)

type storage = float array

type compiled = {
  nest : Nest.t;
  layout : Layout.t;
  reads : cref array;
  writes : (cref * bool (* accumulate *)) array;
}

let compile_ref layout nesting (r : Reference.t) =
  let base, lo, strides = Layout.frame layout r.Reference.array_name in
  let g = Affine.g r.Reference.index in
  let offset = Affine.offset r.Reference.index in
  let d = Array.length strides in
  let c = ref base in
  for j = 0 to d - 1 do
    c := !c + ((offset.(j) - lo.(j)) * strides.(j))
  done;
  let m =
    Array.init nesting (fun k ->
        let acc = ref 0 in
        for j = 0 to d - 1 do
          acc := !acc + (Imat.get g k j * strides.(j))
        done;
        !acc)
  in
  { c = !c; m }

let compile nest =
  let layout = Layout.of_nest nest in
  let nesting = Nest.nesting nest in
  let reads, writes =
    List.partition_map
      (fun (r : Reference.t) ->
        let cr = compile_ref layout nesting r in
        if Reference.is_write_like r then
          Right (cr, r.Reference.kind = Reference.Accumulate)
        else Left cr)
      nest.Nest.body
  in
  {
    nest;
    layout;
    reads = Array.of_list reads;
    writes = Array.of_list writes;
  }

let nest c = c.nest
let total_elements c = Layout.total_elements c.layout
let reads c = c.reads
let writes c = c.writes

let address c (r : Reference.t) =
  let cr = compile_ref c.layout (Nest.nesting c.nest) r in
  fun (i : Ivec.t) ->
    let a = ref cr.c in
    Array.iteri (fun k mk -> a := !a + (mk * i.(k))) cr.m;
    !a

(* Deterministic nonzero initial operand values so checksums and value
   comparisons are meaningful from the first step. *)
let init_value i = float_of_int ((i land 63) + 1) *. 0.125

(* Filled by a plain loop: [Array.init n init_value] would box a float
   per element. *)
let alloc c =
  let n = total_elements c in
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (init_value i)
  done;
  a

(* A plain summation loop with an unboxed accumulator. *)
let checksum (a : storage) =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. Array.unsafe_get a i
  done;
  !acc

let to_float_array = Array.copy

let[@inline] addr (r : cref) (p : int array) =
  let a = ref r.c in
  let m = r.m in
  for k = 0 to Array.length m - 1 do
    a := !a + (Array.unsafe_get m k * Array.unsafe_get p k)
  done;
  !a

(* The loop body at one iteration point: load every read, combine, then
   store through every write-like reference. *)
let[@inline] exec_point c (data : storage) (p : int array) =
  let acc = ref 0.0 in
  let reads = c.reads in
  for i = 0 to Array.length reads - 1 do
    acc := !acc +. Array.unsafe_get data (addr (Array.unsafe_get reads i) p)
  done;
  let v = !acc +. 1.0 in
  let writes = c.writes in
  for i = 0 to Array.length writes - 1 do
    let r, accumulate = Array.unsafe_get writes i in
    let a = addr r p in
    if accumulate then
      Array.unsafe_set data a (Array.unsafe_get data a +. v)
    else Array.unsafe_set data a v
  done

let plain_write_addresses c (p : int array) =
  Array.to_list c.writes
  |> List.filter_map (fun (r, accumulate) ->
         if accumulate then None else Some (addr r p))

(* Every point of an inclusive box, lexicographically, through the
   reused point array [point] of the box's arity: [f] must not retain
   its argument. *)
let rec iter_axes point (b : (int * int) array) f k =
  let lo, hi = b.(k) and last = k = Array.length b - 1 in
  for v = lo to hi do
    point.(k) <- v;
    if last then f point else iter_axes point b f (k + 1)
  done

let iter_box_in point b f =
  if Array.length b = 0 then f point else iter_axes point b f 0

let iter_box b f = iter_box_in (Array.map fst b) b f

(* [hi < lo] is tested, not folded into [max 0 (hi - lo + 1)], which
   wraps for the empty box [(max_int, min_int)] of {!bounding_box}. *)
let box_volume (b : (int * int) array) =
  Array.fold_left
    (fun acc (lo, hi) -> if hi < lo then 0 else acc * (hi - lo + 1))
    1 b

(* The one in-space test behind every unchecked load and store: a box of
   the space's arity that is empty or lies inside [bounds]. *)
let in_space bounds (b : (int * int) array) =
  Array.length b = Array.length bounds
  &&
  let empty = ref false and inside = ref true in
  for k = 0 to Array.length b - 1 do
    let lo, hi = b.(k) and blo, bhi = bounds.(k) in
    if hi < lo then empty := true;
    if lo < blo || bhi < hi then inside := false
  done;
  !empty || !inside

(* The smallest box holding every point (empty when there are none): a
   point list lies in a space exactly when this box does. *)
let bounding_box d (pts : Ivec.t array) =
  let lo = Array.make d max_int and hi = Array.make d min_int in
  Array.iter
    (fun (p : Ivec.t) ->
      if Array.length p <> d then invalid_arg "Exec: point arity mismatch";
      Array.iteri
        (fun k v ->
          lo.(k) <- Int.min lo.(k) v;
          hi.(k) <- Int.max hi.(k) v)
        p)
    pts;
  Array.init d (fun k -> (lo.(k), hi.(k)))

(* Inclusive address interval of a compiled reference over a box (so,
   over the iteration space, over every tile box a fortiori). *)
let addr_interval (r : cref) (bounds : (int * int) array) =
  let lo = ref r.c and hi = ref r.c in
  Array.iteri
    (fun k (l, h) ->
      let m = r.m.(k) in
      if m >= 0 then begin
        lo := !lo + (m * l);
        hi := !hi + (m * h)
      end
      else begin
        lo := !lo + (m * h);
        hi := !hi + (m * l)
      end)
    bounds;
  (!lo, !hi)

let disjoint (a1, b1) (a2, b2) = b1 < a2 || b2 < a1

(* Tiles are idempotent - re-executable after a partial or duplicated
   run - iff no iteration of the Doall body reads an address the body
   writes (self- or cross-iteration) and no write accumulates.  Then
   every write's value is a function of never-written operands only, so
   re-running any subset of iterations in any order reproduces the same
   final buffer.  Reads whose address intervals miss every write's
   settle it at once; otherwise the written addresses are enumerated
   into a bitset and every read probed against it. *)
let reexecution_safe ?(enumerate = false) c =
  Array.for_all (fun (_, accumulate) -> not accumulate) c.writes
  && (Array.length c.writes = 0
     ||
     let bounds = Nest.bounds c.nest in
     ((not enumerate)
     && Array.for_all
          (fun r ->
            Array.for_all
              (fun (w, _) ->
                disjoint (addr_interval r bounds) (addr_interval w bounds))
              c.writes)
          c.reads)
     ||
     let written = Measure.touched Measure.Exact ~universe:(total_elements c) in
     iter_box bounds (fun p ->
         Array.iter (fun (w, _) -> Measure.touch written (addr w p)) c.writes);
     let clash = ref false in
     iter_box bounds (fun p ->
         if not !clash then
           Array.iter
             (fun r -> if Measure.mem written (addr r p) then clash := true)
             c.reads);
     not !clash)

(* The instrumented body additionally records every element address in
   the domain's touched set. *)
let observe_point c touched =
  let note (r : cref) p = Measure.touch touched (addr r p) in
  fun p ->
    Array.iter (fun r -> note r p) c.reads;
    Array.iter (fun (r, _) -> note r p) c.writes

type tile = Box of (int * int) array | Points of Ivec.t array

let iter_tile tile f =
  match tile with Box b -> iter_box b f | Points pts -> Array.iter f pts

let tile_volume = function Box b -> box_volume b | Points pts -> Array.length pts

(* Positions [lo, hi) of box [b]'s axes [k..], axes below [k] fixed in
   [sub], as sub-boxes in order, each [sub] (boxed as [tile]) set for
   it; [vol.(k)] counts the points of axes [k..].  Below the outermost axis whose
   slice changes inside the range, a range is a suffix of its first
   slice, a block of whole slices and a prefix of its last slice; a
   suffix or prefix of a k-axis box takes at most k boxes, so a range of
   a d-axis box at most 2d-1. *)
let rec box_range b vol sub tile k lo hi f =
  if k = Array.length b || (lo = 0 && hi = vol.(k)) then begin
    for j = k to Array.length b - 1 do
      sub.(j) <- b.(j)
    done;
    f tile
  end
  else begin
    (* One-point claims are common and divisions dear: none on the
       innermost axis, one while the range stays in a slice. *)
    let inner = vol.(k + 1) in
    let first = if inner = 1 then lo else lo / inner in
    let last =
      if hi <= (first + 1) * inner then first
      else if inner = 1 then hi - 1
      else (hi - 1) / inner
    in
    if first = last then part b vol sub tile k first first lo hi f
    else begin
      let from =
        if lo = first * inner then first
        else (
          part b vol sub tile k first first lo ((first + 1) * inner) f;
          first + 1)
      in
      let upto = if hi = (last + 1) * inner then last else last - 1 in
      if from <= upto then
        part b vol sub tile k from upto (from * inner) ((upto + 1) * inner) f;
      if upto < last then part b vol sub tile k last last (last * inner) hi f
    end
  end

(* Positions [lo, hi) within slices [s .. t] of axis [k]; the axis's
   bounds are stored afresh only when they change. *)
and part b vol sub tile k s t lo hi f =
  let inner = vol.(k + 1) and base = fst b.(k) in
  let l, h = sub.(k) in
  if l <> base + s || h <> base + t then sub.(k) <- (base + s, base + t);
  box_range b vol sub tile (k + 1) (lo - (s * inner)) (hi - (t * inner)) f

let iter_range tiles =
  let n = Array.length tiles in
  let starts = Array.make (n + 1) 0 in
  Array.iteri (fun t tile -> starts.(t + 1) <- starts.(t) + tile_volume tile) tiles;
  let vols =
    Array.map
      (function
        | Points _ -> [||]
        | Box b ->
            let vol = Array.make (Array.length b + 1) 1 in
            for k = Array.length b - 1 downto 0 do
              vol.(k) <- vol.(k + 1) * (snd b.(k) - fst b.(k) + 1)
            done;
            vol)
      tiles
  in
  let d = Array.fold_left (fun d vol -> max d (Array.length vol - 1)) 0 vols in
  let sub = Array.make d (0, 0) in
  let tile = Box sub in
  fun ~lo ~hi f ->
    (* The tile holding [lo]: the last [t] with [starts.(t) <= lo]. *)
    let a = ref 0 and z = ref n in
    while !z - !a > 1 do
      let mid = (!a + !z) / 2 in
      if starts.(mid) <= lo then a := mid else z := mid
    done;
    let t = ref !a in
    while !t < n && starts.(!t) < hi do
      let s = starts.(!t) in
      let l = Int.max lo s - s and h = Int.min hi starts.(!t + 1) - s in
      (if l < h then
         match tiles.(!t) with
         | Box b -> box_range b vols.(!t) sub tile 0 l h f
         | Points pts -> f (Points (Array.sub pts l (h - l))));
      incr t
    done

type runner = storage -> tile -> unit

(* One point array per application, reused for every box. *)
let run_tile c storage =
  let point = Array.make (Nest.nesting c.nest) 0 in
  let body = exec_point c storage in
  function Box b -> iter_box_in point b body | Points pts -> Array.iter body pts

type work =
  | Tiled of { tiles : tile array; owners : int array }
  | Dynamic of { chunk : remaining:int -> int }
  | Steal of { tiles : tile array; owners : int array; chunk : int }

let static_of_assignment (a : Partition.Scheduling.assignment) =
  Tiled
    {
      tiles = Array.map (fun pts -> Points (Array.of_list pts)) a;
      owners = Array.init (Array.length a) Fun.id;
    }

let steps_of_nest ?override nest =
  match override with
  | Some n ->
      if n < 1 then invalid_arg "Exec.steps_of_nest: steps < 1";
      n
  | None -> (
      match nest.Nest.seq with
      | Some l -> l.Nest.upper - l.Nest.lower + 1
      | None -> 1)

let tiles_by_owner ~nprocs owners =
  let by = Array.make nprocs [] in
  for t = Array.length owners - 1 downto 0 do
    by.(owners.(t)) <- t :: by.(owners.(t))
  done;
  Array.map Array.of_list by

(* Self-scheduled work as tile sequences (the iteration space; each
   owner's tiles), [claim p k] domain [p]'s claimer: each call passes its
   next range to [k seq lo hi] ([false] when none is left); and a
   per-step [reset]. *)
let claims ?(trace = Trace.disabled) ~nprocs c = function
  | Tiled _ -> ([||], (fun _ _ () -> false), ignore)
  | Dynamic { chunk } ->
      let bounds = Nest.bounds c.nest in
      let counter = Pool.Counter.create ~total:(box_volume bounds) in
      ( [| [| Box bounds |] |],
        (fun _ k ->
          let k = k 0 in
          fun () -> Pool.Counter.next counter ~chunk k),
        fun () -> Pool.Counter.reset counter )
  | Steal { tiles; owners; chunk } ->
      let seqs =
        Array.map (Array.map (Array.get tiles)) (tiles_by_owner ~nprocs owners)
      in
      let deques =
        Pool.Deques.create
          ~lengths:
            (Array.map (Array.fold_left (fun n t -> n + tile_volume t) 0) seqs)
      in
      let claim p k () =
        match Pool.Deques.pop deques ~me:p ~chunk with
        | Some (owner, lo, hi) ->
            if owner <> p then begin
              Trace.incr trace p Trace.Steals;
              Trace.instant trace p Trace.Steal ~arg:lo
            end;
            k owner lo hi;
            true
        | None -> false
      in
      (seqs, claim, fun () -> Pool.Deques.reset deques)

(* The one step loop: [steps] outer iterations of the work on the pool.
   Domain [p] runs each tile it owns, then each sub-tile of every range
   it claims, with [run_tile p]; shared claim state is reset by domain 0
   between the two barriers that bracket each step.  With a live
   [trace], barrier waits and per-tile (or per-claim) spans are
   recorded. *)
let step_loop ?(trace = Trace.disabled) pool c work ~steps ~run_tile ~seconds
    ~iterations =
  let nprocs = Pool.size pool in
  let seqs, claim, reset = claims ~trace ~nprocs c work in
  let tiles, my_tiles =
    match work with
    | Tiled { tiles; owners } -> (tiles, tiles_by_owner ~nprocs owners)
    | Dynamic _ | Steal _ -> ([||], Array.make nprocs [||])
  in
  Pool.run pool (fun p barrier ->
      let run = run_tile p and ranges = Array.map iter_range seqs in
      let sense = ref false in
      let mine = ref 0 in
      let run_range seq lo hi =
        Trace.begin_span trace p Trace.Chunk ~arg:lo;
        ranges.(seq) ~lo ~hi run;
        Trace.end_span trace p;
        mine := !mine + (hi - lo)
      in
      let claim = claim p run_range in
      let yielded = ref 0 in
      let t0 = Mclock.now () in
      for step = 1 to steps do
        if p = 0 then reset ();
        Trace.begin_span trace p Trace.Barrier ~arg:step;
        Pool.Barrier.wait barrier ~sense ~yielded;
        Trace.end_span trace p;
        Trace.begin_span trace p Trace.Step ~arg:step;
        let ids = my_tiles.(p) in
        for j = 0 to Array.length ids - 1 do
          let t = Array.unsafe_get ids j in
          Trace.begin_span trace p Trace.Tile ~arg:t;
          run tiles.(t);
          mine := !mine + tile_volume tiles.(t);
          Trace.end_span trace p;
          Trace.incr trace p Trace.Tiles_run
        done;
        while claim () do
          ()
        done;
        Trace.end_span trace p;
        Trace.begin_span trace p Trace.Barrier ~arg:step;
        Pool.Barrier.wait barrier ~sense ~yielded;
        Trace.end_span trace p
      done;
      Trace.add trace p Trace.Backoff_yields !yielded;
      seconds.(p) <- Mclock.now () -. t0;
      iterations.(p) <- !mine)

(* The body's loads and stores are unchecked, so work reaching outside
   the iteration space is refused before any of it runs.  Self-scheduled
   dynamic work is the iteration space itself. *)
let check_work c ~nprocs = function
  | Dynamic _ -> ()
  | Tiled { tiles; owners } | Steal { tiles; owners; _ } ->
      if
        Array.length owners <> Array.length tiles
        || Array.exists (fun o -> o < 0 || o >= nprocs) owners
      then invalid_arg (Printf.sprintf "Exec: work unfit for %d domains" nprocs);
      let bounds = Nest.bounds c.nest in
      let box = function
        | Box b -> b
        | Points pts -> bounding_box (Array.length bounds) pts
      in
      if not (Array.for_all (fun t -> in_space bounds (box t)) tiles) then
        invalid_arg "Exec: work outside the iteration space"

(* One uninstrumented execution on the given operands, every tile and
   sub-tile through [runner]. *)
let pass ?trace ?runner pool c storage work ~steps ~seconds ~iterations =
  let runner = Option.value runner ~default:(run_tile c) in
  step_loop ?trace pool c work ~steps
    ~run_tile:(fun _ -> runner storage)
    ~seconds ~iterations

let one_pass ?trace ?runner pool c storage work ~steps ~seconds ~iterations =
  check_work c ~nprocs:(Pool.size pool) work;
  pass ?trace ?runner pool c storage work ~steps ~seconds ~iterations

(* Every address one reference produces over a box.  A set does not
   depend on traversal order, so each reference picks its own run axis:
   one where it moves by one element if it has one (a byte fill per
   run), else its last axis that moves it at all.  The walk iterates
   the other axes, and an axis the reference does not move along adds
   no address, so it is visited once. *)
let touch_box touched (r : cref) (b : (int * int) array) =
  let d = Array.length b in
  let m = r.m in
  if Array.for_all (fun (lo, hi) -> lo <= hi) b then begin
    let last_axis p =
      let axis = ref (-1) in
      Array.iteri (fun k mk -> if p mk then axis := k) m;
      !axis
    in
    let run =
      match last_axis (fun mk -> abs mk = 1) with
      | -1 -> last_axis (fun mk -> mk <> 0)
      | k -> k
    in
    let stride, len =
      if run < 0 then (0, 1)
      else
        let lo, hi = b.(run) in
        (m.(run), hi - lo + 1)
    in
    let rec go k a =
      if k = d then Measure.touch_run touched ~start:a ~stride ~len
      else
        let lo, hi = b.(k) in
        if k = run || m.(k) = 0 then go (k + 1) (a + (m.(k) * lo))
        else begin
          let a = ref (a + (m.(k) * lo)) in
          for _ = lo to hi do
            go (k + 1) !a;
            a := !a + m.(k)
          done
        end
    in
    go 0 r.c
  end

(* One empty footprint set per domain. *)
let domain_sets pool c ~mode =
  Array.init (Pool.size pool) (fun _ ->
      Measure.touched mode ~universe:(total_elements c))

let footprints pool c work ~mode =
  check_work c ~nprocs:(Pool.size pool) work;
  match work with
  | Dynamic _ | Steal _ ->
      invalid_arg "Exec.footprints: self-scheduled work has no fixed owners"
  | Tiled { tiles; owners } ->
      let touched = domain_sets pool c ~mode in
      let mine = tiles_by_owner ~nprocs:(Pool.size pool) owners in
      Pool.run pool (fun p _ ->
          let set = touched.(p) in
          Array.iter
            (fun t ->
              match tiles.(t) with
              | Box b ->
                  Array.iter (fun r -> touch_box set r b) c.reads;
                  Array.iter (fun (w, _) -> touch_box set w b) c.writes
              | Points pts -> Array.iter (observe_point c set) pts)
            mine.(p));
      touched

type instrumented = {
  footprints : int array;
  iterations : int array;
  distinct_total : int;
  exact : bool;
  checksum : float;
  buffer : float array;
}

(* One execution on fresh operands that records every address each
   domain touches. *)
let observed pool c work ~steps ~mode =
  let nprocs = Pool.size pool in
  let storage = alloc c in
  let run_body = exec_point c storage in
  let touched = domain_sets pool c ~mode in
  let observers = Array.map (observe_point c) touched in
  let iterations = Array.make nprocs 0 in
  let visit p point =
    observers.(p) point;
    run_body point
  in
  step_loop pool c work ~steps
    ~run_tile:(fun p ->
      let visit = visit p in
      fun t -> iter_tile t visit)
    ~seconds:(Array.make nprocs 0.0) ~iterations;
  (touched, storage, iterations)

let measure pool c work ~steps ~mode =
  check_work c ~nprocs:(Pool.size pool) work;
  let touched, storage, iterations = observed pool c work ~steps ~mode in
  {
    footprints = Array.map Measure.touched_count touched;
    iterations;
    distinct_total = Measure.union_count touched;
    exact = Array.for_all Measure.is_exact touched;
    checksum = checksum storage;
    buffer = to_float_array storage;
  }

let time ?trace ?runner pool c work ~steps ~repeats =
  if repeats < 1 then invalid_arg "Exec.time: repeats < 1";
  check_work c ~nprocs:(Pool.size pool) work;
  let nprocs = Pool.size pool in
  let best = ref (infinity, [||], [||], 0.0) in
  for _rep = 1 to repeats do
    let storage = alloc c in
    let seconds = Array.make nprocs 0.0 in
    let iterations = Array.make nprocs 0 in
    let t0 = Mclock.now () in
    pass ?trace ?runner pool c storage work ~steps ~seconds ~iterations;
    let wall = Mclock.now () -. t0 in
    let best_wall, _, _, _ = !best in
    if wall < best_wall then best := (wall, seconds, iterations, checksum storage)
  done;
  !best

let run ?(trace = Trace.disabled) ?runner pool c work ~steps ~repeats ~mode =
  let wall, seconds, iterations, checksum =
    time ~trace ?runner pool c work ~steps ~repeats
  in
  (* Tiled work's footprints follow from its tiles alone.  Who runs a
     self-scheduled point depends on the claims, so those footprints are
     observed on one more, instrumented execution - untraced, as its
     observation cost is not representative. *)
  let touched =
    match work with
    | Tiled _ -> footprints pool c work ~mode
    | Dynamic _ | Steal _ ->
        let touched, _, _ = observed pool c work ~steps ~mode in
        touched
  in
  let footprints = Array.map Measure.touched_count touched in
  Array.iteri (fun p f -> Trace.add trace p Trace.Elements_touched f) footprints;
  {
    Measure.wall_seconds = wall;
    seconds;
    iterations;
    footprints;
    exact_footprints = Array.for_all Measure.is_exact touched;
    distinct_total = Measure.union_count touched;
    checksum;
  }

let sequential c ~steps =
  let storage = alloc c in
  let run_body = exec_point c storage in
  let bounds = Nest.bounds c.nest in
  for _step = 1 to steps do
    iter_box bounds run_body
  done;
  to_float_array storage
