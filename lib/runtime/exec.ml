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
let layout c = c.layout
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

(* Every point of an inclusive box, lexicographically, through one
   reused point array: [f] must not retain its argument. *)
let iter_box (b : (int * int) array) f =
  let d = Array.length b in
  let point = Array.map fst b in
  let rec go k =
    if k = d then f point
    else
      let lo, hi = b.(k) in
      for v = lo to hi do
        point.(k) <- v;
        go (k + 1)
      done
  in
  go 0

let box_volume (b : (int * int) array) =
  Array.fold_left (fun acc (lo, hi) -> acc * max 0 (hi - lo + 1)) 1 b

(* The one in-space test behind every unchecked load and store: a box of
   the space's arity that is empty or lies inside [bounds]. *)
let in_space bounds (b : (int * int) array) =
  Array.length b = Array.length bounds
  && (Array.exists (fun (lo, hi) -> hi < lo) b
     || Array.for_all2
          (fun (lo, hi) (blo, bhi) -> blo <= lo && hi <= bhi)
          b bounds)

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

type work =
  | Static of Ivec.t array array
  | Tiled of { tiles : tile array; owners : int array }
  | Dynamic of { points : Ivec.t array; chunk : remaining:int -> int }
  | Steal of { queues : Ivec.t array array; chunk : int }

let static_of_assignment (a : Partition.Scheduling.assignment) =
  Static (Array.map Array.of_list a)

let queues_of_assignment (a : Partition.Scheduling.assignment) ~chunk =
  Steal { queues = Array.map Array.of_list a; chunk }

let steps_of_nest ?override nest =
  match override with
  | Some n ->
      if n < 1 then invalid_arg "Exec.steps_of_nest: steps < 1";
      n
  | None -> (
      match nest.Nest.seq with
      | Some l -> l.Nest.upper - l.Nest.lower + 1
      | None -> 1)

(* One execution of the whole nest ([steps] outer iterations) on the
   pool.  [visit p point] performs the body; shared scheduling state is
   reset by domain 0 between the two barriers that bracket each step.
   With a live [trace], barrier waits and per-tile (or per-chunk)
   claims become spans; the [Tiled] work shape exists so a traced
   compile-time partition keeps its tile boundaries - [Static] work is
   the same points with the tile structure flattened away. *)
let one_pass ?(trace = Trace.disabled) pool work ~steps ~visit ~seconds
    ~iterations =
  let counter =
    match work with
    | Dynamic { points; _ } -> Some (Pool.Counter.create ~total:(Array.length points))
    | Static _ | Tiled _ | Steal _ -> None
  in
  let deques =
    match work with
    | Steal { queues; _ } ->
        Some (Pool.Deques.create ~lengths:(Array.map Array.length queues))
    | Static _ | Tiled _ | Dynamic _ -> None
  in
  let my_tiles =
    match work with
    | Tiled { tiles; owners } ->
        let n = Pool.size pool in
        let by = Array.make n [] in
        for t = Array.length tiles - 1 downto 0 do
          by.(owners.(t)) <- t :: by.(owners.(t))
        done;
        Array.map Array.of_list by
    | Static _ | Dynamic _ | Steal _ -> [||]
  in
  Pool.run pool (fun p barrier ->
      let sense = ref false in
      let mine = ref 0 in
      let yielded = ref 0 in
      let t0 = Mclock.now () in
      for step = 1 to steps do
        (if p = 0 then
           match counter, deques with
           | Some c, _ -> Pool.Counter.reset c
           | _, Some d -> Pool.Deques.reset d
           | None, None -> ());
        Trace.begin_span trace p Trace.Barrier ~arg:step;
        Pool.Barrier.wait barrier ~sense ~yielded;
        Trace.end_span trace p;
        Trace.begin_span trace p Trace.Step ~arg:step;
        (match work with
        | Static per_domain ->
            let pts = per_domain.(p) in
            for i = 0 to Array.length pts - 1 do
              visit p (Array.unsafe_get pts i)
            done;
            mine := !mine + Array.length pts
        | Tiled { tiles; _ } ->
            let ids = my_tiles.(p) in
            for j = 0 to Array.length ids - 1 do
              let t = Array.unsafe_get ids j in
              Trace.begin_span trace p Trace.Tile ~arg:t;
              (match tiles.(t) with
              | Box b ->
                  iter_box b (visit p);
                  mine := !mine + box_volume b
              | Points pts ->
                  for i = 0 to Array.length pts - 1 do
                    visit p (Array.unsafe_get pts i)
                  done;
                  mine := !mine + Array.length pts);
              Trace.end_span trace p;
              Trace.incr trace p Trace.Tiles_run
            done
        | Dynamic { points; chunk } ->
            let c = Option.get counter in
            let continue = ref true in
            while !continue do
              match Pool.Counter.next c ~chunk with
              | None -> continue := false
              | Some (lo, hi) ->
                  Trace.begin_span trace p Trace.Chunk ~arg:lo;
                  for i = lo to hi - 1 do
                    visit p (Array.unsafe_get points i)
                  done;
                  Trace.end_span trace p;
                  mine := !mine + (hi - lo)
            done
        | Steal { queues; chunk } ->
            let d = Option.get deques in
            let continue = ref true in
            while !continue do
              match Pool.Deques.pop d ~me:p ~chunk with
              | None -> continue := false
              | Some (owner, lo, hi) ->
                  if owner <> p then begin
                    Trace.incr trace p Trace.Steals;
                    Trace.instant trace p Trace.Steal ~arg:lo
                  end;
                  Trace.begin_span trace p Trace.Chunk ~arg:lo;
                  let pts = queues.(owner) in
                  for i = lo to hi - 1 do
                    visit p (Array.unsafe_get pts i)
                  done;
                  Trace.end_span trace p;
                  mine := !mine + (hi - lo)
            done);
        Trace.end_span trace p;
        Trace.begin_span trace p Trace.Barrier ~arg:step;
        Pool.Barrier.wait barrier ~sense ~yielded;
        Trace.end_span trace p
      done;
      Trace.add trace p Trace.Backoff_yields !yielded;
      seconds.(p) <- Mclock.now () -. t0;
      iterations.(p) <- !mine)

(* The body's loads and stores are unchecked, so work reaching outside
   the iteration space is refused before any of it runs. *)
let check_work pool c work =
  let n = Pool.size pool in
  (match work with
  | Static a when Array.length a <> n ->
      invalid_arg
        (Printf.sprintf "Exec: %d-domain pool given %d-way static work" n
           (Array.length a))
  | Tiled { tiles; owners } ->
      if Array.length owners <> Array.length tiles then
        invalid_arg "Exec: tiled work with owners/tiles length mismatch";
      Array.iter
        (fun o ->
          if o < 0 || o >= n then
            invalid_arg
              (Printf.sprintf "Exec: tile owner %d outside %d-domain pool" o n))
        owners
  | Steal { queues; _ } when Array.length queues <> n ->
      invalid_arg
        (Printf.sprintf "Exec: %d-domain pool given %d-way queues" n
           (Array.length queues))
  | Static _ | Dynamic _ | Steal _ -> ());
  let bounds = Nest.bounds c.nest in
  let check_box b =
    if not (in_space bounds b) then
      invalid_arg "Exec: work outside the iteration space"
  in
  let check_points pts = check_box (bounding_box (Array.length bounds) pts) in
  match work with
  | Static per_domain -> Array.iter check_points per_domain
  | Tiled { tiles; _ } ->
      Array.iter
        (function Box b -> check_box b | Points pts -> check_points pts)
        tiles
  | Dynamic { points; _ } -> check_points points
  | Steal { queues; _ } -> Array.iter check_points queues

type instrumented = {
  footprints : int array;
  iterations : int array;
  distinct_total : int;
  exact : bool;
  checksum : float;
  buffer : float array;
}

let measure pool c work ~steps ~mode =
  check_work pool c work;
  let nprocs = Pool.size pool in
  let universe = total_elements c in
  let storage = alloc c in
  let run_body = exec_point c storage in
  let touched =
    Array.init nprocs (fun _ -> Measure.touched mode ~universe)
  in
  let observers = Array.map (observe_point c) touched in
  let seconds = Array.make nprocs 0.0 in
  let iterations = Array.make nprocs 0 in
  let visit p point =
    observers.(p) point;
    run_body point
  in
  one_pass pool work ~steps ~visit ~seconds ~iterations;
  {
    footprints = Array.map Measure.touched_count touched;
    iterations;
    distinct_total = Measure.union_count touched;
    exact = Array.for_all Measure.is_exact touched;
    checksum = checksum storage;
    buffer = to_float_array storage;
  }

let best_of_repeats c ~nprocs ~repeats pass =
  if repeats < 1 then invalid_arg "Exec.best_of_repeats: repeats < 1";
  let best_wall = ref infinity in
  let best_seconds = Array.make nprocs 0.0 in
  let best_iterations = Array.make nprocs 0 in
  let best_checksum = ref 0.0 in
  for _rep = 1 to repeats do
    let storage = alloc c in
    let seconds = Array.make nprocs 0.0 in
    let iterations = Array.make nprocs 0 in
    let t0 = Mclock.now () in
    pass storage ~seconds ~iterations;
    let wall = Mclock.now () -. t0 in
    let sum = checksum storage in
    if wall < !best_wall then begin
      best_wall := wall;
      Array.blit seconds 0 best_seconds 0 nprocs;
      Array.blit iterations 0 best_iterations 0 nprocs;
      best_checksum := sum
    end
  done;
  (!best_wall, best_seconds, best_iterations, !best_checksum)

let time ?trace pool c work ~steps ~repeats =
  check_work pool c work;
  best_of_repeats c ~nprocs:(Pool.size pool) ~repeats
    (fun storage ~seconds ~iterations ->
      let run_body = exec_point c storage in
      one_pass ?trace pool work ~steps
        ~visit:(fun _p point -> run_body point)
        ~seconds ~iterations)

let run ?(trace = Trace.disabled) pool c work ~steps ~repeats ~mode =
  let wall, seconds, iterations, _ = time ~trace pool c work ~steps ~repeats in
  let inst = measure pool c work ~steps ~mode in
  (* The instrumented pass runs untraced (its observation cost is not
     representative), but its footprints feed the bytes-touched
     counter: distinct elements each domain actually referenced. *)
  Array.iteri
    (fun p f -> Trace.add trace p Trace.Elements_touched f)
    inst.footprints;
  {
    Measure.wall_seconds = wall;
    seconds;
    iterations;
    footprints = inst.footprints;
    exact_footprints = inst.exact;
    distinct_total = inst.distinct_total;
    checksum = inst.checksum;
  }

let sequential c ~steps =
  let storage = alloc c in
  let run_body = exec_point c storage in
  let bounds = Nest.bounds c.nest in
  for _step = 1 to steps do
    iter_box bounds run_body
  done;
  to_float_array storage
