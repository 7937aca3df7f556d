(* Tests for the multicore execution runtime: the domain pool, the
   dynamic-scheduling primitives, the footprint instruments, and - the
   point of the subsystem - agreement between what the runtime measures
   on real domains and what Machine.Sim (and Theorems 2/4) predict. *)

open Loopir
open Partition
open Loopart

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool: barrier and dispatch                                          *)
(* ------------------------------------------------------------------ *)

let test_pool_runs_all_domains () =
  Runtime.Pool.with_pool 4 (fun pool ->
      let hits = Array.make 4 0 in
      (* Three jobs on the same pool: domains are reused, not respawned. *)
      for _ = 1 to 3 do
        Runtime.Pool.run pool (fun p _ -> hits.(p) <- hits.(p) + 1)
      done;
      Array.iteri (fun p h -> check (Printf.sprintf "domain %d ran" p) 3 h)
        hits)

let test_pool_barrier_separates_phases () =
  (* Every domain increments a counter, waits, then reads it: after the
     barrier all must observe the full count, in every episode. *)
  Runtime.Pool.with_pool 4 (fun pool ->
      let counter = Atomic.make 0 in
      let ok = Atomic.make true in
      Runtime.Pool.run pool (fun _ barrier ->
          let sense = ref false in
          for episode = 1 to 5 do
            Atomic.incr counter;
            Runtime.Pool.Barrier.wait barrier ~sense;
            if Atomic.get counter < 4 * episode then Atomic.set ok false;
            Runtime.Pool.Barrier.wait barrier ~sense
          done);
      checkb "all phases saw the full count" true (Atomic.get ok))

let test_pool_reraises_job_exception () =
  Runtime.Pool.with_pool 3 (fun pool ->
      let raised =
        try
          Runtime.Pool.run pool (fun p barrier ->
              if p = 1 then failwith "boom"
              else Runtime.Pool.Barrier.wait barrier ~sense:(ref false));
          false
        with Failure m -> m = "boom"
      in
      checkb "worker failure reaches the caller" true raised;
      (* And the pool survives for the next job. *)
      let n = Atomic.make 0 in
      Runtime.Pool.run pool (fun _ _ -> Atomic.incr n);
      check "pool still usable" 3 (Atomic.get n))

let test_pool_first_exception_wins () =
  (* Two workers raise; run must re-raise exactly one of them (the first
     recorded) and swallow the other - never a barrier deadlock. *)
  Runtime.Pool.with_pool 4 (fun pool ->
      let raised =
        try
          Runtime.Pool.run pool (fun p barrier ->
              if p = 0 || p = 2 then failwith (Printf.sprintf "boom%d" p)
              else Runtime.Pool.Barrier.wait barrier ~sense:(ref false));
          None
        with Failure m -> Some m
      in
      (match raised with
      | Some ("boom0" | "boom2") -> ()
      | Some m -> Alcotest.failf "unexpected exception %S" m
      | None -> Alcotest.fail "no exception reached the caller");
      let n = Atomic.make 0 in
      Runtime.Pool.run pool (fun _ _ -> Atomic.incr n);
      check "pool still usable after double fault" 4 (Atomic.get n))

let test_pool_survivors_observe_abort () =
  (* Survivors parked at the barrier when a sibling dies must all wake
     with Aborted - even on an oversubscribed single-core host. *)
  Runtime.Pool.with_pool 6 (fun pool ->
      let aborted = Atomic.make 0 in
      (try
         Runtime.Pool.run pool (fun p barrier ->
             if p = 5 then failwith "die"
             else
               try
                 let sense = ref false in
                 Runtime.Pool.Barrier.wait barrier ~sense;
                 (* Unreachable: the barrier can never fill. *)
                 Runtime.Pool.Barrier.wait barrier ~sense
               with Runtime.Pool.Aborted ->
                 Atomic.incr aborted;
                 raise Runtime.Pool.Aborted)
       with Failure _ -> ());
      check "all five survivors observed Aborted" 5 (Atomic.get aborted))

let test_with_pool_shuts_down_on_exception () =
  let escaped =
    try
      Runtime.Pool.with_pool 3 (fun pool ->
          Runtime.Pool.run pool (fun _ _ -> ());
          failwith "body failed")
    with Failure m -> m = "body failed"
  in
  checkb "body exception escapes with_pool" true escaped

let test_counter_covers_range () =
  let c = Runtime.Pool.Counter.create ~total:100 in
  let seen = Array.make 100 0 in
  let grab lo hi =
    checkb "ordered" true (lo < hi && hi <= 100);
    for i = lo to hi - 1 do
      seen.(i) <- seen.(i) + 1
    done
  in
  while
    Runtime.Pool.Counter.next c
      ~chunk:(fun ~remaining -> Intmath.Int_math.ceil_div remaining 4)
      grab
  do
    ()
  done;
  Array.iter (fun s -> check "each index grabbed once" 1 s) seen;
  (* reset rewinds for the next sequential step *)
  Runtime.Pool.Counter.reset c;
  checkb "reset reopens the range" true
    (Runtime.Pool.Counter.next c ~chunk:(fun ~remaining:_ -> 1) (fun _ _ -> ()))

(* Chunk-1 cyclic self-scheduling grabs once per iteration, so a grab
   must not allocate: 100 k grabs stay under one minor word per 100. *)
let test_counter_grab_allocates_nothing () =
  let total = 100_000 in
  let c = Runtime.Pool.Counter.create ~total in
  let claimed = ref 0 in
  let grab lo hi = claimed := !claimed + (hi - lo) in
  let chunk ~remaining:_ = 1 in
  let before = Gc.minor_words () in
  while Runtime.Pool.Counter.next c ~chunk grab do
    ()
  done;
  let words = Gc.minor_words () -. before in
  check "every index claimed" total !claimed;
  checkb
    (Printf.sprintf "%.0f minor words for %d grabs" words total)
    true
    (words < float_of_int total /. 100.0)

let test_deques_cover_and_steal () =
  let d = Runtime.Pool.Deques.create ~lengths:[| 10; 0; 6 |] in
  let seen = Hashtbl.create 16 in
  let rec drain me =
    match Runtime.Pool.Deques.pop d ~me ~chunk:4 with
    | None -> ()
    | Some (owner, lo, hi) ->
        for i = lo to hi - 1 do
          let key = (owner, i) in
          checkb "no double grab" false (Hashtbl.mem seen key);
          Hashtbl.replace seen key ()
        done;
        drain me
  in
  (* Domain 1 has an empty queue: everything it gets is stolen. *)
  drain 1;
  drain 0;
  drain 2;
  check "all items drained exactly once" 16 (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Measure: footprint counters                                         *)
(* ------------------------------------------------------------------ *)

let test_touched_exact_and_bloom () =
  let exact = Runtime.Measure.touched Runtime.Measure.Exact ~universe:1000 in
  List.iter (Runtime.Measure.touch exact) [ 3; 7; 3; 999; 7; 0 ];
  check "exact distinct count" 4 (Runtime.Measure.touched_count exact);
  checkb "exact mode" true (Runtime.Measure.is_exact exact);
  let bloom =
    Runtime.Measure.touched (Runtime.Measure.Bloom 65536) ~universe:1000
  in
  for i = 0 to 499 do
    Runtime.Measure.touch bloom (i * 2);
    Runtime.Measure.touch bloom (i * 2) (* duplicates must not count *)
  done;
  let est = Runtime.Measure.touched_count bloom in
  checkb "bloom estimate within 2%" true (abs (est - 500) <= 10);
  checkb "bloom is estimated" false (Runtime.Measure.is_exact bloom)

let test_union_count () =
  let mk l =
    let t = Runtime.Measure.touched Runtime.Measure.Exact ~universe:64 in
    List.iter (Runtime.Measure.touch t) l;
    t
  in
  check "union of overlapping sets" 5
    (Runtime.Measure.union_count [| mk [ 1; 2; 3 ]; mk [ 3; 4; 5 ] |])

let raises_invalid f =
  match f () with () -> false | exception Invalid_argument _ -> true

(* An exact set indexes its bytes unchecked, so an address outside the
   universe would land in the guard padding or, negative, outside the
   buffer.  Every entry point must refuse it, and a refused run adds
   nothing. *)
let test_out_of_universe_rejected () =
  let open Runtime.Measure in
  let exact = touched Exact ~universe:100 in
  List.iter
    (fun a ->
      checkb (Printf.sprintf "touch %d raises" a) true
        (raises_invalid (fun () -> touch exact a)))
    [ 100; 1000; 1100; -1 ];
  List.iter
    (fun a ->
      checkb (Printf.sprintf "mem %d raises" a) true
        (raises_invalid (fun () -> ignore (mem exact a))))
    [ 100; -1 ];
  List.iter
    (fun (start, stride, len) ->
      checkb
        (Printf.sprintf "touch_run start %d stride %d len %d raises" start
           stride len)
        true
        (raises_invalid (fun () -> touch_run exact ~start ~stride ~len)))
    [ (95, 1, 6); (-1, 1, 3); (2, -1, 4); (0, 7, 16); (100, 0, 1); (0, 1, -1) ];
  check "nothing was added" 0 (touched_count exact);
  touch exact 0;
  touch exact 99;
  touch_run exact ~start:90 ~stride:3 ~len:4;
  check "in-range addresses still count" 5 (touched_count exact);
  let bloom = touched (Bloom 1024) ~universe:100 in
  checkb "bloom touch 100 raises" true (raises_invalid (fun () -> touch bloom 100))

(* A run must add exactly the addresses its per-address expansion adds:
   whole-byte fills, partial head and tail bytes, mirrored negative
   strides and the single address of stride 0. *)
let test_touch_run_matches_touch () =
  let open Runtime.Measure in
  let universe = 160 in
  for start = 0 to 15 do
    for len = 0 to 20 do
      List.iter
        (fun stride ->
          let last = start + ((len - 1) * stride) in
          if len = 0 || (last >= 0 && last < universe) then begin
            let what = Printf.sprintf "start %d len %d stride %d" start len stride in
            let pair mode =
              let run = touched mode ~universe and each = touched mode ~universe in
              touch_run run ~start ~stride ~len;
              for k = 0 to len - 1 do
                touch each (start + (k * stride))
              done;
              (run, each)
            in
            let run, each = pair Exact in
            for a = 0 to universe - 1 do
              if mem run a <> mem each a then
                Alcotest.failf "%s: address %d differs" what a
            done;
            check (what ^ ": exact count") (touched_count each) (touched_count run);
            let run, each = pair (Bloom 4096) in
            check (what ^ ": bloom count") (touched_count each) (touched_count run)
          end)
        [ -3; -1; 0; 1; 2; 7 ]
    done
  done

(* ------------------------------------------------------------------ *)
(* Runtime vs simulator: the validation protocol                       *)
(* ------------------------------------------------------------------ *)

(* Small instances of gallery nests: the runtime's per-domain distinct
   elements must equal Machine.Sim's, domain by domain. *)
let agreement_nests =
  [
    ("example2", Programs.example2 ~n:40 ());
    ("example3", Programs.example3 ~n:24 ());
    ("matmul", Programs.matmul ~n:12 ());
    ("stencil5", Programs.stencil5 ~n:17 ~steps:2 ());
  ]

let test_runtime_agrees_with_sim () =
  List.iter
    (fun (name, nest) ->
      let a = Driver.analyze ~nprocs:4 nest in
      let v = Driver.validate a in
      checkb
        (Printf.sprintf "%s: runtime footprints = simulator footprints" name)
        true v.Runtime.Validate.footprints_agree;
      checkb (Printf.sprintf "%s: verdict ok" name) true
        (Runtime.Validate.ok v))
    agreement_nests

let test_tiled_prediction_matches_measurement () =
  (* For the interior-dominated example2 the Theorem 2 prediction is not
     just a bound: the measured per-domain footprint equals it. *)
  let a = Driver.analyze ~nprocs:4 (Programs.example2 ()) in
  let r =
    Driver.execute
      ~config:{ Driver.default_exec_config with repeats = 1 }
      a
  in
  match r.Runtime.Measure.predicted_per_domain with
  | None -> Alcotest.fail "tiled policy must carry a prediction"
  | Some predicted ->
      check "measured max footprint = Theorem 2 prediction" predicted
        (Runtime.Measure.max_footprint r)

let test_values_match_sequential () =
  let a = Driver.analyze ~nprocs:4 (Programs.example2 ~n:40 ()) in
  let v = Driver.validate a in
  checkb "race free" true v.Runtime.Validate.race_free;
  checkb "deterministic" true v.Runtime.Validate.deterministic;
  Alcotest.(check (option bool))
    "parallel values = sequential values" (Some true)
    v.Runtime.Validate.values_match

(* The kernel path holds tiles as boxes end to end: its minor-heap
   allocation depends on the tiles and domains, not on the iteration
   count (a few thousand words here).  Listing the 262144 points of one
   step would cost at least five words each (a 2-element array plus a
   list cell). *)
let test_kernel_path_lists_no_points () =
  let nest = Programs.stencil5 ~n:512 ~steps:2 () in
  let a = Driver.analyze ~nprocs:2 nest in
  let config =
    { Driver.default_exec_config with Driver.kernels = true; repeats = 1 }
  in
  ignore (Driver.execute ~config a);
  let before = Gc.minor_words () in
  let r = Driver.execute ~config a in
  let words = Gc.minor_words () -. before in
  let points = Nest.iterations nest in
  check "every iteration executed" (2 * points)
    (Array.fold_left
       (fun acc (d : Runtime.Measure.domain_stat) -> acc + d.Runtime.Measure.iterations)
       0 r.Runtime.Measure.per_domain);
  checkb
    (Printf.sprintf "%.0f minor words for %d points" words points)
    true
    (words < float_of_int points /. 16.0);
  let before = Gc.minor_words () in
  let report, _ = Driver.execute_resilient ~config a in
  let words = Gc.minor_words () -. before in
  checkb "resilient run completed" true report.Runtime.Report.completed;
  checkb
    (Printf.sprintf "resilient: %.0f minor words for %d points" words points)
    true
    (words < float_of_int points /. 16.0)

let test_reduction_contention_is_reported () =
  (* diag_accumulate writes one diagonal cell from many iterations: a
     legal shared accumulate, flagged but not a race. *)
  let nest = Programs.diag_accumulate ~n:16 () in
  let a = Driver.analyze ~nprocs:4 nest in
  let v = Driver.validate a in
  checkb "accumulates are not write races" true v.Runtime.Validate.race_free;
  checkb "contended accumulates reported" true
    (v.Runtime.Validate.shared_accumulates <> [])

let test_dynamic_policies_execute_everything () =
  let nest = Programs.example2 ~n:40 () in
  let trip = Nest.iterations nest in
  let a = Driver.analyze ~nprocs:4 nest in
  let run ~kernels policy =
    Driver.execute
      ~config:{ Driver.default_exec_config with policy; repeats = 1; kernels }
      a
  in
  (* Whatever the schedule, the union of touched elements is the same
     set - only its distribution over domains changes. *)
  let tiled_union =
    (run ~kernels:false Driver.Tiled).Runtime.Measure.distinct_total
  in
  List.iter
    (fun kernels ->
      List.iter
        (fun policy ->
          let r = run ~kernels policy in
          let executed =
            Array.fold_left
              (fun acc (d : Runtime.Measure.domain_stat) -> acc + d.iterations)
              0 r.Runtime.Measure.per_domain
          in
          let what =
            Printf.sprintf "%s, kernels %b" r.Runtime.Measure.policy kernels
          in
          check (what ^ ": every iteration executed exactly once") trip executed;
          check (what ^ ": union footprint matches the tiled run") tiled_union
            r.Runtime.Measure.distinct_total)
        [ Driver.Cyclic; Driver.Block_cyclic 7; Driver.Guided;
          Driver.Work_steal 5 ])
    [ false; true ]

(* On a nest whose values do not depend on the iteration order, every
   self-scheduled claim unit - sub-boxes of the iteration space, ranges
   of the tile sequences - leaves the operands bit-identical to the
   sequential run, on the interpreter and on the kernels. *)
let test_claimed_ranges_match_sequential () =
  List.iter
    (fun nest ->
      let nprocs = 3 in
      let a = Driver.analyze ~nprocs nest in
      checkb "deterministic nest" true
        (Driver.validate a).Runtime.Validate.deterministic;
      let c = Runtime.Exec.compile nest in
      let steps = Runtime.Exec.steps_of_nest nest in
      let oracle = Runtime.Exec.sequential c ~steps in
      let part = Runtime.Resilient.tiles_of_schedule (Driver.schedule a) in
      let tiles = part.Runtime.Resilient.tiles
      and owners = part.Runtime.Resilient.owners in
      let works =
        [
          ("cyclic", Runtime.Exec.Dynamic { chunk = (fun ~remaining:_ -> 1) });
          ("block 5", Runtime.Exec.Dynamic { chunk = (fun ~remaining:_ -> 5) });
          ( "guided",
            Runtime.Exec.Dynamic
              { chunk = (fun ~remaining -> (remaining + nprocs - 1) / nprocs) }
          );
          ("steal 1", Runtime.Exec.Steal { tiles; owners; chunk = 1 });
          ("steal 7", Runtime.Exec.Steal { tiles; owners; chunk = 7 });
        ]
      in
      let runners =
        [
          ("interpreter", None);
          ("kernels", Some (Runtime.Kernel.run_tile (Runtime.Kernel.plan c)));
        ]
      in
      Runtime.Pool.with_pool nprocs (fun pool ->
          List.iter
            (fun (w, work) ->
              List.iter
                (fun (r, runner) ->
                  let storage = Runtime.Exec.alloc c in
                  Runtime.Exec.one_pass ?runner pool c storage work ~steps
                    ~seconds:(Array.make nprocs 0.0)
                    ~iterations:(Array.make nprocs 0);
                  checkb
                    (Printf.sprintf "%s: %s on the %s = sequential"
                       nest.Nest.name w r)
                    true
                    (Array.for_all2
                       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
                       storage oracle))
                runners)
            works))
    [ Programs.example2 ~n:24 (); Programs.stencil5 ~n:13 ~steps:2 () ]

(* [Exec.iter_range]: positions [lo, hi) of a tile sequence, cut into
   sub-tiles, are exactly those positions of the sequence's point
   order, and a range of one box is at most [2d - 1] non-empty boxes. *)
let gen_box d =
  QCheck2.Gen.(
    array_repeat d
      (pair (int_range (-3) 3) (frequency [ (1, return 1); (2, int_range 1 4) ]))
    >|= Array.map (fun (lo, extent) -> (lo, lo + extent - 1)))

let points_of tile =
  let acc = ref [] in
  Runtime.Exec.iter_tile tile (fun p -> acc := Array.copy p :: !acc);
  List.rev !acc

let gen_range total =
  QCheck2.Gen.(
    int_range 0 total >>= fun lo ->
    int_range lo total >|= fun hi -> (lo, hi))

let prop_range_is_sequence_slice =
  QCheck2.Test.make ~name:"iter_range = slice of the point sequence"
    ~count:500
    QCheck2.Gen.(
      int_range 1 3 >>= fun d ->
      list_size (int_range 1 3)
        (pair bool (gen_box d)
        >|= fun (ragged, b) ->
        if ragged then
          Runtime.Exec.Points
            (Array.of_list (List.rev (points_of (Runtime.Exec.Box b))))
        else Runtime.Exec.Box b)
      >>= fun tiles ->
      let tiles = Array.of_list tiles in
      let total =
        Array.fold_left (fun n t -> n + List.length (points_of t)) 0 tiles
      in
      gen_range total >|= fun range -> (tiles, range))
    (fun (tiles, (lo, hi)) ->
      let all = Array.of_list (List.concat_map points_of (Array.to_list tiles)) in
      let got = ref [] in
      Runtime.Exec.iter_range tiles ~lo ~hi (fun t ->
          got := List.rev_append (points_of t) !got);
      List.rev !got = Array.to_list (Array.sub all lo (hi - lo)))

let prop_box_range_is_few_boxes =
  QCheck2.Test.make ~name:"a box range is at most 2d-1 non-empty boxes"
    ~count:500
    QCheck2.Gen.(
      int_range 1 3 >>= fun d ->
      gen_box d >>= fun b ->
      gen_range (Runtime.Exec.box_volume b) >|= fun range -> (d, b, range))
    (fun (d, b, (lo, hi)) ->
      let count = ref 0 and non_empty_boxes = ref true in
      Runtime.Exec.iter_range [| Runtime.Exec.Box b |] ~lo ~hi (function
        | Runtime.Exec.Box sub ->
            incr count;
            if Runtime.Exec.box_volume sub = 0 then non_empty_boxes := false
        | Runtime.Exec.Points _ -> non_empty_boxes := false);
      !count <= (2 * d) - 1 && !non_empty_boxes)

(* The interpreter's loads and stores are unchecked, so work reaching
   outside the iteration space must be refused before it runs: a tile
   box far beyond stencil5's 164-element universe would otherwise
   write past the operand array.  Each work shape is checked, through
   every entry point, and an in-space box still runs. *)
let test_out_of_space_work_rejected () =
  let open Runtime in
  let compiled = Exec.compile (Programs.stencil5 ~n:8 ()) in
  let outside = [| (1, 400); (1, 400) |] and inside = [| (1, 8); (1, 8) |] in
  let tiled tile = Exec.Tiled { tiles = [| tile |]; owners = [| 0 |] } in
  let steps = 1 and repeats = 1 and mode = Measure.Exact in
  Pool.with_pool 1 (fun pool ->
      let entry_points work =
        let c = compiled in
        [
          ("time", fun () -> ignore (Exec.time pool c work ~steps ~repeats));
          ("measure", fun () -> ignore (Exec.measure pool c work ~steps ~mode));
          ("run", fun () -> ignore (Exec.run pool c work ~steps ~repeats ~mode));
          ("footprints", fun () -> ignore (Exec.footprints pool c work ~mode));
        ]
      in
      List.iter
        (fun (what, work) ->
          List.iter
            (fun (entry, f) ->
              checkb (Printf.sprintf "%s %s raises" what entry) true
                (raises_invalid f))
            (entry_points work))
        [
          ("box tile", tiled (Exec.Box outside));
          ("points tile", tiled (Exec.Points [| [| 3; 0 |] |]));
          ( "static point",
            Exec.static_of_assignment [| [ [| 1; 1 |]; [| 9; 1 |] ] |] );
          ( "steal tile",
            Exec.Steal
              { tiles = [| Exec.Points [| [| -5; 2 |] |] |]; owners = [| 0 |];
                chunk = 1 } );
          ("short point", Exec.static_of_assignment [| [ [| 1 |] ] |]);
        ];
      let r =
        Exec.measure pool compiled (tiled (Exec.Box inside)) ~steps ~mode
      in
      check "the in-space box still runs" 64
        (Array.fold_left ( + ) 0 r.Exec.iterations))

(* ------------------------------------------------------------------ *)
(* Parallelepiped tiles                                                *)
(* ------------------------------------------------------------------ *)

(* Two skewed schedules: example 3's chosen tile at P = 4, and the
   stencil's skew along the second axis, the shape the optimizer picks
   for the 1024^2 stencil, scaled to n = 64. *)
let skewed_schedules () =
  let a = Driver.analyze ~try_skewed:true ~nprocs:4 (Programs.example3 ()) in
  let ex3 = Driver.schedule ~tile:(Driver.best_tile a) a in
  let stencil =
    Codegen.make
      (Programs.stencil5 ~n:64 ~steps:1 ())
      (Tile.pped (Matrixkit.Imat.of_rows [ [ 64; 32 ]; [ 0; 32 ] ]))
      ~nprocs:2
  in
  [ ("example3 -p 4", ex3); ("stencil5 n=64", stencil) ]

(* The grouping [Resilient.tiles_of_schedule] used to compute: each
   domain's point list grouped by tile coordinates, keyed by (owner,
   coordinates) in first-appearance order, a group that fills its
   bounding box kept as a box. *)
let reference_tiles sched =
  let per_proc = Codegen.iterations_by_proc sched in
  let tbl = Hashtbl.create 64 in
  let rev_keys = ref [] in
  Array.iteri
    (fun p pts ->
      List.iter
        (fun pt ->
          let key = (p, Array.to_list (Codegen.tile_id sched pt)) in
          match Hashtbl.find_opt tbl key with
          | Some cell -> cell := pt :: !cell
          | None ->
              Hashtbl.add tbl key (ref [ pt ]);
              rev_keys := key :: !rev_keys)
        pts)
    per_proc;
  let keys = Array.of_list (List.rev !rev_keys) in
  let full_box (pts : Matrixkit.Ivec.t array) =
    let d = Array.length pts.(0) in
    let lo = Array.copy pts.(0) and hi = Array.copy pts.(0) in
    Array.iter
      (fun p ->
        for k = 0 to d - 1 do
          if p.(k) < lo.(k) then lo.(k) <- p.(k);
          if p.(k) > hi.(k) then hi.(k) <- p.(k)
        done)
      pts;
    let volume = ref 1 in
    for k = 0 to d - 1 do
      volume := !volume * (hi.(k) - lo.(k) + 1)
    done;
    if !volume = Array.length pts then
      Some (Array.init d (fun k -> (lo.(k), hi.(k))))
    else None
  in
  let tile k =
    let pts = Array.of_list (List.rev !(Hashtbl.find tbl k)) in
    match full_box pts with
    | Some b -> Runtime.Exec.Box b
    | None -> Runtime.Exec.Points pts
  in
  (Array.map tile keys, Array.map fst keys)

let test_pped_tiles_match_reference () =
  List.iter
    (fun (name, sched) ->
      checkb (name ^ ": parallelepiped") true
        (match sched.Codegen.tile with Tile.Pped _ -> true | Tile.Rect _ -> false);
      let part = Runtime.Resilient.tiles_of_schedule sched in
      let tiles, owners = reference_tiles sched in
      check (name ^ ": tile count") (Array.length tiles)
        (Array.length part.Runtime.Resilient.tiles);
      checkb (name ^ ": owners") true (owners = part.Runtime.Resilient.owners);
      checkb (name ^ ": tiles, points and order") true
        (tiles = part.Runtime.Resilient.tiles))
    (skewed_schedules ())

(* Ragged tiles add their footprints address by address: the sets must
   be exactly the ones an instrumented execution collects. *)
let test_points_footprints_match_measure () =
  List.iter
    (fun (name, sched) ->
      let part = Runtime.Resilient.tiles_of_schedule sched in
      checkb (name ^ ": has ragged tiles") true
        (Array.exists
           (function Runtime.Exec.Points _ -> true | Runtime.Exec.Box _ -> false)
           part.Runtime.Resilient.tiles);
      let work =
        Runtime.Exec.Tiled
          { tiles = part.Runtime.Resilient.tiles; owners = part.Runtime.Resilient.owners }
      in
      let compiled = Runtime.Exec.compile sched.Codegen.nest in
      let mode = Runtime.Measure.Exact in
      Runtime.Pool.with_pool sched.Codegen.nprocs (fun pool ->
          let touched = Runtime.Exec.footprints pool compiled work ~mode in
          let inst = Runtime.Exec.measure pool compiled work ~steps:1 ~mode in
          checkb (name ^ ": per-domain footprints") true
            (Array.map Runtime.Measure.touched_count touched
            = inst.Runtime.Exec.footprints);
          check (name ^ ": distinct total") inst.Runtime.Exec.distinct_total
            (Runtime.Measure.union_count touched)))
    (skewed_schedules ())

let test_bounding_box_volume () =
  let open Runtime.Exec in
  let full = [| [| 2; 5 |]; [| 2; 6 |]; [| 3; 5 |]; [| 3; 6 |] |] in
  let b = bounding_box 2 full in
  checkb "box of a full box" true (b = [| (2, 3); (5, 6) |]);
  check "full box: volume = count" (Array.length full) (box_volume b);
  let ragged = [| [| 1; 1 |]; [| 2; 3 |] |] in
  check "ragged: volume exceeds count" 6 (box_volume (bounding_box 2 ragged));
  check "no points: empty box" 0 (box_volume (bounding_box 2 [||]));
  checkb "arity mismatch rejected" true
    (raises_invalid (fun () -> ignore (bounding_box 3 full)))

(* ------------------------------------------------------------------ *)
(* Codegen.load_balance regression (satellite)                         *)
(* ------------------------------------------------------------------ *)

let test_load_balance_never_nan () =
  (* More processors than iterations: min is 0, the ratio is finite. *)
  let nest = Programs.example2 ~n:3 () in
  let sched = Codegen.make nest (Tile.rect [| 1; 3 |]) ~nprocs:8 in
  let mn, mx, imb = Codegen.load_balance sched in
  check "some processor is idle" 0 mn;
  checkb "max positive" true (mx > 0);
  checkb "imbalance not NaN" false (Float.is_nan imb);
  (* imbalance = max / (total / nprocs) = 3 / (9/8) *)
  Alcotest.(check (float 1e-9)) "true ratio" (3.0 /. (9.0 /. 8.0)) imb

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "dispatch to all domains" `Quick
            test_pool_runs_all_domains;
          Alcotest.test_case "barrier separates phases" `Quick
            test_pool_barrier_separates_phases;
          Alcotest.test_case "job exception re-raised" `Quick
            test_pool_reraises_job_exception;
          Alcotest.test_case "first of two exceptions wins" `Quick
            test_pool_first_exception_wins;
          Alcotest.test_case "survivors observe Aborted" `Quick
            test_pool_survivors_observe_abort;
          Alcotest.test_case "with_pool shuts down on exception" `Quick
            test_with_pool_shuts_down_on_exception;
          Alcotest.test_case "counter covers range" `Quick
            test_counter_covers_range;
          Alcotest.test_case "counter grab allocates nothing" `Quick
            test_counter_grab_allocates_nothing;
          Alcotest.test_case "deques cover and steal" `Quick
            test_deques_cover_and_steal;
        ] );
      ( "measure",
        [
          Alcotest.test_case "exact and bloom counters" `Quick
            test_touched_exact_and_bloom;
          Alcotest.test_case "union cardinality" `Quick test_union_count;
          Alcotest.test_case "out-of-universe addresses rejected" `Quick
            test_out_of_universe_rejected;
          Alcotest.test_case "touch_run = per-address touch" `Quick
            test_touch_run_matches_touch;
        ] );
      ( "validation",
        [
          Alcotest.test_case "runtime = simulator footprints" `Quick
            test_runtime_agrees_with_sim;
          Alcotest.test_case "Theorem 2 prediction = measurement" `Quick
            test_tiled_prediction_matches_measurement;
          Alcotest.test_case "values match sequential" `Quick
            test_values_match_sequential;
          Alcotest.test_case "kernel path lists no points" `Quick
            test_kernel_path_lists_no_points;
          Alcotest.test_case "reduction contention reported" `Quick
            test_reduction_contention_is_reported;
          Alcotest.test_case "dynamic policies execute everything" `Quick
            test_dynamic_policies_execute_everything;
          Alcotest.test_case "claimed ranges = sequential" `Quick
            test_claimed_ranges_match_sequential;
          Alcotest.test_case "out-of-space work rejected" `Quick
            test_out_of_space_work_rejected;
        ] );
      ( "tiles",
        [
          QCheck_alcotest.to_alcotest prop_range_is_sequence_slice;
          QCheck_alcotest.to_alcotest prop_box_range_is_few_boxes;
          Alcotest.test_case "parallelepiped grouping = reference" `Quick
            test_pped_tiles_match_reference;
          Alcotest.test_case "ragged-tile footprints = measure" `Quick
            test_points_footprints_match_measure;
          Alcotest.test_case "bounding box volume = count" `Quick
            test_bounding_box_volume;
        ] );
      ( "codegen regression",
        [
          Alcotest.test_case "load_balance never NaN" `Quick
            test_load_balance_never_nan;
        ] );
    ]
