(* End-to-end integration tests: the full pipeline on every program of
   the gallery, plus the paper-agreement checks that tie analysis,
   optimizer, baselines and simulator together. *)

open Loopir
open Partition
open Machine
open Loopart

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_gallery_analyzes () =
  (* Every gallery program must flow through the whole pipeline. *)
  List.iter
    (fun (name, nest) ->
      let nprocs = 4 in
      let a = Driver.analyze ~nprocs nest in
      checkb
        (Printf.sprintf "%s: grid covers procs" name)
        true
        (Array.fold_left ( * ) 1 a.Driver.rect.Rectangular.grid = nprocs);
      checkb
        (Printf.sprintf "%s: report renders" name)
        true
        (String.length (Format.asprintf "%a" Driver.report a) > 0))
    Programs.all

let test_example2_end_to_end () =
  let a = Driver.analyze ~nprocs:100 (Programs.example2 ()) in
  (* The compiler picks the communication-free column partition... *)
  Alcotest.(check (array int))
    "columns" [| 100; 1 |] a.Driver.rect.Rectangular.sizes;
  (* ...RS confirms it is communication-free... *)
  checkb "rs agrees" true a.Driver.rs.Baselines.Ramanujam_sadayappan.comm_free;
  (* ...and the simulator measures exactly the predicted misses. *)
  let r = Driver.simulate a in
  Array.iter
    (fun f -> check "footprint = prediction"
        a.Driver.rect.Rectangular.predicted_misses_per_tile f)
    (Sim.footprints r);
  check "zero coherence" 0 r.Sim.stats.Stats.coherence_misses

let test_prediction_accuracy_across_gallery () =
  (* Theorem 4's estimate must stay within 35% of the measured footprint
     for interior tiles of every gallery program (boundary truncation
     makes measurements smaller, never larger). *)
  List.iter
    (fun (name, nest) ->
      match Nest.nesting nest with
      | 2 | 3 ->
          let nprocs = 4 in
          let a = Driver.analyze ~nprocs nest in
          let r = Driver.simulate ~config:{ Sim.default with Sim.seq_steps = Some 1 } a in
          let measured = Array.fold_left max 0 (Sim.footprints r) in
          let predicted = a.Driver.rect.Rectangular.predicted_misses_per_tile in
          checkb
            (Printf.sprintf "%s: prediction %d vs measured %d" name predicted
               measured)
            true
            (* Theorem 4 linearizes: it drops the positive cross terms
               (undershoots dense stencils like the 27-point one by the
               u_i*u_j corners) and ignores iteration-space boundary
               truncation (overshoots at corner tiles). *)
            (float_of_int measured <= 1.10 *. float_of_int predicted
            && float_of_int predicted <= 1.6 *. float_of_int measured)
      | _ -> ())
    Programs.all

let test_matmul_blocks_beat_rows () =
  (* The introduction's motivating claim: square blocks reuse more than
     rows/columns in matrix multiply. *)
  let nest = Programs.matmul ~n:16 () in
  let cost = Cost.of_nest nest in
  let blocks = Cost.misses_per_tile cost (Tile.rect [| 4; 4; 16 |]) in
  let rows = Cost.misses_per_tile cost (Tile.rect [| 1; 16; 16 |]) in
  checkb "blocks beat rows analytically" true (blocks < rows);
  let sim tile =
    let sched = Codegen.make nest tile ~nprocs:16 in
    (Sim.run sched Sim.default).Sim.stats.Stats.misses
  in
  checkb "blocks beat rows in simulation" true
    (sim (Tile.rect [| 4; 4; 16 |]) < sim (Tile.rect [| 1; 16; 16 |]))

let test_best_tile_prefers_improving_skew () =
  let a = Driver.analyze ~try_skewed:true ~nprocs:10 (Programs.example3 ()) in
  match a.Driver.skewed with
  | None -> Alcotest.fail "skewed engine applies to example 3"
  | Some s ->
      checkb "skew improves" true s.Skewed.improves_on_rect;
      checkb "best tile is the skewed one" true
        (Tile.equal (Driver.best_tile a) s.Skewed.tile)

(* The decision rests on the tile that would run, the rounded one: on
   example 2 it merely ties the rectangle (5100 = 5100), and on
   transpose_like rounding loses to it (485 > 465.6). *)
let test_best_tile_keeps_rect_unless_rounded_skew_wins () =
  List.iter
    (fun (nest, nprocs) ->
      let name = Printf.sprintf "%s -p %d" nest.Loopir.Nest.name nprocs in
      let a = Driver.analyze ~try_skewed:true ~nprocs nest in
      match a.Driver.skewed with
      | None -> Alcotest.failf "%s: skewed engine applies" name
      | Some s ->
          checkb (name ^ ": no improvement") false s.Skewed.improves_on_rect;
          checkb (name ^ ": rounded cost not below rect") true
            (s.Skewed.rounded_cost >= s.Skewed.rect_cost -. 1e-6);
          checkb (name ^ ": best tile is the rectangle") true
            (Tile.equal (Driver.best_tile a) a.Driver.rect.Rectangular.tile))
    [ (Programs.example2 (), 4); (Programs.transpose_like (), 10) ]

let test_driver_parse_roundtrip () =
  (* Surface syntax -> full pipeline. *)
  let src =
    "doall i = 1 to 40\ndoall j = 1 to 40\nA[i,j] = B[i-1,j] + B[i+1,j]\n"
  in
  let nest = Parse.nest_of_string ~name:"parsed" src in
  let a = Driver.analyze ~nprocs:4 nest in
  (* Sharing runs along i (offsets +-1 in i): each processor takes all of
     i and a band of j, so the shared strips stay inside one tile. *)
  Alcotest.(check (array int)) "i-spanning slabs" [| 40; 10 |]
    a.Driver.rect.Rectangular.sizes

let test_simulate_aligned_runs () =
  let a = Driver.analyze ~nprocs:9 (Programs.relax_inplace ~n:19 ~steps:2 ()) in
  let r = Driver.simulate_aligned a in
  checkb "local fills on mesh" true (r.Sim.stats.Stats.local_fills > 0)

(* ------------------------------------------------------------------ *)
(* Random-nest integration properties                                  *)
(* ------------------------------------------------------------------ *)

(* Random small doubly-nested programs: a write to one array and 1-3
   reads from another, with random small-G affine subscripts. *)
let gen_nest =
  QCheck2.Gen.(
    let gen_g =
      oneofl
        [
          [ [ 1; 0 ]; [ 0; 1 ] ];
          [ [ 1; 1 ]; [ 1; -1 ] ];
          [ [ 1; 0 ]; [ 1; 1 ] ];
          [ [ 2; 0 ]; [ 0; 1 ] ];
          [ [ 1; 1 ]; [ 0; 1 ] ];
        ]
    in
    let gen_read =
      map2
        (fun g (o1, o2) ->
          Reference.read "B" (Affine.of_rows g [ o1; o2 ]))
        gen_g
        (pair (int_range (-2) 2) (int_range (-2) 2))
    in
    map2
      (fun n reads ->
        let write =
          Reference.write "A" (Affine.of_rows [ [ 1; 0 ]; [ 0; 1 ] ] [ 0; 0 ])
        in
        Nest.make ~name:"random"
          [ Nest.loop "i" 1 n; Nest.loop "j" 1 n ]
          (write :: reads))
      (int_range 8 16)
      (list_size (int_range 1 3) gen_read))

let prop_cold_misses_equal_footprints =
  QCheck2.Test.make ~name:"cold misses = sum of per-proc footprints"
    ~count:60 gen_nest (fun nest ->
      let a = Driver.analyze ~nprocs:4 nest in
      let r = Driver.simulate a in
      r.Sim.stats.Stats.cold_misses
      = Array.fold_left ( + ) 0 (Sim.footprints r))

let prop_prediction_upper_bounds_measurement =
  QCheck2.Test.make
    ~name:"Theorem 4 prediction bounds the busiest processor" ~count:60
    gen_nest (fun nest ->
      let a = Driver.analyze ~nprocs:4 nest in
      let r = Driver.simulate a in
      let measured = Array.fold_left max 0 (Sim.footprints r) in
      let predicted = a.Driver.rect.Rectangular.predicted_misses_per_tile in
      (* Boundary truncation only shrinks footprints; Theorem 4 only
         drops positive cross terms bounded by the spreads. *)
      measured <= predicted + 32)

let prop_schedule_covers_space =
  QCheck2.Test.make ~name:"schedule covers every iteration exactly once"
    ~count:60 gen_nest (fun nest ->
      let a = Driver.analyze ~nprocs:4 nest in
      let per = Codegen.iterations_by_proc (Driver.schedule a) in
      Array.fold_left (fun acc l -> acc + List.length l) 0 per
      = Nest.iterations nest)

let random_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cold_misses_equal_footprints;
      prop_prediction_upper_bounds_measurement;
      prop_schedule_covers_space;
    ]

let () =
  Alcotest.run "driver"
    [
      ( "integration",
        [
          Alcotest.test_case "gallery analyzes" `Quick test_gallery_analyzes;
          Alcotest.test_case "example 2 end-to-end" `Quick
            test_example2_end_to_end;
          Alcotest.test_case "prediction accuracy" `Quick
            test_prediction_accuracy_across_gallery;
          Alcotest.test_case "matmul blocks vs rows" `Quick
            test_matmul_blocks_beat_rows;
          Alcotest.test_case "best tile with skew" `Quick
            test_best_tile_prefers_improving_skew;
          Alcotest.test_case "rectangle unless the rounded skew wins" `Quick
            test_best_tile_keeps_rect_unless_rounded_skew_wins;
          Alcotest.test_case "parse -> pipeline" `Quick
            test_driver_parse_roundtrip;
          Alcotest.test_case "aligned simulation" `Quick
            test_simulate_aligned_runs;
        ] );
      ("random nests", random_props);
    ]
