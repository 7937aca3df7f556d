open Loopir
open Partition
open Machine

type analysis = {
  nest : Nest.t;
  nprocs : int;
  cost : Cost.t;
  rect : Rectangular.result;
  skewed : Skewed.result option;
  rs : Baselines.Ramanujam_sadayappan.t;
  ah : (Baselines.Abraham_hudak.result, string) result;
}

let analyze ?(try_skewed = false) ~nprocs nest =
  let cost = Cost.of_nest nest in
  let rect = Rectangular.optimize cost ~nprocs in
  let skewed = if try_skewed then Skewed.optimize cost ~nprocs else None in
  let rs = Baselines.Ramanujam_sadayappan.analyze nest in
  let ah = Baselines.Abraham_hudak.partition nest ~nprocs in
  { nest; nprocs; cost; rect; skewed; rs; ah }

let best_tile a =
  match a.skewed with
  | Some s when s.Skewed.improves_on_rect -> s.Skewed.tile
  | Some _ | None -> a.rect.Rectangular.tile

let schedule ?tile a =
  let tile = Option.value ~default:a.rect.Rectangular.tile tile in
  Codegen.make a.nest tile ~nprocs:a.nprocs

let simulate ?tile ?(config = Sim.default) a =
  Sim.run (schedule ?tile a) config

type exec_policy =
  | Tiled
  | Cyclic
  | Block_cyclic of int
  | Guided
  | Work_steal of int

type exec_config = {
  policy : exec_policy;
  repeats : int;
  steps : int option;
  footprint : Runtime.Measure.mode;
  kernels : bool;
  trace : Runtime.Trace.t option;
}

let default_exec_config =
  {
    policy = Tiled;
    repeats = 3;
    steps = None;
    footprint = Runtime.Measure.Auto;
    kernels = false;
    trace = None;
  }

let trace_of config = Option.value ~default:Runtime.Trace.disabled config.trace

let policy_name = function
  | Tiled -> "compile-time tiles"
  | Cyclic -> "cyclic self-scheduling"
  | Block_cyclic c -> Printf.sprintf "block-cyclic self-scheduling (chunk %d)" c
  | Guided -> "guided self-scheduling"
  | Work_steal c -> Printf.sprintf "tiled + work stealing (chunk %d)" c

(* All iterations in lexicographic order: the stream the run-time
   schedulers grab chunks from. *)
let lex_points nest = Array.of_list (Scheduling.cyclic nest ~nprocs:1).(0)

(* The kernel path: time the specialized strided loops over the tile
   boxes and report that run's iterations and checksum, with footprints
   from the references' strided address runs over the same boxes - no
   iteration point is ever listed. *)
let execute_kernels ~config ~sched a =
  let nest = a.nest in
  let per_tile = Cost.misses_per_tile a.cost sched.Codegen.tile in
  let tiles_per_proc =
    Intmath.Int_math.ceil_div (Codegen.num_tiles sched) a.nprocs
  in
  let predicted = per_tile * tiles_per_proc in
  let compiled = Runtime.Exec.compile nest in
  let plan = Runtime.Kernel.plan compiled in
  let boxes = Runtime.Kernel.boxes_of_schedule sched in
  let steps = Runtime.Exec.steps_of_nest ?override:config.steps nest in
  let trace = trace_of config in
  let raw =
    Runtime.Pool.with_pool a.nprocs (fun pool ->
        let wall, seconds, iterations, checksum =
          Runtime.Kernel.time ~trace pool plan ~boxes ~steps
            ~repeats:config.repeats
        in
        let touched =
          Runtime.Kernel.footprints pool plan ~boxes ~mode:config.footprint
        in
        let footprints = Array.map Runtime.Measure.touched_count touched in
        Array.iteri
          (fun p f ->
            Runtime.Trace.add trace p Runtime.Trace.Elements_touched f)
          footprints;
        {
          Runtime.Measure.wall_seconds = wall;
          seconds;
          iterations;
          footprints;
          exact_footprints = Array.for_all Runtime.Measure.is_exact touched;
          distinct_total = Runtime.Measure.union_count touched;
          checksum;
        })
  in
  Runtime.Measure.report ~name:nest.Nest.name
    ~policy:
      (Printf.sprintf "compile-time tiles + %s kernel"
         (Runtime.Kernel.shape plan))
    ~steps ~repeats:config.repeats
    ~total_elements:(Runtime.Exec.total_elements compiled)
    ~predicted_per_domain:predicted raw

let execute ?(config = default_exec_config) ?tile a =
  let nest = a.nest in
  let sched = schedule ?tile a in
  let kernel_capable =
    config.kernels && config.policy = Tiled
    && match sched.Codegen.tile with Tile.Rect _ -> true | Tile.Pped _ -> false
  in
  if kernel_capable then execute_kernels ~config ~sched a
  else
  let work, predicted =
    match config.policy with
    | Tiled ->
        let per_tile = Cost.misses_per_tile a.cost sched.Codegen.tile in
        let tiles_per_proc =
          Intmath.Int_math.ceil_div (Codegen.num_tiles sched) a.nprocs
        in
        let work =
          match config.trace with
          | Some tr when Runtime.Trace.enabled tr ->
              (* A traced run keeps the tile-granular work list so each
                 tile gets its own span; the untraced path stays on the
                 flattened static assignment (identical iteration order,
                 no per-tile dispatch). *)
              let p = Runtime.Resilient.tiles_of_schedule sched in
              Runtime.Exec.Tiled
                {
                  tiles = p.Runtime.Resilient.tiles;
                  owners = p.Runtime.Resilient.owners;
                }
          | Some _ | None ->
              Runtime.Exec.static_of_assignment (Scheduling.of_schedule sched)
        in
        (work, Some (per_tile * tiles_per_proc))
    | Work_steal chunk ->
        ( Runtime.Exec.queues_of_assignment
            (Scheduling.of_schedule sched)
            ~chunk,
          None )
    | Cyclic ->
        (Runtime.Exec.Dynamic
           { points = lex_points nest; chunk = (fun ~remaining:_ -> 1) },
         None)
    | Block_cyclic chunk ->
        if chunk < 1 then invalid_arg "Driver.execute: chunk < 1";
        (Runtime.Exec.Dynamic
           { points = lex_points nest; chunk = (fun ~remaining:_ -> chunk) },
         None)
    | Guided ->
        (Runtime.Exec.Dynamic
           {
             points = lex_points nest;
             chunk =
               (fun ~remaining ->
                 Intmath.Int_math.ceil_div remaining a.nprocs);
           },
         None)
  in
  let compiled = Runtime.Exec.compile nest in
  let steps = Runtime.Exec.steps_of_nest ?override:config.steps nest in
  let raw =
    Runtime.Pool.with_pool a.nprocs (fun pool ->
        Runtime.Exec.run ~trace:(trace_of config) pool compiled work ~steps
          ~repeats:config.repeats ~mode:config.footprint)
  in
  Runtime.Measure.report ~name:nest.Nest.name
    ~policy:(policy_name config.policy)
    ~steps ~repeats:config.repeats
    ~total_elements:(Runtime.Exec.total_elements compiled)
    ?predicted_per_domain:predicted raw

let execute_resilient ?(config = default_exec_config)
    ?(resilience = Runtime.Resilient.default_config) ?plan ?tile a =
  let nest = a.nest in
  let compiled = Runtime.Exec.compile nest in
  let steps = Runtime.Exec.steps_of_nest ?override:config.steps nest in
  let chosen = Option.value ~default:(best_tile a) tile in
  let partition ~nprocs =
    let tile =
      if nprocs = a.nprocs then chosen
      else
        (* Degraded pool: re-optimize the partition for the smaller
           machine instead of squeezing the old tile onto it. *)
        (Rectangular.optimize a.cost ~nprocs).Rectangular.tile
    in
    Runtime.Resilient.tiles_of_schedule (Codegen.make nest tile ~nprocs)
  in
  Runtime.Resilient.execute ~config:resilience ?plan ?trace:config.trace
    ~kernels:config.kernels ~compiled ~steps ~partition ~nprocs:a.nprocs ()

let validate ?tile a = Runtime.Validate.check_schedule (schedule ?tile a)

let simulate_aligned ?tile ?(geometry = Cache.Infinite) a =
  let sched = schedule ?tile a in
  let placement = Data_partition.aligned sched a.cost in
  Sim.run sched
    {
      Sim.default with
      Sim.geometry;
      topology = Sim.Mesh2d;
      placement = Some placement;
    }

let report ppf a =
  Format.fprintf ppf "@[<v>=== %s on %d processors ===@,@,%a@,@,"
    a.nest.Nest.name a.nprocs Nest.pp a.nest;
  Format.fprintf ppf "%a@,@," Cost.pp a.cost;
  Format.fprintf ppf "--- rectangular partition ---@,%a@,@,"
    Rectangular.pp_result a.rect;
  (match a.skewed with
  | Some s ->
      Format.fprintf ppf "--- parallelepiped partition ---@,%a@,@,"
        Skewed.pp_result s
  | None -> ());
  Format.fprintf ppf "--- Ramanujam-Sadayappan check ---@,%a@,@,"
    Baselines.Ramanujam_sadayappan.pp a.rs;
  (match a.ah with
  | Ok r ->
      Format.fprintf ppf "--- Abraham-Hudak baseline ---@,%a@,"
        Baselines.Abraham_hudak.pp_result r
  | Error e ->
      Format.fprintf ppf "--- Abraham-Hudak baseline: not applicable (%s)@,"
        e);
  Format.fprintf ppf "@]"
