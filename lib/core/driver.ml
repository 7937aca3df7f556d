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
  kernels : bool;
  trace : Runtime.Trace.t option;
}

let default_exec_config =
  {
    policy = Tiled;
    repeats = 3;
    steps = None;
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

(* Every policy takes one path: build the work, run it, report.  The
   compile-time tiles are owned (Tiled) or drained with stealing
   (Work_steal); the other policies claim ranges of the iteration space.
   Every tile and claimed sub-tile runs on the kernels when asked, else
   on the interpreter. *)
let execute ?(config = default_exec_config) ?tile a =
  let nest = a.nest in
  let sched = schedule ?tile a in
  let compiled = Runtime.Exec.compile nest in
  let tiled () =
    let p = Runtime.Resilient.tiles_of_schedule sched in
    (p.Runtime.Resilient.tiles, p.Runtime.Resilient.owners)
  in
  let dynamic chunk = (Runtime.Exec.Dynamic { chunk }, None) in
  let work, predicted =
    match config.policy with
    | Tiled ->
        (* The busiest domain's tile count times one whole tile's misses;
           a parallelepiped's clipped boundary tiles make it a bound. *)
        let tiles, owners = tiled () in
        let per_tile = Cost.misses_per_tile a.cost sched.Codegen.tile in
        let owned = Array.make a.nprocs 0 in
        Array.iter (fun p -> owned.(p) <- owned.(p) + 1) owners;
        let tiles_per_proc = Array.fold_left Int.max 0 owned in
        (Runtime.Exec.Tiled { tiles; owners }, Some (per_tile * tiles_per_proc))
    | Work_steal chunk ->
        let tiles, owners = tiled () in
        (Runtime.Exec.Steal { tiles; owners; chunk }, None)
    | Cyclic -> dynamic (fun ~remaining:_ -> 1)
    | Block_cyclic chunk ->
        if chunk < 1 then invalid_arg "Driver.execute: chunk < 1";
        dynamic (fun ~remaining:_ -> chunk)
    | Guided ->
        dynamic (fun ~remaining ->
            Intmath.Int_math.ceil_div remaining a.nprocs)
  in
  let kernel =
    if config.kernels then Some (Runtime.Kernel.plan compiled) else None
  in
  let steps = Runtime.Exec.steps_of_nest ?override:config.steps nest in
  let raw =
    Runtime.Pool.with_pool a.nprocs (fun pool ->
        Runtime.Exec.run ~trace:(trace_of config)
          ?runner:(Option.map Runtime.Kernel.run_tile kernel)
          pool compiled work ~steps ~repeats:config.repeats
          ~mode:Runtime.Measure.Exact)
  in
  let policy =
    match kernel with
    | Some plan ->
        Printf.sprintf "%s + %s kernel" (policy_name config.policy)
          (Runtime.Kernel.shape plan)
    | None -> policy_name config.policy
  in
  Runtime.Measure.report ~name:nest.Nest.name ~policy ~steps
    ~repeats:config.repeats
    ~total_elements:(Runtime.Exec.total_elements compiled)
    ?predicted_per_domain:predicted
    ~prediction_is_bound:
      (match sched.Codegen.tile with Tile.Pped _ -> true | Tile.Rect _ -> false)
    raw

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
