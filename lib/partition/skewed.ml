open Matrixkit
open Loopir
open Footprint

type result = {
  l : Imat.t;
  tile : Tile.t;
  continuous_l : float array array;
  continuous_cost : float;
  rounded_cost : float;
  rect_cost : float;
  improves_on_rect : bool;
}

(* A class prepared for Theorem 2 at real [L]: its weight in the
   objective and its lattice index, as floats. *)
type cls = { weight : float; index : float; prep : Size.pped_prep }

(* Everything [eval] reads that does not depend on [L], built once per
   [optimize] call, plus the buffers it writes: [lr] holds the
   renormalized [L] of the current probe.  Owned by one call, so
   concurrent calls share nothing. *)
type problem = {
  classes : cls array;
  scratch : Size.pped_scratch;
  extents : int array;
  volume : float;
  lr : float array array;
}

(* [None] when some class has rank(G) < nesting. *)
let prepare_classes cost =
  match
    List.map
      (fun (c : Cost.class_cost) ->
        let prep =
          Size.pped_prepare ~g:c.Cost.cls.Uniform.g
            ~spread:(Uniform.spread c.Cost.cls)
        in
        {
          weight = float_of_int c.Cost.sync_weight;
          index = float_of_int (Size.pped_index prep);
          prep;
        })
      cost.Cost.classes
  with
  | classes -> Some (Array.of_list classes)
  | exception Size.Unsupported _ -> None

let objective_at classes scratch l =
  let acc = ref 0.0 in
  for c = 0 to Array.length classes - 1 do
    let k = classes.(c) in
    let v = Size.pped_eval scratch k.prep ~l /. k.index in
    acc := !acc +. (k.weight *. v)
  done;
  !acc

let objective cost l =
  match prepare_classes cost with
  | None -> infinity
  | Some classes ->
      objective_at classes (Size.pped_scratch (Nest.nesting cost.Cost.nest)) l

let copy_mat m = Array.map Array.copy m

(* The tile must fit inside the iteration space: the bounding box of the
   tile (sum of |edge| per dimension) may not exceed the extents.  Without
   this constraint the solver degenerates to infinitely long, thin tiles
   along a communication-free direction. *)
let box_penalty ~extents l =
  let n = Array.length l in
  let pen = ref 0.0 in
  for k = 0 to n - 1 do
    let bbox = ref 0.0 in
    for i = 0 to n - 1 do
      bbox := !bbox +. abs_float l.(i).(k)
    done;
    let ratio = !bbox /. float_of_int extents.(k) in
    if ratio > 1.0 then pen := !pen +. ((ratio -. 1.0) ** 2.0)
  done;
  !pen

(* Scales [l] into [p.lr] so that |det| = volume; false when [l] is
   (nearly) singular. *)
let renormalize_into p l =
  let n = Array.length l in
  let lr = p.lr in
  for i = 0 to n - 1 do
    Array.blit l.(i) 0 lr.(i) 0 n
  done;
  let d = abs_float (Size.float_det_in_place lr) in
  if d < 1e-9 then false
  else begin
    let s = (p.volume /. d) ** (1.0 /. float_of_int n) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        lr.(i).(j) <- l.(i).(j) *. s
      done
    done;
    true
  end

let renormalize p l =
  if renormalize_into p l then Some (copy_mat p.lr) else None

let eval p l =
  if not (renormalize_into p l) then infinity
  else
    let base = objective_at p.classes p.scratch p.lr in
    base *. (1.0 +. (100.0 *. box_penalty ~extents:p.extents p.lr))

(* Golden-section over one entry of L; all evaluations renormalize the
   determinant, so the search is effectively over tile shape.  A probe
   sets the entry and restores it. *)
let refine_entry p l i j =
  let base = l.(i).(j) in
  let width = 2.0 +. (2.0 *. abs_float base) in
  let f t =
    l.(i).(j) <- t;
    let v = eval p l in
    l.(i).(j) <- base;
    v
  in
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let a = ref (base -. width) and b = ref (base +. width) in
  let c = ref (!b -. (phi *. (!b -. !a))) in
  let d = ref (!a +. (phi *. (!b -. !a))) in
  let fc = ref (f !c) and fd = ref (f !d) in
  for _ = 1 to 60 do
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (phi *. (!b -. !a));
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (phi *. (!b -. !a));
      fd := f !d
    end
  done;
  let t = (!a +. !b) /. 2.0 in
  if f t < eval p l -. 1e-12 then l.(i).(j) <- t

let descend p l =
  let n = Array.length l in
  let prev = ref infinity in
  let continue = ref true in
  let rounds = ref 0 in
  while !continue && !rounds < 25 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        refine_entry p l i j
      done
    done;
    let v = eval p l in
    if !prev -. v < 1e-7 *. (1.0 +. abs_float v) then continue := false;
    prev := v;
    incr rounds
  done;
  !prev

let round_to_int p l =
  (* Round entries; small entries snap to the nearest integer, then the
     result is checked for nonsingularity. *)
  match renormalize p l with
  | None -> None
  | Some l' ->
      let n = Array.length l' in
      let m =
        Imat.make n n (fun i j -> int_of_float (Float.round l'.(i).(j)))
      in
      if Imat.det m = 0 then None else Some m

let optimize cost ~nprocs =
  match prepare_classes cost with
  | None -> None
  | Some classes -> (
      let nest = cost.Cost.nest in
      let l_dim = Nest.nesting nest in
      let volume =
        float_of_int (Nest.iterations nest) /. float_of_int nprocs
      in
      let extents = Nest.extents nest in
      let p =
        {
          classes;
          scratch = Size.pped_scratch l_dim;
          extents;
          volume;
          lr = Array.make_matrix l_dim l_dim 0.0;
        }
      in
      let rect_sizes =
        Rectangular.continuous_optimum cost ~volume ~extents
      in
      let diag_start =
        Array.init l_dim (fun i ->
            Array.init l_dim (fun j -> if i = j then rect_sizes.(i) else 0.0))
      in
      let skew_starts =
        (* Unit skews of the rectangular start in every off-diagonal
           direction and orientation. *)
        List.concat_map
          (fun (i, j) ->
            List.map
              (fun sgn ->
                let m = copy_mat diag_start in
                m.(i).(j) <- sgn *. rect_sizes.(i);
                m)
              [ 1.0; -1.0 ])
          (List.concat_map
             (fun i ->
               List.filter_map
                 (fun j -> if i <> j then Some (i, j) else None)
                 (List.init l_dim Fun.id))
             (List.init l_dim Fun.id))
      in
      let best = ref None in
      List.iter
        (fun start ->
          let l = copy_mat start in
          let v = descend p l in
          match !best with
          | Some (_, bv) when bv <= v -> ()
          | _ -> best := Some (l, v))
        (diag_start :: skew_starts);
      match !best with
      | None -> None
      | Some (l, continuous_cost) -> (
          let l = Option.value ~default:l (renormalize p l) in
          match round_to_int p l with
          | None -> None
          | Some li ->
              let rounded_cost =
                objective_at classes p.scratch
                  (Array.init l_dim (fun i ->
                       Array.init l_dim (fun j ->
                           float_of_int (Imat.get li i j))))
              in
              let rect = objective_at classes p.scratch diag_start in
              Some
                {
                  l = li;
                  tile = Tile.pped li;
                  continuous_l = l;
                  continuous_cost;
                  rounded_cost;
                  rect_cost = rect;
                  improves_on_rect = rounded_cost < rect -. 1e-6;
                }))

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>L =@,%a@,continuous cost: %.2f@,rounded cost: %.2f@,best \
     rectangular cost: %.2f@,parallelepiped improves: %b@]"
    Imat.pp r.l r.continuous_cost r.rounded_cost r.rect_cost
    r.improves_on_rect
