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

(* The search's objective, prepared once per [optimize] call: every
   value that does not depend on [L] in flat row-major arrays, and the
   buffers a probe writes.  Class [c]'s [G'] entry [(k, j)] is
   [g.(c*n*n + k*n + j)] and its spread entry [j] is [a.(c*n + j)]; [L]
   is an [n*n] row-major array too.  Owned by one call, so concurrent
   calls share nothing. *)
type engine = {
  n : int;
  classes : int;
  g : float array;  (** [G'] of every class *)
  a : float array;  (** spread row of every class *)
  weight : float array;  (** sync weight of every class *)
  index : float array;  (** lattice index [|det G'|] of every class *)
  extents : float array;
  volume : float;  (** the target [|det L|] *)
  inv_n : float;  (** [1 / n] *)
  lr : float array;  (** the renormalized [L] of the current probe *)
  lg : float array;  (** [LG'] (generic nesting) *)
  work : float array;  (** elimination buffer (generic nesting) *)
}

(* [None] when some class has rank(G) < nesting. *)
let engine cost ~nprocs =
  match
    List.map
      (fun (c : Cost.class_cost) ->
        ( c,
          Size.pped_prepare ~g:c.Cost.cls.Uniform.g
            ~spread:(Uniform.spread c.Cost.cls) ))
      cost.Cost.classes
  with
  | exception Size.Unsupported _ -> None
  | preps ->
      let preps = Array.of_list preps in
      let nest = cost.Cost.nest in
      let n = Nest.nesting nest in
      let flat f = Array.concat (Array.to_list (Array.map f preps)) in
      Some
        {
          n;
          classes = Array.length preps;
          g = flat (fun (_, p) -> Array.concat (Array.to_list p.Size.g1));
          a = flat (fun (_, p) -> p.Size.a_row);
          weight =
            Array.map (fun (c, _) -> float_of_int c.Cost.sync_weight) preps;
          index = Array.map (fun (_, p) -> float_of_int p.Size.index) preps;
          extents = Array.map float_of_int (Nest.extents nest);
          volume = float_of_int (Nest.iterations nest) /. float_of_int nprocs;
          inv_n = 1.0 /. float_of_int n;
          lr = Array.make (n * n) 0.0;
          lg = Array.make (n * n) 0.0;
          work = Array.make (n * n) 0.0;
        }

(* Determinants by [Size.float_det]'s partial-pivot elimination, float
   operation for float operation: the first entry of largest magnitude
   (strict [>]) pivots, a pivot below [1e-12] gives [0.0], a row swap
   negates the running product, which starts at [1.0].  For nesting 2
   and 3 the elimination is straight-line code on unboxed values; [sign]
   is the running product so far, [p] the pivot row, [q] and [r] the
   rows below it in order after the swap.  An eliminated row's pivot
   column is never read again, so it is not computed. *)
let[@inline] elim2 sign p0 p1 q0 q1 =
  let det = sign *. p0 in
  let q1 = q1 -. (q0 /. p0 *. p1) in
  if abs_float q1 < 1e-12 then 0.0 else det *. q1

let[@inline] det2 a00 a01 a10 a11 =
  if abs_float a10 > abs_float a00 then
    if abs_float a10 < 1e-12 then 0.0 else elim2 (-1.0) a10 a11 a00 a01
  else if abs_float a00 < 1e-12 then 0.0
  else elim2 1.0 a00 a01 a10 a11

let[@inline] elim3 sign p0 p1 p2 q0 q1 q2 r0 r1 r2 =
  let det = sign *. p0 in
  let f = q0 /. p0 in
  let q1 = q1 -. (f *. p1) and q2 = q2 -. (f *. p2) in
  let f = r0 /. p0 in
  let r1 = r1 -. (f *. p1) and r2 = r2 -. (f *. p2) in
  if abs_float r1 > abs_float q1 then
    if abs_float r1 < 1e-12 then 0.0 else elim2 (-.det) r1 r2 q1 q2
  else if abs_float q1 < 1e-12 then 0.0
  else elim2 det q1 q2 r1 r2

let[@inline] det3 a00 a01 a02 a10 a11 a12 a20 a21 a22 =
  let m0 = abs_float a00 and m1 = abs_float a10 and m2 = abs_float a20 in
  let top = if m1 > m0 then 1 else 0 in
  let piv = if m2 > (if top = 1 then m1 else m0) then 2 else top in
  if piv = 0 then
    if m0 < 1e-12 then 0.0
    else elim3 1.0 a00 a01 a02 a10 a11 a12 a20 a21 a22
  else if piv = 1 then
    if m1 < 1e-12 then 0.0
    else elim3 (-1.0) a10 a11 a12 a00 a01 a02 a20 a21 a22
  else if m2 < 1e-12 then 0.0
  else elim3 (-1.0) a20 a21 a22 a10 a11 a12 a00 a01 a02

(* Any nesting: the [n x n] row-major matrix in [w], eliminated in
   place. *)
let det_flat w n =
  let det = ref 1.0 and c = ref 0 in
  while !c < n do
    let c0 = !c in
    let piv = ref c0 in
    for i = c0 + 1 to n - 1 do
      if abs_float w.((i * n) + c0) > abs_float w.((!piv * n) + c0) then
        piv := i
    done;
    if abs_float w.((!piv * n) + c0) < 1e-12 then begin
      det := 0.0;
      c := n
    end
    else begin
      if !piv <> c0 then begin
        for j = c0 to n - 1 do
          let t = w.((!piv * n) + j) in
          w.((!piv * n) + j) <- w.((c0 * n) + j);
          w.((c0 * n) + j) <- t
        done;
        det := -. !det
      end;
      let pivot = w.((c0 * n) + c0) in
      det := !det *. pivot;
      for i = c0 + 1 to n - 1 do
        let f = w.((i * n) + c0) /. pivot in
        for j = c0 + 1 to n - 1 do
          w.((i * n) + j) <- w.((i * n) + j) -. (f *. w.((c0 * n) + j))
        done
      done;
      c := c0 + 1
    end
  done;
  !det

(* Theorem 2 summed over classes at the [L] in [e.lr]: per class
   [weight * (|det LG'| + sum_i |det LG'_{i->spread}|) / index], each
   [LG'] entry summed from [0.0] as in [Size.pped_cumulative_float]. *)
let[@inline] objective2 e =
  let lr = e.lr and g = e.g and a = e.a in
  let l00 = lr.(0) and l01 = lr.(1) and l10 = lr.(2) and l11 = lr.(3) in
  let acc = ref 0.0 in
  for c = 0 to e.classes - 1 do
    let o = 4 * c and s = 2 * c in
    let g00 = g.(o) and g01 = g.(o + 1) and g10 = g.(o + 2)
    and g11 = g.(o + 3) in
    let a0 = a.(s) and a1 = a.(s + 1) in
    let m00 = 0.0 +. (l00 *. g00) +. (l01 *. g10)
    and m01 = 0.0 +. (l00 *. g01) +. (l01 *. g11)
    and m10 = 0.0 +. (l10 *. g00) +. (l11 *. g10)
    and m11 = 0.0 +. (l10 *. g01) +. (l11 *. g11) in
    let v =
      abs_float (det2 m00 m01 m10 m11)
      +. abs_float (det2 a0 a1 m10 m11)
      +. abs_float (det2 m00 m01 a0 a1)
    in
    acc := !acc +. (e.weight.(c) *. (v /. e.index.(c)))
  done;
  !acc

let[@inline] objective3 e =
  let lr = e.lr and g = e.g and a = e.a in
  let l00 = lr.(0) and l01 = lr.(1) and l02 = lr.(2) in
  let l10 = lr.(3) and l11 = lr.(4) and l12 = lr.(5) in
  let l20 = lr.(6) and l21 = lr.(7) and l22 = lr.(8) in
  let acc = ref 0.0 in
  for c = 0 to e.classes - 1 do
    let o = 9 * c and s = 3 * c in
    let g00 = g.(o) and g01 = g.(o + 1) and g02 = g.(o + 2) in
    let g10 = g.(o + 3) and g11 = g.(o + 4) and g12 = g.(o + 5) in
    let g20 = g.(o + 6) and g21 = g.(o + 7) and g22 = g.(o + 8) in
    let a0 = a.(s) and a1 = a.(s + 1) and a2 = a.(s + 2) in
    let m00 = 0.0 +. (l00 *. g00) +. (l01 *. g10) +. (l02 *. g20)
    and m01 = 0.0 +. (l00 *. g01) +. (l01 *. g11) +. (l02 *. g21)
    and m02 = 0.0 +. (l00 *. g02) +. (l01 *. g12) +. (l02 *. g22)
    and m10 = 0.0 +. (l10 *. g00) +. (l11 *. g10) +. (l12 *. g20)
    and m11 = 0.0 +. (l10 *. g01) +. (l11 *. g11) +. (l12 *. g21)
    and m12 = 0.0 +. (l10 *. g02) +. (l11 *. g12) +. (l12 *. g22)
    and m20 = 0.0 +. (l20 *. g00) +. (l21 *. g10) +. (l22 *. g20)
    and m21 = 0.0 +. (l20 *. g01) +. (l21 *. g11) +. (l22 *. g21)
    and m22 = 0.0 +. (l20 *. g02) +. (l21 *. g12) +. (l22 *. g22) in
    let v =
      abs_float (det3 m00 m01 m02 m10 m11 m12 m20 m21 m22)
      +. abs_float (det3 a0 a1 a2 m10 m11 m12 m20 m21 m22)
      +. abs_float (det3 m00 m01 m02 a0 a1 a2 m20 m21 m22)
      +. abs_float (det3 m00 m01 m02 m10 m11 m12 a0 a1 a2)
    in
    acc := !acc +. (e.weight.(c) *. (v /. e.index.(c)))
  done;
  !acc

(* |det| of [LG'] (in [e.lg]) with row [r] replaced by class [c]'s
   spread row ([r = n]: none replaced). *)
let abs_det_replacing e c r =
  let n = e.n in
  Array.blit e.lg 0 e.work 0 (n * n);
  if r < n then Array.blit e.a (c * n) e.work (r * n) n;
  abs_float (det_flat e.work n)

let objective_generic e =
  let n = e.n and lr = e.lr and lg = e.lg and g = e.g in
  let acc = ref 0.0 in
  for c = 0 to e.classes - 1 do
    let o = c * n * n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let s = ref 0.0 in
        for k = 0 to n - 1 do
          s := !s +. (lr.((i * n) + k) *. g.(o + (k * n) + j))
        done;
        lg.((i * n) + j) <- !s
      done
    done;
    let v = ref (abs_det_replacing e c n) in
    for r = 0 to n - 1 do
      v := !v +. abs_det_replacing e c r
    done;
    acc := !acc +. (e.weight.(c) *. (!v /. e.index.(c)))
  done;
  !acc

let objective_lr e =
  match e.n with
  | 2 -> objective2 e
  | 3 -> objective3 e
  | _ -> objective_generic e

(* The tile must fit inside the iteration space: the bounding box of the
   tile (sum of |edge| per dimension) may not exceed the extents.  Without
   this constraint the solver degenerates to infinitely long, thin tiles
   along a communication-free direction.  [excess] adds one dimension's
   term to the penalty [pen]. *)
let[@inline] excess pen bbox extent =
  let ratio = bbox /. extent in
  if ratio > 1.0 then pen +. ((ratio -. 1.0) ** 2.0) else pen

let penalty_generic e =
  let n = e.n in
  let pen = ref 0.0 in
  for k = 0 to n - 1 do
    let bbox = ref 0.0 in
    for i = 0 to n - 1 do
      bbox := !bbox +. abs_float e.lr.((i * n) + k)
    done;
    pen := excess !pen !bbox e.extents.(k)
  done;
  !pen

(* Scales [l] into [e.lr] so that |det| = volume; false when [l] is
   (nearly) singular. *)
let renormalize_into e l =
  let n = e.n in
  Array.blit l 0 e.work 0 (n * n);
  let d = abs_float (det_flat e.work n) in
  if d < 1e-9 then false
  else begin
    let s = (e.volume /. d) ** e.inv_n in
    for x = 0 to (n * n) - 1 do
      e.lr.(x) <- l.(x) *. s
    done;
    true
  end

(* One probe of the search: renormalize [l], evaluate, and weigh the box
   penalty in; [infinity] at a (nearly) singular [l].  [probe2] and
   [probe3] inline the renormalization and the penalty. *)
let probe2 e l =
  let l00 = l.(0) and l01 = l.(1) and l10 = l.(2) and l11 = l.(3) in
  let d = abs_float (det2 l00 l01 l10 l11) in
  if d < 1e-9 then infinity
  else begin
    let s = (e.volume /. d) ** e.inv_n in
    let l00 = l00 *. s and l01 = l01 *. s and l10 = l10 *. s
    and l11 = l11 *. s in
    let lr = e.lr and x = e.extents in
    lr.(0) <- l00;
    lr.(1) <- l01;
    lr.(2) <- l10;
    lr.(3) <- l11;
    let pen = excess 0.0 (0.0 +. abs_float l00 +. abs_float l10) x.(0) in
    let pen = excess pen (0.0 +. abs_float l01 +. abs_float l11) x.(1) in
    objective2 e *. (1.0 +. (100.0 *. pen))
  end

let probe3 e l =
  let l00 = l.(0) and l01 = l.(1) and l02 = l.(2) in
  let l10 = l.(3) and l11 = l.(4) and l12 = l.(5) in
  let l20 = l.(6) and l21 = l.(7) and l22 = l.(8) in
  let d = abs_float (det3 l00 l01 l02 l10 l11 l12 l20 l21 l22) in
  if d < 1e-9 then infinity
  else begin
    let s = (e.volume /. d) ** e.inv_n in
    let l00 = l00 *. s and l01 = l01 *. s and l02 = l02 *. s in
    let l10 = l10 *. s and l11 = l11 *. s and l12 = l12 *. s in
    let l20 = l20 *. s and l21 = l21 *. s and l22 = l22 *. s in
    let lr = e.lr and x = e.extents in
    lr.(0) <- l00;
    lr.(1) <- l01;
    lr.(2) <- l02;
    lr.(3) <- l10;
    lr.(4) <- l11;
    lr.(5) <- l12;
    lr.(6) <- l20;
    lr.(7) <- l21;
    lr.(8) <- l22;
    let col a b c = 0.0 +. abs_float a +. abs_float b +. abs_float c in
    let pen = excess 0.0 (col l00 l10 l20) x.(0) in
    let pen = excess pen (col l01 l11 l21) x.(1) in
    let pen = excess pen (col l02 l12 l22) x.(2) in
    objective3 e *. (1.0 +. (100.0 *. pen))
  end

let probe e l =
  match e.n with
  | 2 -> probe2 e l
  | 3 -> probe3 e l
  | _ ->
      if renormalize_into e l then
        objective_generic e *. (1.0 +. (100.0 *. penalty_generic e))
      else infinity

(* Theorem 2 at the flat [m], not renormalized. *)
let objective_at e m =
  Array.blit m 0 e.lr 0 (Array.length m);
  objective_lr e

let flatten l = Array.concat (Array.to_list l)

let objective cost l =
  match engine cost ~nprocs:1 with
  | None -> infinity
  | Some e -> objective_at e (flatten l)

let search_objective cost ~nprocs l =
  match engine cost ~nprocs with
  | None -> infinity
  | Some e -> probe e (flatten l)

(* [l] with entry [idx] set to [t] for one probe. *)
let[@inline] probe_at e l idx t =
  let base = l.(idx) in
  l.(idx) <- t;
  let v = probe e l in
  l.(idx) <- base;
  v

(* Golden-section over one entry of L; all evaluations renormalize the
   determinant, so the search is effectively over tile shape.  [cur] is
   the objective at [l]; returns the objective at [l] afterwards. *)
let refine_entry e l idx cur =
  let base = l.(idx) in
  let width = 2.0 +. (2.0 *. abs_float base) in
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let a = ref (base -. width) and b = ref (base +. width) in
  let c = ref (!b -. (phi *. (!b -. !a))) in
  let d = ref (!a +. (phi *. (!b -. !a))) in
  let fc = ref (probe_at e l idx !c) and fd = ref (probe_at e l idx !d) in
  for _ = 1 to 60 do
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (phi *. (!b -. !a));
      fc := probe_at e l idx !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (phi *. (!b -. !a));
      fd := probe_at e l idx !d
    end
  done;
  let t = (!a +. !b) /. 2.0 in
  let ft = probe_at e l idx t in
  if ft < cur -. 1e-12 then begin
    l.(idx) <- t;
    ft
  end
  else cur

let descend e l =
  let cur = ref (probe e l) in
  let prev = ref infinity in
  let continue = ref true in
  let rounds = ref 0 in
  while !continue && !rounds < 25 do
    for idx = 0 to Array.length l - 1 do
      cur := refine_entry e l idx !cur
    done;
    let v = !cur in
    if !prev -. v < 1e-7 *. (1.0 +. abs_float v) then continue := false;
    prev := v;
    incr rounds
  done;
  !prev

(* A positive diagonal L is a rectangle, and takes the box paths; any
   other L stays a parallelepiped (a negative or permuted diagonal moves
   the tile partition or its owners). *)
let tile_of li =
  let n = Imat.rows li in
  let diagonal = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v = Imat.get li i j in
      if (i = j && v <= 0) || (i <> j && v <> 0) then diagonal := false
    done
  done;
  if !diagonal then Tile.rect (Array.init n (fun i -> Imat.get li i i))
  else Tile.pped li

let optimize cost ~nprocs =
  match engine cost ~nprocs with
  | None -> None
  | Some e -> (
      let n = e.n in
      let rect_sizes =
        Rectangular.continuous_optimum cost ~volume:e.volume
          ~extents:(Nest.extents cost.Cost.nest)
      in
      let diag_start =
        Array.init (n * n) (fun x ->
            if x / n = x mod n then rect_sizes.(x / n) else 0.0)
      in
      let skew_starts =
        (* Unit skews of the rectangular start in every off-diagonal
           direction and orientation. *)
        List.concat_map
          (fun (i, j) ->
            List.map
              (fun sgn ->
                let m = Array.copy diag_start in
                m.((i * n) + j) <- sgn *. rect_sizes.(i);
                m)
              [ 1.0; -1.0 ])
          (List.concat_map
             (fun i ->
               List.filter_map
                 (fun j -> if i <> j then Some (i, j) else None)
                 (List.init n Fun.id))
             (List.init n Fun.id))
      in
      let best = ref None in
      List.iter
        (fun start ->
          let l = Array.copy start in
          let v = descend e l in
          match !best with
          | Some (_, bv) when bv <= v -> ()
          | _ -> best := Some (l, v))
        (diag_start :: skew_starts);
      match !best with
      | None -> None
      | Some (l, continuous_cost) ->
          let l = if renormalize_into e l then Array.copy e.lr else l in
          (* Round entries; small entries snap to the nearest integer,
             then the result is checked for nonsingularity. *)
          if not (renormalize_into e l) then None
          else
            let li =
              Imat.make n n (fun i j ->
                  int_of_float (Float.round e.lr.((i * n) + j)))
            in
            if Imat.det li = 0 then None
            else
              let rounded_cost =
                objective_at e
                  (Array.init (n * n) (fun x ->
                       float_of_int (Imat.get li (x / n) (x mod n))))
              in
              let rect = objective_at e diag_start in
              Some
                {
                  l = li;
                  tile = tile_of li;
                  continuous_l = Array.init n (fun i -> Array.sub l (i * n) n);
                  continuous_cost;
                  rounded_cost;
                  rect_cost = rect;
                  improves_on_rect = rounded_cost < rect -. 1e-6;
                })

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>L =@,%a@,continuous cost: %.2f@,rounded cost: %.2f@,best \
     rectangular cost: %.2f@,parallelepiped improves: %b@]"
    Imat.pp r.l r.continuous_cost r.rounded_cost r.rect_cost
    r.improves_on_rect
