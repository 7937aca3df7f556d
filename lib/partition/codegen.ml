open Intmath
open Matrixkit
open Loopir

type schedule = {
  nest : Nest.t;
  tile : Tile.t;
  nprocs : int;
  origin : Ivec.t;
}

let make nest tile ~nprocs =
  if nprocs < 1 then invalid_arg "Codegen.make: nprocs < 1";
  if Tile.nesting tile <> Nest.nesting nest then
    invalid_arg "Codegen.make: tile/nest dimension mismatch";
  let origin = Array.map fst (Nest.bounds nest) in
  { nest; tile; nprocs; origin }

let tile_id s =
  let coords = Tile.tile_coords s.tile in
  fun (i : Ivec.t) -> coords (Ivec.sub i s.origin)

(* Bounding box of tile coordinates, derived from the iteration-space
   corners: tile coordinates are the floor of a linear map, so corner
   coordinates bound all others. *)
let coord_box s =
  let bounds = Nest.bounds s.nest in
  let n = Array.length bounds in
  let rec corners k acc =
    if k = n then [ Array.of_list (List.rev acc) ]
    else
      let lo, hi = bounds.(k) in
      corners (k + 1) (lo :: acc) @ corners (k + 1) (hi :: acc)
  in
  let lo = Array.make n max_int and hi = Array.make n min_int in
  let id = tile_id s in
  List.iter
    (fun c ->
      let t = id c in
      Array.iteri
        (fun k v ->
          if v < lo.(k) then lo.(k) <- v;
          if v > hi.(k) then hi.(k) <- v)
        t)
    (corners 0 []);
  (lo, hi)

let tile_index s =
  let lo, hi = coord_box s in
  let radix = Array.mapi (fun k h -> h - lo.(k) + 1) hi in
  let id = tile_id s in
  fun i ->
    let acc = ref 0 in
    Array.iteri (fun k c -> acc := (!acc * radix.(k)) + (c - lo.(k))) (id i);
    !acc

(* Partial application [owner s] precomputes the coordinate box and the
   inverse tile matrix; reuse the closure when classifying many
   iterations. *)
let owner s =
  let index = tile_index s in
  fun i ->
    let t = index i mod s.nprocs in
    if t < 0 then t + s.nprocs else t

let num_tiles s =
  match s.tile with
  | Tile.Rect sizes ->
      let extents = Nest.extents s.nest in
      Array.to_list extents
      |> List.mapi (fun k n -> Int_math.ceil_div n sizes.(k))
      |> Int_math.prod
  | Tile.Pped _ ->
      let seen = Hashtbl.create 97 in
      let bounds = Nest.bounds s.nest in
      let n = Array.length bounds in
      let point = Array.make n 0 in
      let index = tile_index s in
      let rec scan k =
        if k = n then Hashtbl.replace seen (index point) ()
        else
          let lo, hi = bounds.(k) in
          for v = lo to hi do
            point.(k) <- v;
            scan (k + 1)
          done
      in
      scan 0;
      Hashtbl.length seen

let iterations_by_proc s =
  let out = Array.make s.nprocs [] in
  let own = owner s in
  let bounds = Nest.bounds s.nest in
  let n = Array.length bounds in
  let point = Array.make n 0 in
  let rec scan k =
    if k = n then begin
      let p = own point in
      out.(p) <- Array.copy point :: out.(p)
    end
    else
      let lo, hi = bounds.(k) in
      for v = lo to hi do
        point.(k) <- v;
        scan (k + 1)
      done
  in
  scan 0;
  Array.map List.rev out

let rect_tile_ranges s =
  match s.tile with
  | Tile.Pped _ -> invalid_arg "Codegen.rect_tile_ranges: not rectangular"
  | Tile.Rect sizes ->
      let bounds = Nest.bounds s.nest in
      let n = Array.length bounds in
      let counts =
        Array.mapi
          (fun k (lo, hi) -> Int_math.ceil_div (hi - lo + 1) sizes.(k))
          bounds
      in
      let rec go k acc =
        if k = n then [ Array.of_list (List.rev acc) ]
        else
          List.concat_map
            (fun t ->
              let lo, hi = bounds.(k) in
              let tlo = lo + (t * sizes.(k)) in
              let thi = min hi (tlo + sizes.(k) - 1) in
              go (k + 1) ((tlo, thi) :: acc))
            (List.init counts.(k) Fun.id)
      in
      go 0 []

let emit_pseudocode s =
  let buf = Buffer.create 256 in
  let vars = Nest.vars s.nest in
  (match s.tile with
  | Tile.Rect sizes ->
      Buffer.add_string buf
        (Printf.sprintf "// SPMD code for %d processors, tile %s\n" s.nprocs
           (Tile.to_string s.tile));
      Buffer.add_string buf "my_tiles = tiles t with linear(t) mod P == me\n";
      Buffer.add_string buf "for t in my_tiles:\n";
      Array.iteri
        (fun k v ->
          Buffer.add_string buf
            (Printf.sprintf "%sfor %s = t%d*%d + %d to min(t%d*%d + %d, %d):\n"
               (String.make (2 * (k + 1)) ' ')
               v k sizes.(k) s.origin.(k) k sizes.(k)
               (s.origin.(k) + sizes.(k) - 1)
               (snd (Nest.bounds s.nest).(k))))
        vars;
      Buffer.add_string buf
        (String.make (2 * (Array.length vars + 1)) ' ' ^ "body\n")
  | Tile.Pped l ->
      Buffer.add_string buf
        (Printf.sprintf
           "// SPMD code for %d processors, parallelepiped tile\n" s.nprocs);
      Buffer.add_string buf (Imat.to_string l);
      Buffer.add_string buf
        "\nfor i in space: if owner(i) == me: body  // via floor(i L^-1)\n");
  Buffer.contents buf

let load_balance s =
  let per = Array.map List.length (iterations_by_proc s) in
  let mn = Array.fold_left min max_int per in
  let mx = Array.fold_left max 0 per in
  let total = Array.fold_left ( + ) 0 per in
  (* More processors than iterations leaves some with nothing; the ratio
     max/average is still well-defined (average > 0 whenever any
     iteration exists), but guard the degenerate empty case so callers
     never see NaN. *)
  let imbalance =
    if total = 0 then 1.0
    else float_of_int mx /. (float_of_int total /. float_of_int s.nprocs)
  in
  (mn, mx, imbalance)
