type mode = Auto | Exact | Bloom of int

(* 16M elements = a 2 MiB bitset per domain: cheap enough to default. *)
let exact_limit = 1 lsl 24

let default_bloom_bits = 1 lsl 22
let bloom_hashes = 4

(* Each instrument is owned by one domain but all of them are allocated
   by the coordinating domain, back to back on the heap.  A guard region
   on both sides of the payload keeps the bytes two domains hammer from
   ever sharing a cache line, so the instrumented pass does not serialize
   on false sharing at the object boundaries. *)
let pad = 128

type touched =
  | Bitset of { bits : Bytes.t; len : int; universe : int }
      (** payload is [bits.[pad .. pad+len-1]] *)
  | Filter of { bits : Bytes.t; len : int; m : int; universe : int }

let padded len = Bytes.make (len + (2 * pad)) '\000'

let touched mode ~universe =
  if universe < 0 then invalid_arg "Measure.touched: negative universe";
  let bitset n =
    let len = (n + 7) / 8 in
    Bitset { bits = padded len; len; universe }
  in
  let bloom bits =
    let bits = max 64 bits in
    let len = (bits + 7) / 8 in
    Filter { bits = padded len; len; m = len * 8; universe }
  in
  match mode with
  | Exact -> bitset universe
  | Bloom bits -> bloom bits
  | Auto -> if universe <= exact_limit then bitset universe else bloom default_bloom_bits

let universe_of = function
  | Bitset { universe; _ } | Filter { universe; _ } -> universe

let out_of_universe fn addr t =
  invalid_arg
    (Printf.sprintf "Measure.%s: address %d outside [0, %d)" fn addr
       (universe_of t))

let set_bit bytes i =
  let byte = pad + (i lsr 3) and mask = 1 lsl (i land 7) in
  let old = Char.code (Bytes.unsafe_get bytes byte) in
  if old land mask = 0 then
    Bytes.unsafe_set bytes byte (Char.unsafe_chr (old lor mask))

(* Bits [lo .. hi]: the partial bytes at either end bit by bit, the
   whole bytes between them in one fill. *)
let fill_bits bytes lo hi =
  let first = (lo + 7) lsr 3 and stop = (hi + 1) lsr 3 in
  if first >= stop then
    for i = lo to hi do
      set_bit bytes i
    done
  else begin
    for i = lo to (first lsl 3) - 1 do
      set_bit bytes i
    done;
    Bytes.fill bytes (pad + first) (stop - first) '\255';
    for i = stop lsl 3 to hi do
      set_bit bytes i
    done
  end

(* Two multiplicative mixes drive [bloom_hashes] probes by double
   hashing (Kirsch-Mitzenmacher). *)
let mix1 x =
  let x = x * 0x9E3779B97F4A7C1 in
  x lxor (x lsr 29)

let mix2 x =
  let x = (x + 0x165667B19E3779F9) * 0xC2B2AE3D27D4EB5 in
  x lxor (x lsr 32)

let bloom_add bits m addr =
  let h1 = mix1 addr and h2 = mix2 addr lor 1 in
  for i = 0 to bloom_hashes - 1 do
    let h = (h1 + (i * h2)) land max_int in
    set_bit bits (h mod m)
  done

(* Range checks guard the unchecked byte accesses: an address past the
   universe would land in the padding or beyond the buffer. *)
let touch t addr =
  if addr < 0 || addr >= universe_of t then out_of_universe "touch" addr t;
  match t with
  | Bitset { bits; _ } -> set_bit bits addr
  | Filter { bits; m; _ } -> bloom_add bits m addr

let touch_run t ~start ~stride ~len =
  if len < 0 then invalid_arg "Measure.touch_run: negative len";
  if len > 0 then begin
    (* The mirrored run covers the same addresses with a positive stride. *)
    let start, stride =
      if stride < 0 then (start + ((len - 1) * stride), -stride)
      else (start, stride)
    in
    let len = if stride = 0 then 1 else len in
    let universe = universe_of t in
    if start < 0 || start >= universe then out_of_universe "touch_run" start t;
    (* [start + (len-1) * stride < universe] without overflowing. *)
    if stride > 0 && len - 1 > (universe - 1 - start) / stride then
      out_of_universe "touch_run" (start + ((len - 1) * stride)) t;
    match t with
    | Bitset { bits; _ } when stride = 1 -> fill_bits bits start (start + len - 1)
    | Bitset { bits; _ } ->
        for k = 0 to len - 1 do
          set_bit bits (start + (k * stride))
        done
    | Filter { bits; m; _ } ->
        for k = 0 to len - 1 do
          bloom_add bits m (start + (k * stride))
        done
  end

let get_bit bytes i =
  Char.code (Bytes.unsafe_get bytes (pad + (i lsr 3))) land (1 lsl (i land 7))
  <> 0

let mem t addr =
  match t with
  | Bitset { bits; universe; _ } ->
      if addr < 0 || addr >= universe then out_of_universe "mem" addr t;
      get_bit bits addr
  | Filter _ -> invalid_arg "Measure.mem: not an exact set"

let popcount_byte = Array.init 256 (fun b ->
    let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
    go b 0)

(* Distinct elements behind [ones] set bits of [t]'s payload: the bits
   themselves for an exact set, the Bloom cardinality estimate for a
   filter. *)
let count_of_ones t ones =
  match t with
  | Bitset _ -> ones
  | Filter { m; _ } ->
      if ones >= m then max_int
      else
        let m = float_of_int m and x = float_of_int ones in
        let est =
          -.(m /. float_of_int bloom_hashes) *. log (1.0 -. (x /. m))
        in
        int_of_float (Float.round est)

let bytes_of = function
  | Bitset { bits; len; _ } | Filter { bits; len; _ } -> (bits, len)

let is_exact = function Bitset _ -> true | Filter _ -> false

(* Popcount of the byte-wise OR, formed in a register per byte: no
   merged copy of the sets is built. *)
let union_count ts =
  if Array.length ts = 0 then 0
  else begin
    let _, len = bytes_of ts.(0) in
    let sets =
      Array.map
        (fun t ->
          if is_exact t <> is_exact ts.(0) || snd (bytes_of t) <> len then
            invalid_arg "Measure.union_count: mismatched sets";
          fst (bytes_of t))
        ts
    in
    let total = ref 0 in
    for j = pad to pad + len - 1 do
      let byte = ref 0 in
      for s = 0 to Array.length sets - 1 do
        byte := !byte lor Char.code (Bytes.unsafe_get sets.(s) j)
      done;
      total := !total + popcount_byte.(!byte)
    done;
    count_of_ones ts.(0) !total
  end

let touched_count t = union_count [| t |]

type domain_stat = {
  domain : int;
  iterations : int;
  seconds : float;
  footprint : int;
}

type raw = {
  wall_seconds : float;
  seconds : float array;
  iterations : int array;
  footprints : int array;
  exact_footprints : bool;
  distinct_total : int;
  checksum : float;
}

type report = {
  name : string;
  policy : string;
  nprocs : int;
  steps : int;
  repeats : int;
  total_elements : int;
  predicted_per_domain : int option;
  prediction_is_bound : bool;
  per_domain : domain_stat array;
  wall_seconds : float;
  distinct_total : int;
  exact_footprints : bool;
  checksum : float;
}

let report ~name ~policy ~steps ~repeats ~total_elements ?predicted_per_domain
    ?(prediction_is_bound = false) (raw : raw) =
  let nprocs = Array.length raw.seconds in
  {
    name;
    policy;
    nprocs;
    steps;
    repeats;
    total_elements;
    predicted_per_domain;
    prediction_is_bound;
    per_domain =
      Array.init nprocs (fun p ->
          {
            domain = p;
            iterations = raw.iterations.(p);
            seconds = raw.seconds.(p);
            footprint = raw.footprints.(p);
          });
    wall_seconds = raw.wall_seconds;
    distinct_total = raw.distinct_total;
    exact_footprints = raw.exact_footprints;
    checksum = raw.checksum;
  }

let max_footprint r =
  Array.fold_left (fun acc d -> max acc d.footprint) 0 r.per_domain

let pp_report ppf r =
  Format.fprintf ppf "@[<v>=== %s: %s on %d domain%s" r.name r.policy r.nprocs
    (if r.nprocs = 1 then "" else "s");
  if r.steps > 1 then Format.fprintf ppf ", %d sequential steps" r.steps;
  Format.fprintf ppf " (min of %d run%s) ===@," r.repeats
    (if r.repeats = 1 then "" else "s");
  Format.fprintf ppf "%-8s %12s %12s %12s@," "domain" "time (ms)" "iterations"
    (if r.exact_footprints then "footprint" else "footprint~");
  Array.iter
    (fun d ->
      Format.fprintf ppf "%-8d %12.3f %12d %12d@," d.domain
        (d.seconds *. 1000.0) d.iterations d.footprint)
    r.per_domain;
  Format.fprintf ppf "wall: %.3f ms; distinct elements touched: %d of %d@,"
    (r.wall_seconds *. 1000.0)
    r.distinct_total r.total_elements;
  (match r.predicted_per_domain with
  | Some predicted ->
      Format.fprintf ppf
        "model %s footprint/domain: %d; measured max: %d (%.2fx)@,"
        (if r.prediction_is_bound then "whole-tile upper bound on"
         else "predicted")
        predicted (max_footprint r)
        (if predicted = 0 then Float.nan
         else float_of_int (max_footprint r) /. float_of_int predicted)
  | None ->
      Format.fprintf ppf "no model prediction for this policy@,");
  Format.fprintf ppf "checksum: %.6g@]" r.checksum
