open Loopir

type box = (int * int) array

type shape = Copy | Stencil5 | Generic

let shape_name = function
  | Copy -> "copy"
  | Stencil5 -> "stencil5"
  | Generic -> "generic"

type plan = {
  compiled : Exec.compiled;
  nesting : int;
  bounds : (int * int) array;  (** the iteration space *)
  order : int array;  (** traversal order, outermost first *)
  reorderable : bool;
  shape : shape;
  refs : Exec.cref array;  (** the reads, then the writes *)
  delta : int array array;
      (** per reference, its address delta along each traversal axis *)
  rd : int array;  (** innermost read deltas *)
  wd : int array;  (** innermost write deltas *)
  acc : bool array;  (** per write, whether it accumulates *)
}

let compiled p = p.compiled
let order p = Array.copy p.order
let reorderable p = p.reorderable
let shape p = shape_name p.shape

(* ------------------------------------------------------------------ *)
(* Traversal-order safety analysis                                     *)
(* ------------------------------------------------------------------ *)

let same_map (r : Exec.cref) (w : Exec.cref) =
  r.Exec.c = w.Exec.c && r.Exec.m = w.Exec.m

(* Sufficient mixed-radix condition for the address map [i -> c + m.i]
   to be injective over the full iteration space (hence over any box):
   sorting the moving axes by |m_k|, each stride must exceed the total
   span the smaller axes can cover. *)
let injective_on_space (r : Exec.cref) (extents : int array) =
  let moving = ref [] in
  Array.iteri
    (fun k m -> if m <> 0 && extents.(k) > 1 then moving := (abs m, k) :: !moving)
    r.Exec.m;
  let axes = List.sort compare !moving in
  let ok = ref true in
  let span = ref 0 in
  List.iter
    (fun (m, k) ->
      if m <= !span then ok := false;
      span := !span + (m * (extents.(k) - 1)))
    axes;
  !ok

(* Axes the reference is constant along (and that actually move): the
   same-address fiber directions.  If more than one, permuting the loop
   order permutes the fiber visit order, which reorders floating-point
   read-modify-writes. *)
let fiber_axes (r : Exec.cref) (extents : int array) =
  let n = ref 0 in
  Array.iteri
    (fun k m -> if m = 0 && extents.(k) > 1 then incr n)
    r.Exec.m;
  !n

(* Reordering the tile traversal is bit-exact iff (conservatively):
   every write-like reference is injective over the moving axes and has
   at most one fiber axis (so read-modify-write chains per address run
   along a single loop axis, whose order any permutation preserves);
   every read either touches an address range disjoint from every write
   or is the write's own per-iteration location; and distinct writes
   don't alias each other except through the identical index map. *)
let analyze_reorderable reads writes bounds extents =
  Array.for_all
    (fun ((w : Exec.cref), _) ->
      injective_on_space w extents && fiber_axes w extents <= 1)
    writes
  && Array.for_all
       (fun (r : Exec.cref) ->
         Array.for_all
           (fun ((w : Exec.cref), _) ->
             same_map r w
             || Exec.disjoint
                  (Exec.addr_interval r bounds)
                  (Exec.addr_interval w bounds))
           writes)
       reads
  && Array.for_all
       (fun ((w1 : Exec.cref), _) ->
         Array.for_all
           (fun ((w2 : Exec.cref), _) ->
             w1 == w2 || same_map w1 w2
             || Exec.disjoint
                  (Exec.addr_interval w1 bounds)
                  (Exec.addr_interval w2 bounds))
           writes)
       writes

(* Innermost axis choice: the axis along which the most references move
   with unit address stride (row-major spatial locality), restricted to
   axes that actually iterate.  Ties keep the natural innermost axis. *)
let choose_order ~nesting ~reorderable reads writes extents =
  let default = Array.init nesting Fun.id in
  if (not reorderable) || nesting <= 1 then default
  else begin
    let score = Array.make nesting 0 in
    let count (r : Exec.cref) =
      Array.iteri
        (fun k m -> if abs m = 1 && extents.(k) > 1 then score.(k) <- score.(k) + 1)
        r.Exec.m
    in
    Array.iter count reads;
    Array.iter (fun (w, _) -> count w) writes;
    let best = ref (nesting - 1) in
    for k = nesting - 2 downto 0 do
      if score.(k) > score.(!best) then best := k
    done;
    if !best = nesting - 1 then default
    else begin
      let rest =
        Array.to_list default |> List.filter (fun k -> k <> !best)
      in
      Array.of_list (rest @ [ !best ])
    end
  end

let is_permutation o n =
  Array.length o = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun k ->
      k >= 0 && k < n && not seen.(k) && (seen.(k) <- true; true))
    o

let detect_shape (reads : Exec.cref array) writes =
  match (Array.length reads, writes) with
  | 1, [| (_, false) |] -> Copy
  | 5, [| (_, false) |]
    when Array.for_all (fun (r : Exec.cref) -> r.Exec.m = reads.(0).Exec.m) reads
    ->
      (* Equal index maps let the five reads share one cursor with
         constant offsets - the defining property of a stencil. *)
      Stencil5
  | _ -> Generic

let plan ?(force_generic = false) ?order compiled =
  let nest = Exec.nest compiled in
  let nesting = Nest.nesting nest in
  let bounds = Nest.bounds nest in
  let extents = Nest.extents nest in
  let reads = Exec.reads compiled in
  let writes = Exec.writes compiled in
  let reorderable = analyze_reorderable reads writes bounds extents in
  let order =
    match order with
    | Some o ->
        if not (is_permutation o nesting) then
          invalid_arg "Kernel.plan: order is not a permutation of the axes";
        Array.copy o
    | None -> choose_order ~nesting ~reorderable reads writes extents
  in
  let shape = if force_generic then Generic else detect_shape reads writes in
  (* Everything a box needs besides its corner addresses. *)
  let refs = Array.append reads (Array.map fst writes) in
  let innermost (r : Exec.cref) = r.Exec.m.(order.(nesting - 1)) in
  {
    compiled;
    nesting;
    bounds;
    order;
    reorderable;
    shape;
    refs;
    delta =
      Array.map (fun (r : Exec.cref) -> Array.map (fun k -> r.Exec.m.(k)) order) refs;
    rd = Array.map innermost reads;
    wd = Array.map (fun (w, _) -> innermost w) writes;
    acc = Array.map snd writes;
  }

(* Per-axis address delta of each body reference, in original axis
   order: exactly the [m] vector of the compiled reference. *)
let strides p =
  (* The next read's and the next write's index in [refs]. *)
  let next = [| 0; Array.length p.rd |] in
  List.map
    (fun (r : Reference.t) ->
      let w = Bool.to_int (Reference.is_write_like r) in
      next.(w) <- next.(w) + 1;
      (r, Array.copy p.refs.(next.(w) - 1).Exec.m))
    (Exec.nest p.compiled).Nest.body

(* ------------------------------------------------------------------ *)
(* Box execution                                                       *)
(* ------------------------------------------------------------------ *)

let box_volume = Exec.box_volume

(* The specialized inner loops.  Every variant advances the references'
   running addresses by their innermost-axis deltas - no per-iteration
   address recomputation - and must reproduce the interpreter's value
   semantics bit for bit: reads summed in body order, [+. 1.0], stores
   (or in-place adds) through every write in body order. *)

let inner_copy (data : float array) ~n ~dr ~dw r0 w0 =
  let r = ref r0 and w = ref w0 in
  for _ = 1 to n do
    Array.unsafe_set data !w (Array.unsafe_get data !r +. 1.0);
    r := !r + dr;
    w := !w + dw
  done

(* The five reads share one index map (shape precondition), so their
   mutual offsets are constant over the box: one bumped cursor and four
   fixed displacements replace five independent address streams. *)
let inner_stencil5 (data : float array) ~n ~d ~dw ~o1 ~o2 ~o3 ~o4 b0 w0 =
  let b = ref b0 and w = ref w0 in
  for _ = 1 to n do
    let base = !b in
    Array.unsafe_set data !w
      (Array.unsafe_get data base
      +. Array.unsafe_get data (base + o1)
      +. Array.unsafe_get data (base + o2)
      +. Array.unsafe_get data (base + o3)
      +. Array.unsafe_get data (base + o4)
      +. 1.0);
    b := base + d;
    w := !w + dw
  done

(* Generic fallback: running addresses live in scratch arrays bumped in
   place - one add per reference per iteration, against the
   interpreter's O(nesting) multiply-add per reference.  The cursor
   bump is fused into the read-sum pass (one sweep over the cursor
   array per iteration, not two), and the overwhelmingly common
   single-write body gets its own variant with the accumulate dispatch
   and the write cursor hoisted out of the array. *)
let inner_generic1 (data : float array) ~n ~nr ~(rd : int array) ~dw
    ~is_acc (ra : int array) w0 =
  let w = ref w0 in
  for _ = 1 to n do
    let s = ref 0.0 in
    for i = 0 to nr - 1 do
      let a = Array.unsafe_get ra i in
      s := !s +. Array.unsafe_get data a;
      Array.unsafe_set ra i (a + Array.unsafe_get rd i)
    done;
    let v = !s +. 1.0 in
    let a = !w in
    if is_acc then Array.unsafe_set data a (Array.unsafe_get data a +. v)
    else Array.unsafe_set data a v;
    w := !w + dw
  done

(* Arity-unrolled single-write variants: same shape-agnostic bumped
   cursors, but held in registers instead of a scratch array once the
   read count is known.  Kills the per-read loop control and the cursor
   array traffic, which dominate [inner_generic1] for short bodies. *)
let inner_gen2 (data : float array) ~n ~(rd : int array) ~dw ~is_acc
    (ra : int array) w0 =
  let r0 = ref ra.(0) and r1 = ref ra.(1) and w = ref w0 in
  let d0 = rd.(0) and d1 = rd.(1) in
  for _ = 1 to n do
    let v = Array.unsafe_get data !r0 +. Array.unsafe_get data !r1 +. 1.0 in
    let a = !w in
    if is_acc then Array.unsafe_set data a (Array.unsafe_get data a +. v)
    else Array.unsafe_set data a v;
    r0 := !r0 + d0;
    r1 := !r1 + d1;
    w := !w + dw
  done

let inner_gen3 (data : float array) ~n ~(rd : int array) ~dw ~is_acc
    (ra : int array) w0 =
  let r0 = ref ra.(0) and r1 = ref ra.(1) and r2 = ref ra.(2) and w = ref w0 in
  let d0 = rd.(0) and d1 = rd.(1) and d2 = rd.(2) in
  for _ = 1 to n do
    let v =
      Array.unsafe_get data !r0 +. Array.unsafe_get data !r1
      +. Array.unsafe_get data !r2 +. 1.0
    in
    let a = !w in
    if is_acc then Array.unsafe_set data a (Array.unsafe_get data a +. v)
    else Array.unsafe_set data a v;
    r0 := !r0 + d0;
    r1 := !r1 + d1;
    r2 := !r2 + d2;
    w := !w + dw
  done

let inner_gen4 (data : float array) ~n ~(rd : int array) ~dw ~is_acc
    (ra : int array) w0 =
  let r0 = ref ra.(0)
  and r1 = ref ra.(1)
  and r2 = ref ra.(2)
  and r3 = ref ra.(3)
  and w = ref w0 in
  let d0 = rd.(0) and d1 = rd.(1) and d2 = rd.(2) and d3 = rd.(3) in
  for _ = 1 to n do
    let v =
      Array.unsafe_get data !r0 +. Array.unsafe_get data !r1
      +. Array.unsafe_get data !r2 +. Array.unsafe_get data !r3 +. 1.0
    in
    let a = !w in
    if is_acc then Array.unsafe_set data a (Array.unsafe_get data a +. v)
    else Array.unsafe_set data a v;
    r0 := !r0 + d0;
    r1 := !r1 + d1;
    r2 := !r2 + d2;
    r3 := !r3 + d3;
    w := !w + dw
  done

let inner_gen5 (data : float array) ~n ~(rd : int array) ~dw ~is_acc
    (ra : int array) w0 =
  let r0 = ref ra.(0)
  and r1 = ref ra.(1)
  and r2 = ref ra.(2)
  and r3 = ref ra.(3)
  and r4 = ref ra.(4)
  and w = ref w0 in
  let d0 = rd.(0) and d1 = rd.(1) and d2 = rd.(2) and d3 = rd.(3) and d4 = rd.(4) in
  for _ = 1 to n do
    let v =
      Array.unsafe_get data !r0 +. Array.unsafe_get data !r1
      +. Array.unsafe_get data !r2 +. Array.unsafe_get data !r3
      +. Array.unsafe_get data !r4 +. 1.0
    in
    let a = !w in
    if is_acc then Array.unsafe_set data a (Array.unsafe_get data a +. v)
    else Array.unsafe_set data a v;
    r0 := !r0 + d0;
    r1 := !r1 + d1;
    r2 := !r2 + d2;
    r3 := !r3 + d3;
    r4 := !r4 + d4;
    w := !w + dw
  done

let inner_generic (data : float array) ~n ~nr ~nw ~(rd : int array)
    ~(wd : int array) ~(acc : bool array) (ra : int array) (wa : int array) =
  for _ = 1 to n do
    let s = ref 0.0 in
    for i = 0 to nr - 1 do
      let a = Array.unsafe_get ra i in
      s := !s +. Array.unsafe_get data a;
      Array.unsafe_set ra i (a + Array.unsafe_get rd i)
    done;
    let v = !s +. 1.0 in
    for i = 0 to nw - 1 do
      let a = Array.unsafe_get wa i in
      (if Array.unsafe_get acc i then
         Array.unsafe_set data a (Array.unsafe_get data a +. v)
       else Array.unsafe_set data a v);
      Array.unsafe_set wa i (a + Array.unsafe_get wd i)
    done
  done

(* One innermost row of [n] iterations from the running addresses [a]
   (the reads', then the writes'), which it does not mutate; the
   generic loops bump copies in the scratch arrays [ras] and [was]. *)
let row p (data : float array) ~n ~ras ~was (a : int array) =
  let rd = p.rd and wd = p.wd in
  let nr = Array.length rd and nw = Array.length wd in
  match p.shape with
  | Copy -> inner_copy data ~n ~dr:rd.(0) ~dw:wd.(0) a.(0) a.(1)
  | Stencil5 ->
      let b = a.(0) in
      inner_stencil5 data ~n ~d:rd.(0) ~dw:wd.(0) ~o1:(a.(1) - b)
        ~o2:(a.(2) - b) ~o3:(a.(3) - b) ~o4:(a.(4) - b) b a.(5)
  | Generic -> (
      if nw <> 1 then begin
        Array.blit a 0 ras 0 nr;
        Array.blit a nr was 0 nw;
        inner_generic data ~n ~nr ~nw ~rd ~wd ~acc:p.acc ras was
      end
      else
        let dw = wd.(0) and is_acc = p.acc.(0) in
        match nr with
        | 2 -> inner_gen2 data ~n ~rd ~dw ~is_acc a a.(nr)
        | 3 -> inner_gen3 data ~n ~rd ~dw ~is_acc a a.(nr)
        | 4 -> inner_gen4 data ~n ~rd ~dw ~is_acc a a.(nr)
        | 5 -> inner_gen5 data ~n ~rd ~dw ~is_acc a a.(nr)
        | _ ->
            Array.blit a 0 ras 0 nr;
            inner_generic1 data ~n ~nr ~rd ~dw ~is_acc ras a.(nr))

(* Traversal axes [k..] of the box from the running addresses, which
   are restored on return. *)
let rec rows p data b ~ras ~was a k =
  let lo, hi = b.(p.order.(k)) in
  let ext = hi - lo + 1 in
  if k = p.nesting - 1 then row p data ~n:ext ~ras ~was a
  else if ext = 1 then rows p data b ~ras ~was a (k + 1)
  else begin
    for _ = 1 to ext do
      rows p data b ~ras ~was a (k + 1);
      for i = 0 to Array.length a - 1 do
        a.(i) <- a.(i) + p.delta.(i).(k)
      done
    done;
    for i = 0 to Array.length a - 1 do
      a.(i) <- a.(i) - (ext * p.delta.(i).(k))
    done
  end

(* The box-independent state lives in the plan; one application to the
   operands allocates the corner-address and scratch arrays every box
   then reuses. *)
let run_box p (data : Exec.storage) =
  let nr = Array.length p.rd and nw = Array.length p.wd in
  let ras = Array.make nr 0 and was = Array.make nw 0 in
  let a = Array.make (nr + nw) 0 in
  fun (b : box) ->
    if Array.length b <> p.nesting then
      invalid_arg "Kernel.run_box: box arity mismatch";
    (* Box loops are unchecked: a non-empty box reaching outside the
       iteration space would address outside the operand buffer. *)
    if not (Exec.in_space p.bounds b) then
      invalid_arg "Kernel: box outside the iteration space";
    if Exec.box_volume b > 0 then begin
      for i = 0 to Array.length a - 1 do
        let r = p.refs.(i) in
        a.(i) <- r.Exec.c;
        for k = 0 to p.nesting - 1 do
          a.(i) <- a.(i) + (r.Exec.m.(k) * fst b.(k))
        done
      done;
      rows p data b ~ras ~was a 0
    end

(* ------------------------------------------------------------------ *)
(* Schedules and parallel execution                                    *)
(* ------------------------------------------------------------------ *)

let boxes_of_schedule sched =
  let open Partition in
  let ranges = Codegen.rect_tile_ranges sched in
  let n = sched.Codegen.nprocs in
  let own = Codegen.owner sched in
  let by = Array.make n [] in
  List.iter
    (fun (b : box) ->
      let corner = Array.map fst b in
      let p = own corner in
      by.(p) <- b :: by.(p))
    ranges;
  Array.map (fun l -> Array.of_list (List.rev l)) by

(* A one-point box takes the interpreter's body: it costs less than the
   corner addresses and the row recursion of [run_box]. *)
let run_tile p storage =
  let box = run_box p storage and interpret = Exec.run_tile p.compiled storage in
  let body = Exec.exec_point p.compiled storage
  and point = Array.make p.nesting 0 in
  function
  | Exec.Box b when Array.length b = p.nesting && Exec.box_volume b = 1 ->
      for k = 0 to p.nesting - 1 do
        point.(k) <- fst b.(k)
      done;
      body point
  | Exec.Box b -> box b
  | Exec.Points _ as t -> interpret t

let one_pass ?trace pool p storage ~boxes ~steps ~seconds ~iterations =
  let owned =
    Array.to_list boxes
    |> List.mapi (fun o -> Array.map (fun b -> (o, Exec.Box b)))
    |> Array.concat
  in
  Exec.one_pass ?trace ~runner:(run_tile p) pool p.compiled storage
    (Exec.Tiled { tiles = Array.map snd owned; owners = Array.map fst owned })
    ~steps ~seconds ~iterations

let sequential p ~steps =
  let storage = Exec.alloc p.compiled in
  for _step = 1 to steps do
    run_box p storage p.bounds
  done;
  storage
