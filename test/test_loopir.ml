(* Tests for the compiler IR: affine index functions, references, loop
   nests, the DSL, and the surface-syntax parser. *)

open Matrixkit
open Loopir

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Affine                                                              *)
(* ------------------------------------------------------------------ *)

let test_affine_apply () =
  (* Example 1: A(i3+2, 5, i2-1, 4) in a triple nest. *)
  let f =
    Affine.of_rows
      [ [ 0; 0; 0; 0 ]; [ 0; 0; 1; 0 ]; [ 1; 0; 0; 0 ] ]
      [ 2; 5; -1; 4 ]
  in
  Alcotest.(check (array int))
    "apply at (7, 8, 9)" [| 11; 5; 7; 4 |]
    (Affine.apply f [| 7; 8; 9 |]);
  check "nesting" 3 (Affine.nesting f);
  check "dims" 4 (Affine.dims f)

let test_affine_drop_constant_dims () =
  let f =
    Affine.of_rows
      [ [ 0; 0; 0; 0 ]; [ 0; 0; 1; 0 ]; [ 1; 0; 0; 0 ] ]
      [ 2; 5; -1; 4 ]
  in
  let reduced, kept = Affine.drop_constant_dims f in
  Alcotest.(check (list int)) "kept dims" [ 0; 2 ] kept;
  check "reduced dims" 2 (Affine.dims reduced);
  Alcotest.(check (array int))
    "reduced apply" [| 11; 7 |]
    (Affine.apply reduced [| 7; 8; 9 |])

let test_affine_uniformly_generated () =
  let a = Affine.of_rows [ [ 1; 0 ]; [ 0; 1 ] ] [ 0; 0 ] in
  let b = Affine.of_rows [ [ 1; 0 ]; [ 0; 1 ] ] [ 1; -3 ] in
  let c = Affine.of_rows [ [ 2; 0 ]; [ 0; 1 ] ] [ 0; 0 ] in
  checkb "same G" true (Affine.uniformly_generated a b);
  checkb "different G" false (Affine.uniformly_generated a c)

let test_affine_pp () =
  let f = Affine.of_rows [ [ 1; 1 ]; [ 1; -1 ] ] [ 4; 3 ] in
  checks "subscripts" "i+j+4, i-j+3"
    (String.concat ", " (Affine.subscript_strings ~vars:[| "i"; "j" |] f));
  let g = Affine.of_rows [ [ 2 ]; [ 0 ] ] [ 0 ] in
  checks "coefficient" "2i"
    (String.concat ", " (Affine.subscript_strings ~vars:[| "i"; "j" |] g));
  let h = Affine.of_rows [ [ 0 ]; [ 0 ] ] [ 5 ] in
  checks "constant subscript" "5"
    (String.concat ", " (Affine.subscript_strings ~vars:[| "i"; "j" |] h))

(* ------------------------------------------------------------------ *)
(* Nest                                                                *)
(* ------------------------------------------------------------------ *)

let simple_nest () =
  let open Dsl in
  let i = var 0 and j = var 1 in
  nest ~name:"t"
    [ doall "i" 1 10; doall "j" 1 20 ]
    [ write "A" [ i; j ]; read "B" [ i + j; i - j ] ]

let test_nest_basics () =
  let n = simple_nest () in
  check "nesting" 2 (Nest.nesting n);
  check "iterations" 200 (Nest.iterations n);
  Alcotest.(check (array int)) "extents" [| 10; 20 |] (Nest.extents n);
  Alcotest.(check (list string)) "arrays" [ "A"; "B" ] (Nest.arrays n);
  check "refs to B" 1 (List.length (Nest.references_to n "B"))

let test_nest_validation () =
  checkb "duplicate vars rejected" true
    (try
       ignore (Nest.make [ Nest.loop "i" 1 2; Nest.loop "i" 1 2 ] []);
       false
     with Invalid_argument _ -> true);
  checkb "empty bounds rejected" true
    (try
       ignore (Nest.loop "i" 5 4);
       false
     with Invalid_argument _ -> true);
  checkb "wrong G arity rejected" true
    (try
       let bad = Reference.read "X" (Affine.of_rows [ [ 1 ] ] [ 0 ]) in
       ignore (Nest.make [ Nest.loop "i" 1 2; Nest.loop "j" 1 2 ] [ bad ]);
       false
     with Invalid_argument _ -> true)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_nest_pp () =
  let s = Nest.to_string (simple_nest ()) in
  checkb "mentions Doall" true (contains s "Doall (i, 1, 10)");
  checkb "statement form" true (contains s "A[i, j] = B[i+j, i-j]")

(* [Nest.pp] lays the nest out as the cuts of its own vertical box: an
   enclosing box keeps its layout (here, its indentation), and what
   follows the nest starts on the next line. *)
let test_nest_pp_keeps_enclosing_box () =
  let n = simple_nest () in
  let nest_lines =
    String.split_on_char '\n' (String.trim (Nest.to_string n))
  in
  Alcotest.(check (list string))
    "nest lines, then after" (nest_lines @ [ "after" ])
    (String.split_on_char '\n' (Format.asprintf "@[<v>%a@,after@]" Nest.pp n));
  Alcotest.(check (list string))
    "indented by the enclosing box"
    (("before" :: List.map (fun l -> "  " ^ l) nest_lines) @ [ "  after" ])
    (String.split_on_char '\n'
       (Format.asprintf "@[<v 2>before@,%a@,after@]" Nest.pp n))

let test_array_extent_hints () =
  let n = simple_nest () in
  let hints = Nest.array_extent_hints n in
  (match List.assoc_opt "B" hints with
  | None -> Alcotest.fail "B hint missing"
  | Some ext ->
      (* i+j in [2,30], i-j in [-19,9]. *)
      Alcotest.(check (array int)) "B bounding box" [| 29; 29 |] ext);
  match List.assoc_opt "A" hints with
  | None -> Alcotest.fail "A hint missing"
  | Some ext -> Alcotest.(check (array int)) "A bounding box" [| 10; 20 |] ext

(* ------------------------------------------------------------------ *)
(* DSL                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dsl_affine_conversion () =
  let f =
    let open Dsl in
    let i = var 0 and j = var 1 in
    affine_of_exprs ~nesting:2 [ (2 * i) + j - int 3; j + j ]
  in
  Alcotest.(check (array int))
    "apply" [| 4; 10 |]
    (Affine.apply f [| 1; 5 |]);
  (* coefficients collapse: j + j = 2j *)
  Alcotest.(check (array int)) "G column" [| 0; 2 |] (Imat.col (Affine.g f) 1)

let test_dsl_rejects () =
  let open Dsl in
  checkb "out-of-range var" true
    (try
       ignore (affine_of_exprs ~nesting:1 [ var 3 ]);
       false
     with Invalid_argument _ -> true);
  checkb "no subscripts" true
    (try
       ignore (affine_of_exprs ~nesting:1 []);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_example2 () =
  let src =
    "# Example 2 of the paper\n\
     doall i = 101 to 200\n\
     doall j = 1 to 100\n\
     A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]\n"
  in
  let n = Parse.nest_of_string ~name:"ex2" src in
  check "nesting" 2 (Nest.nesting n);
  check "iterations" 10000 (Nest.iterations n);
  check "body size" 3 (List.length n.Nest.body);
  let b_refs = Nest.references_to n "B" in
  check "B refs" 2 (List.length b_refs);
  match b_refs with
  | [ r1; _ ] ->
      Alcotest.(check (array int))
        "first B offset" [| 0; -1 |]
        (Affine.offset r1.Reference.index)
  | _ -> Alcotest.fail "expected two B references"

let test_parse_coefficients () =
  let src = "doall i = 1 to 4\ndoall j = 1 to 4\nC[i,2i,i+2j-1] = D[2*j]\n" in
  let n = Parse.nest_of_string src in
  let c = List.hd (Nest.references_to n "C") in
  Alcotest.(check (array int))
    "C at (1,1)" [| 1; 2; 2 |]
    (Affine.apply c.Reference.index [| 1; 1 |]);
  checkb "C is a write" true (Reference.is_write_like c)

let test_parse_accumulate () =
  let src =
    "doall i = 1 to 4\n\
     doall j = 1 to 4\n\
     doall k = 1 to 4\n\
     l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j]\n"
  in
  let n = Parse.nest_of_string src in
  let c_refs = Nest.references_to n "C" in
  check "C referenced twice" 2 (List.length c_refs);
  checkb "lhs is accumulate" true
    (List.exists
       (fun (r : Reference.t) -> r.Reference.kind = Reference.Accumulate)
       c_refs);
  checkb "rhs C is a read" true
    (List.exists
       (fun (r : Reference.t) -> r.Reference.kind = Reference.Read)
       c_refs)

let test_parse_doseq () =
  let src =
    "doseq t = 1 to 10\ndoall i = 1 to 8\nA[i] = B[i] + B[i+1]\n"
  in
  let n = Parse.nest_of_string src in
  checkb "has seq loop" true (n.Nest.seq <> None);
  check "nesting counts doalls only" 1 (Nest.nesting n)

let test_parse_negative_bounds () =
  let src = "doall i = -3 to 3\nA[i] = B[i+1]\n" in
  let n = Parse.nest_of_string src in
  Alcotest.(check (array int)) "extent" [| 7 |] (Nest.extents n)

let test_parse_errors () =
  let bad srcs =
    List.iter
      (fun src ->
        checkb
          (Printf.sprintf "rejects %S" src)
          true
          (try
             ignore (Parse.nest_of_string src);
             false
           with Parse.Parse_error _ -> true))
      srcs
  in
  bad
    [
      "A[i] = B[i]\n" (* no loops *);
      "doall i = 1 to 10\n" (* no statement *);
      "doall i = 1 to 10\nA[i] = B[q]\n" (* unknown var *);
      "doall i = 1 to 10\nA[i] + B[i]\n" (* no assignment *);
      "doall i = 1 to 10\ndoseq t = 1 to 2\nA[i] = B[i]\n"
      (* doseq must be outermost *);
    ]

let test_expr_of_string () =
  let e = Parse.expr_of_string ~vars:[| "i"; "j" |] "2*i - j + 7" in
  let f = Dsl.affine_of_exprs ~nesting:2 [ e ] in
  Alcotest.(check (array int))
    "eval" [| (2 * 3) - 4 + 7 |]
    (Affine.apply f [| 3; 4 |])

(* ------------------------------------------------------------------ *)
(* Strided loops and normalization                                     *)
(* ------------------------------------------------------------------ *)

let test_strided_values () =
  Alcotest.(check (list int))
    "step 2 values" [ 1; 3; 5; 7 ]
    (Strided.iteration_values (Strided.loop ~step:2 "i" 1 8));
  Alcotest.(check (list int))
    "step 1 values" [ 3; 4; 5 ]
    (Strided.iteration_values (Strided.loop "i" 3 5));
  checkb "step 0 rejected" true
    (try
       ignore (Strided.loop ~step:0 "i" 1 8);
       false
     with Invalid_argument _ -> true)

let strided_example () =
  (* for i = 2 to 10 step 2: A[i] = B[i+1] *)
  let body =
    [
      Reference.write "A" (Affine.of_rows [ [ 1 ] ] [ 0 ]);
      Reference.read "B" (Affine.of_rows [ [ 1 ] ] [ 1 ]);
    ]
  in
  Strided.make ~name:"s" [ Strided.loop ~step:2 "i" 2 10 ] body

let test_strided_normalize_structure () =
  let n = Strided.normalize (strided_example ()) in
  Alcotest.(check (array int)) "extent 5" [| 5 |] (Nest.extents n);
  (* The substituted reference is A[2i' + 2]: non-unimodular G. *)
  let a = List.hd (Nest.references_to n "A") in
  check "G scaled" 2 (Imat.get (Affine.g a.Reference.index) 0 0);
  Alcotest.(check (array int))
    "offset shifted" [| 2 |]
    (Affine.offset a.Reference.index)

let test_strided_normalize_preserves_elements () =
  (* The normalized nest touches exactly the same data elements. *)
  let s = strided_example () in
  let n = Strided.normalize s in
  let original =
    List.concat_map
      (fun i ->
        List.map
          (fun (r : Reference.t) ->
            (r.Reference.array_name,
             Array.to_list (Affine.apply r.Reference.index [| i |])))
          s.Strided.body)
      (Strided.iteration_values (List.hd s.Strided.loops))
  in
  let normalized =
    List.concat_map
      (fun i ->
        List.map
          (fun (r : Reference.t) ->
            (r.Reference.array_name,
             Array.to_list (Affine.apply r.Reference.index [| i |])))
          n.Nest.body)
      (List.init 5 Fun.id)
  in
  Alcotest.(check (list (pair string (list int))))
    "same accesses"
    (List.sort compare original)
    (List.sort compare normalized)

let test_strided_parse () =
  let n =
    Parse.nest_of_string "doall i = 0 to 14 step 2\nA[i] = A[i+1]\n"
  in
  (* 8 iterations, normalized to 0..7 with A[2i'] and A[2i'+1]. *)
  Alcotest.(check (array int)) "extent" [| 8 |] (Nest.extents n);
  let refs = Nest.references_to n "A" in
  check "two refs" 2 (List.length refs);
  (* A[2i'] and A[2i'+1] never intersect: two separate classes. *)
  let classes = Footprint.Uniform.classify n.Nest.body in
  check "classes split like A[2i] vs A[2i+1]" 2 (List.length classes)

let test_strided_parse_mixed () =
  let n =
    Parse.nest_of_string
      "doall i = 1 to 9 step 4\ndoall j = 0 to 5\nC[i,j] = D[j,i]\n"
  in
  Alcotest.(check (array int)) "extents" [| 3; 6 |] (Nest.extents n);
  let c = List.hd (Nest.references_to n "C") in
  (* i' = 0 -> i = 1. *)
  Alcotest.(check (array int))
    "C at origin" [| 1; 0 |]
    (Affine.apply c.Reference.index [| 0; 0 |])

let prop_strided_normalize_preserves =
  (* Normalization preserves the multiset of accessed data elements for
     random strides, bounds and subscripts. *)
  QCheck2.Test.make ~name:"normalization preserves accesses" ~count:200
    QCheck2.Gen.(
      tup6 (int_range 1 3) (int_range (-5) 5) (int_range 3 9)
        (int_range (-2) 2) (int_range (-2) 2) (int_range (-3) 3))
    (fun (step, lo, len, c1, c2, off) ->
      QCheck2.assume (c1 <> 0 || c2 <> 0);
      let hi = lo + (step * len) in
      let body =
        [ Reference.write "A" (Affine.of_rows [ [ c1 ]; [ c2 ] ] [ off ]) ]
      in
      let s =
        Strided.make ~name:"p"
          [ Strided.loop ~step "i" lo hi; Strided.loop "j" 0 4 ]
          body
      in
      let n = Strided.normalize s in
      let accesses refs loops_values =
        List.concat_map
          (fun i ->
            List.concat_map
              (fun j ->
                List.map
                  (fun (r : Reference.t) ->
                    Array.to_list (Affine.apply r.Reference.index [| i; j |]))
                  refs)
              (List.init 5 Fun.id))
          loops_values
      in
      let original =
        accesses s.Strided.body
          (Strided.iteration_values (List.hd s.Strided.loops))
      in
      let normalized =
        accesses n.Nest.body (List.init (len + 1) Fun.id)
      in
      List.sort compare original = List.sort compare normalized)

let strided_props =
  List.map QCheck_alcotest.to_alcotest [ prop_strided_normalize_preserves ]

let () =
  Alcotest.run "loopir"
    [
      ( "affine",
        [
          Alcotest.test_case "apply (Example 1)" `Quick test_affine_apply;
          Alcotest.test_case "drop constant dims" `Quick
            test_affine_drop_constant_dims;
          Alcotest.test_case "uniformly generated" `Quick
            test_affine_uniformly_generated;
          Alcotest.test_case "pretty printing" `Quick test_affine_pp;
        ] );
      ( "nest",
        [
          Alcotest.test_case "basics" `Quick test_nest_basics;
          Alcotest.test_case "validation" `Quick test_nest_validation;
          Alcotest.test_case "pretty printing" `Quick test_nest_pp;
          Alcotest.test_case "pretty printing keeps enclosing box" `Quick
            test_nest_pp_keeps_enclosing_box;
          Alcotest.test_case "extent hints" `Quick test_array_extent_hints;
        ] );
      ( "dsl",
        [
          Alcotest.test_case "conversion" `Quick test_dsl_affine_conversion;
          Alcotest.test_case "rejections" `Quick test_dsl_rejects;
        ] );
      ( "parse",
        [
          Alcotest.test_case "example 2" `Quick test_parse_example2;
          Alcotest.test_case "coefficients" `Quick test_parse_coefficients;
          Alcotest.test_case "accumulate (fig 11)" `Quick test_parse_accumulate;
          Alcotest.test_case "doseq" `Quick test_parse_doseq;
          Alcotest.test_case "negative bounds" `Quick test_parse_negative_bounds;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "expr_of_string" `Quick test_expr_of_string;
        ] );
      ( "strided",
        [
          Alcotest.test_case "iteration values" `Quick test_strided_values;
          Alcotest.test_case "normalization structure" `Quick
            test_strided_normalize_structure;
          Alcotest.test_case "normalization preserves accesses" `Quick
            test_strided_normalize_preserves_elements;
          Alcotest.test_case "parsed step" `Quick test_strided_parse;
          Alcotest.test_case "mixed steps" `Quick test_strided_parse_mixed;
        ] );
      ("properties", strided_props);
    ]
