type failure = {
  case : Gen.case;
  violation : Oracle.violation;
  shrunk : Gen.case;
  shrunk_violation : Oracle.violation;
  shrink_steps : int;
}

type outcome = {
  seed : int;
  count : int;
  tested : int;
  fault : Oracle.fault;
  failures : failure list;
}

let run ?(fault = Oracle.No_fault) ?(max_failures = 3) ?(shrink_budget = 400)
    ?(progress = fun _ -> ()) ~seed ~count () =
  let pools = Oracle.Pools.create () in
  Fun.protect
    ~finally:(fun () -> Oracle.Pools.shutdown pools)
    (fun () ->
      let fails case = Oracle.check ~fault ~pools case in
      let failures = ref [] in
      let tested = ref 0 in
      (try
         for id = 0 to count - 1 do
           if id mod 50 = 0 then progress id;
           let case = Gen.generate ~seed ~id in
           incr tested;
           match fails case with
           | None -> ()
           | Some violation ->
               let r = Shrink.minimize ~fails ~budget:shrink_budget case violation in
               failures :=
                 {
                   case;
                   violation;
                   shrunk = r.Shrink.shrunk;
                   shrunk_violation = r.Shrink.violation;
                   shrink_steps = r.Shrink.steps;
                 }
                 :: !failures;
               if List.length !failures >= max_failures then raise Exit
         done
       with Exit -> ());
      {
        seed;
        count;
        tested = !tested;
        fault;
        failures = List.rev !failures;
      })

let replay_command o =
  let fault_arg =
    match o.fault with
    | Oracle.No_fault -> ""
    | f -> Printf.sprintf " --inject-fault %s" (Oracle.fault_to_string f)
  in
  Printf.sprintf "loopartc fuzz --seed %d --count %d%s" o.seed o.count fault_arg

let render_failure o f =
  String.concat "\n"
    [
      Printf.sprintf "oracle violation in case %d of seed %d:" f.case.Gen.id
        o.seed;
      Format.asprintf "  %a" Oracle.pp_violation f.violation;
      "";
      "replay: " ^ replay_command o;
      "";
      "original case:";
      Gen.to_string f.case;
      "";
      Printf.sprintf "shrunk reproducer (%d shrink steps):" f.shrink_steps;
      Gen.to_string f.shrunk;
      Format.asprintf "  still fails: %a" Oracle.pp_violation
        f.shrunk_violation;
      "";
    ]

let pp_outcome ppf o =
  if o.failures = [] then
    Format.fprintf ppf
      "fuzz: %d/%d cases passed all oracles (seed %d%s)@." o.tested o.count
      o.seed
      (match o.fault with
      | Oracle.No_fault -> ""
      | f -> Printf.sprintf ", injected fault %s" (Oracle.fault_to_string f))
  else begin
    Format.fprintf ppf "fuzz: %d failure(s) in %d cases (seed %d)@."
      (List.length o.failures) o.tested o.seed;
    List.iter (fun f -> Format.pp_print_string ppf (render_failure o f)) o.failures
  end
