type event =
  | Injected of { action : Fault.action; site : int; domain : int; step : int }
  | Crashed of { domain : int; step : int; exn : string }
  | Timed_out of { domain : int; step : int }
  | Tiles_reexecuted of { count : int; step : int }
  | Degraded of { from_procs : int; to_procs : int }
  | Sequential_fallback

type outcome = Completed | Failed of string

type attempt = {
  attempt : int;
  nprocs : int;
  outcome : outcome;
  events : event list;
  tiles_total : int;
  tiles_reexecuted : int;
  retired_domains : int list;
  backoff_ms : int;
  wall_seconds : float;
}

type t = {
  name : string;
  policy : string;
  plan : string;
  deadline_ms : int;
  steps : int;
  tile_retry : bool;
  attempts : attempt list;
  completed : bool;
  final_nprocs : int;
  total_wall_seconds : float;
  checksum : float;
  covered_exactly_once : bool;
  metrics : Trace.summary option;
}

let events t = List.concat_map (fun a -> a.events) t.attempts

let count f t = List.length (List.filter f (events t))

let injected_count = count (function Injected _ -> true | _ -> false)
let crashed_count = count (function Crashed _ -> true | _ -> false)
let timed_out_count = count (function Timed_out _ -> true | _ -> false)

let reexecuted_tiles t =
  List.fold_left (fun acc a -> acc + a.tiles_reexecuted) 0 t.attempts

let pp_event ppf = function
  | Injected { action; site; domain; step } ->
      Format.fprintf ppf "injected %s (plan entry %d) on domain %d at step %d"
        (Fault.action_to_string action)
        site domain step
  | Crashed { domain; step; exn } ->
      Format.fprintf ppf "domain %d crashed at step %d (%s)" domain step exn
  | Timed_out { domain; step } ->
      Format.fprintf ppf "watchdog: domain %d timed out at step %d" domain step
  | Tiles_reexecuted { count; step } ->
      Format.fprintf ppf "%d orphaned tile%s re-executed at step %d" count
        (if count = 1 then "" else "s")
        step
  | Degraded { from_procs; to_procs } ->
      Format.fprintf ppf "degraded from %d to %d domains" from_procs to_procs
  | Sequential_fallback -> Format.fprintf ppf "fell back to sequential execution"

let pp_outcome ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Failed reason -> Format.fprintf ppf "FAILED: %s" reason

let pp ppf t =
  Format.fprintf ppf "@[<v>=== resilience report: %s (%s%s) ===@," t.name
    t.policy
    (if t.plan = "" then "" else ", plan " ^ t.plan);
  Format.fprintf ppf "watchdog deadline %d ms; tile-level retry %s@,"
    t.deadline_ms
    (if t.tile_retry then "enabled (idempotent tiles)"
     else "disabled (tiles not idempotent)");
  List.iter
    (fun a ->
      Format.fprintf ppf "attempt %d on %s%s: %a (%.2f ms)@," a.attempt
        (if a.nprocs = 0 then "sequential"
         else Printf.sprintf "%d domains" a.nprocs)
        (if a.backoff_ms > 0 then Printf.sprintf " after %d ms backoff"
                                    a.backoff_ms
         else "")
        pp_outcome a.outcome
        (a.wall_seconds *. 1e3);
      List.iter (fun e -> Format.fprintf ppf "  %a@," pp_event e) a.events;
      if a.retired_domains <> [] then
        Format.fprintf ppf "  retired domains: %s@,"
          (String.concat ","
             (List.map string_of_int (List.sort compare a.retired_domains))))
    t.attempts;
  Format.fprintf ppf "verdict: %s in %.2f ms"
    (if t.completed then
       Printf.sprintf "completed on %s, every tile covered exactly once: %b"
         (if t.final_nprocs = 0 then "sequential fallback"
          else Printf.sprintf "%d domains" t.final_nprocs)
         t.covered_exactly_once
     else "FAILED")
    (t.total_wall_seconds *. 1e3);
  if t.completed then Format.fprintf ppf "; checksum %.6g" t.checksum;
  (match t.metrics with
  | Some m -> Format.fprintf ppf "@,%a" Trace.pp_summary m
  | None -> ());
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let str s = "\"" ^ json_escape s ^ "\""

(* JSON has no nan/inf literals; a failed attempt's wall time can be
   nan (a watchdog race losing both timestamps) and must not poison the
   whole document.  %.6g itself is JSON-safe for every finite double
   (no bare [.5] or trailing-dot forms). *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let event_json e =
  let obj kind fields =
    Printf.sprintf "{\"event\": %s%s}" (str kind)
      (String.concat ""
         (List.map (fun (k, v) -> Printf.sprintf ", \"%s\": %s" k v) fields))
  in
  match e with
  | Injected { action; site; domain; step } ->
      obj "injected"
        [
          ("action", str (Fault.action_to_string action));
          ("site", string_of_int site);
          ("domain", string_of_int domain);
          ("step", string_of_int step);
        ]
  | Crashed { domain; step; exn } ->
      obj "crashed"
        [
          ("domain", string_of_int domain);
          ("step", string_of_int step);
          ("exn", str exn);
        ]
  | Timed_out { domain; step } ->
      obj "timed_out"
        [ ("domain", string_of_int domain); ("step", string_of_int step) ]
  | Tiles_reexecuted { count; step } ->
      obj "tiles_reexecuted"
        [ ("count", string_of_int count); ("step", string_of_int step) ]
  | Degraded { from_procs; to_procs } ->
      obj "degraded"
        [
          ("from_procs", string_of_int from_procs);
          ("to_procs", string_of_int to_procs);
        ]
  | Sequential_fallback -> obj "sequential_fallback" []

let attempt_json a =
  String.concat ""
    [
      "{\"attempt\": ";
      string_of_int a.attempt;
      ", \"nprocs\": ";
      string_of_int a.nprocs;
      ", \"outcome\": ";
      (match a.outcome with
      | Completed -> str "completed"
      | Failed r -> str ("failed: " ^ r));
      ", \"tiles_total\": ";
      string_of_int a.tiles_total;
      ", \"tiles_reexecuted\": ";
      string_of_int a.tiles_reexecuted;
      ", \"retired_domains\": [";
      String.concat ", "
        (List.map string_of_int (List.sort compare a.retired_domains));
      "], \"backoff_ms\": ";
      string_of_int a.backoff_ms;
      ", \"wall_seconds\": ";
      json_float a.wall_seconds;
      ", \"events\": [";
      String.concat ", " (List.map event_json a.events);
      "]}";
    ]

let to_json t =
  String.concat ""
    [
      "{\n  \"name\": ";
      str t.name;
      ",\n  \"policy\": ";
      str t.policy;
      ",\n  \"plan\": ";
      str t.plan;
      ",\n  \"deadline_ms\": ";
      string_of_int t.deadline_ms;
      ",\n  \"steps\": ";
      string_of_int t.steps;
      ",\n  \"tile_retry\": ";
      string_of_bool t.tile_retry;
      ",\n  \"completed\": ";
      string_of_bool t.completed;
      ",\n  \"final_nprocs\": ";
      string_of_int t.final_nprocs;
      ",\n  \"covered_exactly_once\": ";
      string_of_bool t.covered_exactly_once;
      ",\n  \"total_wall_seconds\": ";
      json_float t.total_wall_seconds;
      ",\n  \"checksum\": ";
      json_float t.checksum;
      ",\n  \"metrics\": ";
      (match t.metrics with
      | Some m -> Trace.summary_json m
      | None -> "null");
      ",\n  \"attempts\": [\n    ";
      String.concat ",\n    " (List.map attempt_json t.attempts);
      "\n  ]\n}\n";
    ]
