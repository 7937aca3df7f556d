(** The structured outcome of a resilient execution: what faults fired,
    what the watchdog saw, what each attempt did about it, and whether
    the job ultimately completed.

    One {!t} covers the whole job; it nests one {!attempt} per pool job
    the executor launched (retries and degraded re-partitions each get
    their own attempt).  [loopartc run --fault-plan] prints it and can
    dump it as JSON for CI artifacts. *)

type event =
  | Injected of { action : Fault.action; site : int; domain : int; step : int }
      (** a fault-plan injection fired: [site] is the index of the
          consumed plan entry ({!Fault.injections} order), the identity
          under which the oracle checks that no entry fires twice *)
  | Crashed of { domain : int; step : int; exn : string }
      (** a worker raised; its claimed tile was orphaned *)
  | Timed_out of { domain : int; step : int }
      (** the watchdog declared this domain a silent straggler *)
  | Tiles_reexecuted of { count : int; step : int }
      (** orphaned tiles re-run on surviving domains within the step *)
  | Degraded of { from_procs : int; to_procs : int }
      (** the pool was shrunk and the nest re-partitioned *)
  | Sequential_fallback  (** last resort: one-domain reference execution *)

type outcome = Completed | Failed of string

type attempt = {
  attempt : int;  (** 0-based, in launch order *)
  nprocs : int;  (** pool size of this attempt (0 = sequential) *)
  outcome : outcome;
  events : event list;  (** chronological *)
  tiles_total : int;  (** tiles per outer step under this partition *)
  tiles_reexecuted : int;  (** summed over steps *)
  retired_domains : int list;  (** domains dead by the end of the attempt *)
  backoff_ms : int;  (** delay waited before launching this attempt *)
  wall_seconds : float;
}

type t = {
  name : string;  (** nest name *)
  policy : string;  (** rendered fault policy *)
  plan : string;  (** rendered fault plan ("" when none) *)
  deadline_ms : int;  (** watchdog silence deadline *)
  steps : int;
  tile_retry : bool;
      (** tile-level recovery was enabled: the nest's per-step read and
          write footprints are disjoint and it has no accumulates, so
          tiles are idempotent and crash recovery can re-enqueue them *)
  attempts : attempt list;  (** chronological *)
  completed : bool;
  final_nprocs : int;  (** domains of the completing attempt; 0 = sequential *)
  total_wall_seconds : float;
  checksum : float;  (** over the final operand buffer, when completed *)
  covered_exactly_once : bool;
      (** the completing attempt's completion bitmap showed every tile
          executed effectively once in every step *)
  metrics : Trace.summary option;
      (** compact trace metrics when the run was traced (tiles run,
          steals, faults seen, per-span-kind busy time) *)
}

val events : t -> event list
(** All events, attempt order preserved. *)

val injected_count : t -> int
val crashed_count : t -> int
val timed_out_count : t -> int
val reexecuted_tiles : t -> int

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** Machine-readable rendition for CI artifacts.  Always strictly
    valid JSON: non-finite wall times and checksums serialize as
    [null], and every control character in strings is escaped. *)

val json_escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): quotes,
    backslashes and every control character escaped. *)

val json_float : float -> string
(** A JSON number ([%.6g]), or [null] for nan and infinities. *)
