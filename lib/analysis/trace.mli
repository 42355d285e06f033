(** Ring-buffer recorder for {!Hw.Probe} events.

    Attach a recorder around a scenario, run it, detach, then hand the
    captured event stream to {!Lint.run}. Events are recorded into a
    flat int-encoded {!Hw.Probe.ring} (a few array stores per event, no
    allocation) and decoded back into {!Hw.Probe.event} values lazily
    when {!events} is called at lint time. The buffer is bounded:
    when full, the oldest events are dropped (and counted), so long
    scenarios degrade gracefully instead of growing without bound — the
    lint rules tolerate a truncated prefix. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 65536 events. *)

val record : t -> Hw.Probe.event -> unit
(** Append one event directly. This is also the injection point for
    fault-injection tests, which synthesize event sequences that the
    simulator's enforcement would normally prevent. *)

val events : t -> Hw.Probe.event list
(** Captured events, oldest first. *)

val tagged_events : t -> (int * Hw.Probe.event) list
(** Captured events, oldest first, each paired with the id of the
    domain that emitted it — the input {!Racecheck.check} consumes. *)

val dropped : t -> int
(** Events lost to ring-buffer overflow. *)

val with_recorder : ?capacity:int -> (unit -> 'a) -> 'a * t
(** [with_recorder f] runs [f] with a fresh recorder attached, then
    detaches it (also on exceptions) and returns [f]'s result with the
    recorder. *)
