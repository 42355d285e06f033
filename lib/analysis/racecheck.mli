(** Dynamic cross-domain access checker.

    Replays a merged multi-domain probe trace (every event paired with
    the id of the domain that emitted it, as produced by
    {!Hw.Domain_shard} replay and exposed by {!Trace.tagged_events})
    and flags any traced physical-memory object — a [(mem_id, pfn)]
    frame or PTE-arena slot of some {!Hw.Phys_mem} instance — touched
    by two domains without an intervening
    {!Hw.Probe.event.Domain_spawn}/{!Hw.Probe.event.Domain_join}
    happens-before edge, using per-domain vector clocks (the FastTrack
    last-write-epoch + read-set discipline).

    Concurrent reads are not races; write/write and read/write pairs
    between unordered domains are.  Enable {!Hw.Probe.set_mem_trace}
    around the run so {!Hw.Phys_mem} actually emits the
    [Mem_read]/[Mem_write] stream. *)

type race = {
  mem : int;  (** Phys_mem instance ({!Hw.Phys_mem.mem_id}) *)
  pfn : int;
  first_dom : int;
  first_write : bool;
  second_dom : int;
  second_write : bool;
}

type report = {
  races : race list;  (** deduped per (mem, pfn, domain pair), stream order *)
  events : int;  (** total events replayed *)
  accesses : int;  (** [Mem_read]/[Mem_write] events examined *)
  objects : int;  (** distinct (mem, pfn) objects touched *)
  domains : int;  (** distinct domain ids seen *)
  edges : int;  (** spawn/join happens-before edges *)
}

val check : (int * Hw.Probe.event) list -> report
(** Replay a tagged stream, oldest first. *)

val of_trace : Trace.t -> report
(** [check] over {!Trace.tagged_events}. *)

val is_clean : report -> bool

val pp_report : Format.formatter -> report -> unit

val findings : report -> Report.Findings.t list
(** Races as critical [domain-race] report rows. *)
