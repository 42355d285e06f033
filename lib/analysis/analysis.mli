(** CKI invariant checker: whole-machine sanitizer + trace lint engine.

    Two independent halves:

    - {!Invariants}: a from-scratch walker over live machine state
      (page tables in simulated physical memory, TLBs, frame metadata),
      cross-checked against the monitor's claimed state — I1–I3, leaf
      reachability, W^X, kernel-exec freeze, CoW read-only sharing,
      per-vCPU copy coherence, TLB coherence, segment disjointness;
    - {!Trace} + {!Lint}: a bounded event recorder fed by the
      {!Hw.Probe} hook points, and temporal rules over the stream
      (gate pairing, PKRS discipline, TLB shootdowns).

    Integration tests, the examples, `cki_demo --check` and the
    snapshot subsystem (which runs {!check_machine} on every restored
    or cloned container before handing it out) use both halves. *)

module Trace : module type of Trace
module Invariants : module type of Invariants
module Lint : module type of Lint
module Racecheck : module type of Racecheck

type result = {
  violations : Invariants.violation list;
  lints : Lint.finding list;
}

val check_machine : containers:Cki.Container.t list -> Invariants.violation list
(** Sanitize live machine state: {!Invariants.check_machine}. *)

val lint_trace : Trace.t -> Lint.finding list
(** Run the temporal rules over a captured event stream, passing the
    recorder's drop count so ring-buffer truncation is surfaced as a
    [Lint.Trace_truncated] finding. *)

val is_clean : result -> bool
(** No violations and no fatal lints. [Lint.Trace_truncated] is
    informational (reduced coverage, not a violation) and does not
    make a result unclean. *)

val findings : result -> Report.Findings.t list
(** Both halves' findings as report rows ([Maps_declared_ptp] is the
    only warning, [Trace_truncated] the only info; everything else is
    critical). *)

val report : ?title:string -> result -> string

val assert_clean : ?label:string -> result -> unit
(** @raise Failure with the rendered report on any finding. *)

val checked : ?label:string -> (unit -> 'a * Cki.Container.t list) -> 'a
(** Scenario wrapper for code that boots its containers inside [f]:
    sanitizes the machine and lints the trace afterwards, failing on
    any finding. *)
