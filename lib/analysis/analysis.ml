(* CKI invariant checker: whole-machine sanitizer + trace lint engine.

   Two independent halves:

     - {!Invariants}: a from-scratch walker over live machine state
       (page tables in simulated physical memory, TLBs, frame
       metadata), cross-checked against the monitor's claimed state;
     - {!Trace} + {!Lint}: a bounded event recorder fed by the
       Hw.Probe hook points, and temporal rules over the stream.

   Integration tests, the examples and `cki_demo --check` run both at
   the end of every scenario; fault-injection tests corrupt state or
   synthesize event sequences and assert each rule fires. *)

module Trace = Trace
module Invariants = Invariants
module Lint = Lint
module Racecheck = Racecheck

type result = {
  violations : Invariants.violation list;
  lints : Lint.finding list;
}

let check_machine ~containers = Invariants.check_machine ~containers
let lint_trace trace = Lint.run ~dropped:(Trace.dropped trace) (Trace.events trace)

(* Trace_truncated is informational (the recorder overflowed; coverage
   is reduced, nothing was violated) — it must not fail --check runs. *)
let fatal_lint = function Lint.Trace_truncated _ -> false | _ -> true

let is_clean r = r.violations = [] && not (List.exists fatal_lint r.lints)

let findings r =
  List.map
    (fun v ->
      let severity =
        match v with
        | Invariants.Maps_declared_ptp _ -> Report.Findings.Warning
        | _ -> Report.Findings.Critical
      in
      Report.Findings.make ~severity ~rule:(Invariants.rule_name v) ~subject:(Invariants.subject v)
        ~detail:(Invariants.show_violation v))
    r.violations
  @ List.map
      (fun f ->
        let severity =
          if fatal_lint f then Report.Findings.Critical else Report.Findings.Info
        in
        Report.Findings.make ~severity ~rule:(Lint.rule_name f) ~subject:(Lint.subject f)
          ~detail:(Lint.show_finding f))
      r.lints

let report ?(title = "CKI invariant check") r = Report.Findings.render ~title (findings r)

let assert_clean ?(label = "analysis") r =
  if not (is_clean r) then failwith (label ^ ": " ^ report ~title:label r)

(* Scenario wrapper for code that boots its containers inside [f]:
   [f] returns its result alongside the containers to check; the
   machine is sanitized and the trace linted afterwards, failing on
   any finding. *)
let checked ?label (f : unit -> 'a * Cki.Container.t list) : 'a =
  let (x, containers), trace = Trace.with_recorder f in
  let r = { violations = check_machine ~containers; lints = lint_trace trace } in
  assert_clean ?label r;
  x
