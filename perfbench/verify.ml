(* One unit of a workload re-run under the probe recorder, after the
   measured phases: the trace must lint clean and the machine must pass
   the sanitizer.  Recorder overflow is not a finding; its drop count
   is reported as hw.probe_dropped. *)

type result = {
  fatal_lints : Analysis.Lint.finding list;
  violations : Analysis.Invariants.violation list;
  dropped : int;
}

(* [f] runs the unit and returns the containers to sanitize after it. *)
let recorded f =
  let containers, trace = Analysis.Trace.with_recorder f in
  let lints = Analysis.lint_trace trace in
  let fatal_lints = List.filter (function Analysis.Lint.Trace_truncated _ -> false | _ -> true) lints in
  let dropped =
    List.fold_left
      (fun a -> function Analysis.Lint.Trace_truncated { dropped; _ } -> a + dropped | _ -> a)
      0 lints
  in
  { fatal_lints; violations = Analysis.check_machine ~containers; dropped }

let lint_check r =
  Measure.check "the probe trace lints clean"
    (r.fatal_lints = [])
    (match r.fatal_lints with
    | [] -> ""
    | f :: _ -> Printf.sprintf "%d findings, first: %s" (List.length r.fatal_lints) (Analysis.Lint.show_finding f))

let scan_check ?(known = fun _ -> false) r =
  let bad = List.filter (fun v -> not (known v)) r.violations in
  Measure.check "the machine passes the analysis scanner" (bad = [])
    (match bad with
    | [] -> ""
    | v :: _ -> Printf.sprintf "%d violations, first: %s" (List.length bad) (Analysis.Invariants.show_violation v))
