(* The CKI simulator benchmark.

     main.exe --workload fleet-serve|guest-memory|clone-migrate
              --seed N --seconds S --trace 0|1

   Prints every metric by name and unit, then, as the last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, measured untraced;
   with --trace 1 they are the per-layer ones, from a traced phase that
   follows an untraced one, and the spans are written as Chrome
   trace-event JSON to perfbench/out/trace-<workload>.json.  Exits 1
   when an output check fails. *)

let workloads =
  [ ("fleet-serve", Fleet_serve.run); ("guest-memory", Guest_memory.run); ("clone-migrate", Clone_migrate.run) ]

(* Per-layer metrics, in report order: every traced run prints all of
   them; a layer the workload does not call reads 0. *)
let span_metrics =
  [
    "fleet.control_s";
    "ioplane.send_s";
    "ioplane.pump_s";
    "ioplane.tick_s";
    "ioplane.reap_s";
    "ioplane.attach_s";
    "core.sched_s";
    "core.destroy_s";
    "kernel.guest_s";
    "kernel.mmap_s";
    "kernel.touch_s";
    "kernel.munmap_s";
    "hw.access_s";
    "snapshot.spawn_s";
    "snapshot.capture_s";
    "snapshot.refill_s";
    "snapshot.account_s";
    "analysis.verify_s";
    "migrate.migrate_s";
    "migrate.account_s";
    "report.percentile_s";
  ]

let workload_metrics =
  [
    ("fleet.scale_outs", "1/episode");
    ("fleet.surge_p99_us", "us");
    ("fleet.shed", "1/op");
    ("fleet.pool_hit_ratio", "ratio");
    ("ioplane.ticks_per_op", "1/op");
    ("ioplane.idle_tick_ratio", "ratio");
    ("ioplane.doorbells_per_op", "1/op");
    ("ioplane.interrupts_per_op", "1/op");
    ("core.throttle_events", "1/op");
    ("core.ksm_calls_per_op", "1/op");
    ("kernel.faults_per_op", "1/op");
    ("kernel.cow_breaks_per_op", "1/op");
    ("kernel.dirty_pages_per_round", "pages");
    ("virt.exits_per_op", "1/op");
    ("virt.hvm.sim_ns_per_op", "ns");
    ("hw.tlb_hit_ratio", "ratio");
    ("hw.frames_leaked", "count");
    ("hw.probe_dropped", "count");
    ("snapshot.materialized_frames_per_clone", "frames");
    ("migrate.rounds_per_op", "1/op");
    ("migrate.resent_ratio", "ratio");
    ("migrate.fabric_bytes_per_op", "bytes");
    ("trace.split_resolved", "bool");
  ]

let gc_layers = [ "fleet"; "ioplane"; "core"; "kernel"; "hw"; "snapshot"; "analysis"; "migrate"; "report" ]

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let per_op n x = if n > 0 then x /. float_of_int n else 0.0

let end_to_end (o : Runner.outcome) =
  let ph = o.Runner.main in
  Measure.
    [
      metric "ops_per_s" "1/s" ph.Runner.rate
        ~note:
          (Printf.sprintf "median over %d units at reference host speed; %d ops in %.3f s" ph.Runner.units
             ph.Runner.ops ph.Runner.wall_s);
      metric "alloc_words_per_op" "words" (per_op ph.Runner.ops ph.Runner.words)
        ~note:(Printf.sprintf "over %d ops" ph.Runner.ops);
      metric "peak_heap_mib" "MiB" (peak_heap_mib ()) ~note:"top heap of the whole run";
      metric "setup_s" "s" o.Runner.setup_s
        ~note:(Printf.sprintf "median of %d set-ups at reference host speed" Runner.setup_reps);
    ]

(* The same two figures in plain host time, with the host's speed
   relative to the reference during the run. *)
let raw_lines (o : Runner.outcome) =
  let ph = o.Runner.main in
  Measure.
    [
      metric "ops_per_s.host" "1/s" ph.Runner.raw_rate ~note:"median over units, unscaled";
      metric "setup_s.host" "s" o.Runner.setup_raw_s ~note:"median, unscaled";
      metric "host_speed" "ratio" (ph.Runner.raw_rate /. ph.Runner.rate)
        ~note:"host speed relative to the calibration reference";
    ]

let per_layer (o : Runner.outcome) (ph, tr, _) =
  let ops = ph.Runner.ops in
  let totals = Spans.totals tr in
  let span_s m = List.fold_left (fun a (m', s, _, _) -> if m = m' then a +. s else a) 0.0 totals in
  let traced_s = List.fold_left (fun a (_, s, _, _) -> a +. s) 0.0 totals in
  let layer_words l =
    List.fold_left (fun a (m, _, w, _) -> if Spans.layer_of_metric m = l then a +. w else a) 0.0 totals
  in
  let span_words = List.fold_left (fun a (_, _, w, _) -> a +. w) 0.0 totals in
  let unknown = List.filter (fun (m, _, _, _) -> not (List.mem m span_metrics)) totals in
  if unknown <> [] then failwith "perfbench: a span maps to no per-layer metric";
  let given name = List.find_opt (fun m -> m.Measure.name = name) o.Runner.layer in
  let main = o.Runner.main in
  Measure.(
    List.map (fun m -> metric m "s" (span_s m)) span_metrics
    @ List.map
        (fun (name, unit_) ->
          match given name with Some m -> m | None -> metric name unit_ 0.0 ~note:"not exercised")
        workload_metrics
    @ [
        metric "gc.minor_collections" "1/Mop" (per_op main.Runner.ops (1e6 *. float_of_int main.Runner.minor_collections));
        metric "gc.major_collections" "1/Mop" (per_op main.Runner.ops (1e6 *. float_of_int main.Runner.major_collections));
      ]
    @ List.map (fun l -> metric ("gc.alloc_words." ^ l) "words/op" (per_op ops (layer_words l))) gc_layers
    @ [ metric "gc.alloc_words.unaccounted" "words/op" (per_op ops (ph.Runner.words -. span_words)) ]
    @ Ledger.metrics o.Runner.ledger ~ops:o.Runner.ledger_ops
    @ [
        metric "trace.overhead_frac" "frac" (1.0 -. (ph.Runner.rate /. main.Runner.rate));
        metric "trace.wall_s" "s" ph.Runner.wall_s;
        metric "trace.unaccounted_s" "s" (ph.Runner.wall_s -. traced_s);
        metric "trace.spans" "count" (float_of_int (Spans.kept tr + Spans.dropped tr));
        metric "trace.spans_dropped" "count" (float_of_int (Spans.dropped tr));
      ])

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_metric m =
  Printf.printf "  %-40s %18.6g %-9s %s\n" m.Measure.name m.Measure.value m.Measure.unit_ m.Measure.note

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Measure.name (json_number x.Measure.value)
          x.Measure.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed (String.concat ", " m)

let write_trace path tr t0 =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Report.Json.write_file path (Spans.to_chrome tr ~t0)

let usage () =
  prerr_endline
    "usage: main.exe --workload fleet-serve|guest-memory|clone-migrate --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := (try int_of_string n with _ -> usage ()); parse rest
    | "--seconds" :: s :: rest -> seconds := (try float_of_string s with _ -> usage ()); parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := int_of_string t; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  if !seed < 0 || !seconds <= 0.0 || !trace < 0 then usage ();
  let cfg = { Runner.seed = !seed; seconds = !seconds; trace = !trace = 1 } in
  Printf.printf "perfbench %s  seed %d  seconds %g  trace %d\n%!" !workload !seed !seconds !trace;
  let o = run cfg in
  let e2e = end_to_end o in
  print_endline "end-to-end (untraced):";
  List.iter print_metric (e2e @ raw_lines o @ o.Runner.lines);
  let metrics =
    match o.Runner.traced with
    | None -> e2e
    | Some ((ph, tr, t0) as traced) ->
        let layer = per_layer o traced in
        print_endline "per-layer (traced):";
        List.iter print_metric layer;
        let path = Printf.sprintf "perfbench/out/trace-%s.json" !workload in
        write_trace path tr t0;
        Printf.printf "trace: %d spans (%d not kept) over %.3f s -> %s\n" (Spans.kept tr + Spans.dropped tr)
          (Spans.dropped tr) ph.Runner.wall_s path;
        layer
  in
  (* After the workload, so that they do not count in its peak heap. *)
  let checks = Selftest.run () @ o.Runner.checks in
  let bad = List.filter (fun c -> not c.Measure.ok) checks in
  Printf.printf "checks: %d passed, %d failed\n" (List.length checks - List.length bad) (List.length bad);
  List.iter (fun c -> Printf.printf "  FAILED %s: %s\n" c.Measure.what c.Measure.detail) bad;
  let finite = List.for_all (fun m -> Float.is_finite m.Measure.value) metrics in
  if not finite then print_endline "  FAILED every metric is finite";
  let correct = bad = [] && finite in
  print_endline
    (result_line ~correct ~attempted:o.Runner.attempted ~failed:o.Runner.failed
       (List.map (fun m -> if Float.is_finite m.Measure.value then m else { m with Measure.value = 0.0 }) metrics));
  exit (if correct then 0 else 1)
