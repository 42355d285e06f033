(* Domain-race sanitizer bench (host wall-clock).

   Measurements:

   - Tagging overhead (the gate): the probe ring stores the emitting
     domain's id into word 7 of every record.  Like engine_bench, the
     two sides are bench-local transcriptions of the emit path (claim +
     store4, lib/hw/probe.ml) differing ONLY in the tagging work: the
     pre-sanitizer variant stores no owner word, the current one reads
     the cached domain id and stores it.  Same stride, same claim —
     the delta is exactly what the sanitizer added.  Gate: tagged <=
     1.10x untagged.

   - The real production path for context: [Hw.Probe.emit_mem_write]
     through a ring sink — what a traced [Phys_mem] access actually
     costs (includes the per-domain sink lookup, which predates
     tagging and is paid tagged or not).

   - Dynamic checker throughput: the race-check dynamic half — a
     sharded 2-domain serve with Phys_mem tracing on — replayed through
     [Analysis.Racecheck], reporting trace volume and replay wall time.

   --json -> BENCH_racecheck.json *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let iters = 2_000_000
let best_of = 5

(* Wall time of [iters] applications of [f], in ns/op. *)
let once f =
  let t0 = now_ns () in
  for _ = 1 to iters do
    f ()
  done;
  (now_ns () -. t0) /. float_of_int iters

(* Best of [best_of] runs. *)
let time_per_op f =
  let best = ref infinity in
  for _ = 1 to best_of do
    best := min !best (once f)
  done;
  !best

(* The gate's two sides, best of [best_of] each, run interleaved so a
   host slowdown lands on both sides rather than on one. *)
let time_pair f g =
  let bf = ref infinity and bg = ref infinity in
  for _ = 1 to best_of do
    bf := min !bf (once f);
    bg := min !bg (once g)
  done;
  (!bf, !bg)

(* Bench-local transcription of the ring emit path (claim + store4). *)
module Replica = struct
  let stride = 8

  type t = {
    buf : int array;
    capacity : int;
    mutable head : int;
    mutable len : int;
    mutable dropped : int;
    mutable dom : int;  (* stands in for the DLS slot's cached id *)
  }

  let create () =
    let capacity = 65536 in
    { buf = Array.make (capacity * stride) 0; capacity; head = 0; len = 0; dropped = 0; dom = 3 }

  let[@inline] claim r =
    let slot =
      if r.len = r.capacity then begin
        let s = r.head in
        let h = s + 1 in
        r.head <- (if h = r.capacity then 0 else h);
        r.dropped <- r.dropped + 1;
        s
      end
      else begin
        let s = r.head + r.len in
        let s = if s >= r.capacity then s - r.capacity else s in
        r.len <- r.len + 1;
        s
      end
    in
    slot * stride

  let[@inline] store4_untagged r tag a b c =
    let o = claim r in
    let buf = r.buf in
    buf.(o) <- tag;
    buf.(o + 1) <- a;
    buf.(o + 2) <- b;
    buf.(o + 3) <- c

  let[@inline] store4_tagged r tag a b c =
    let o = claim r in
    let buf = r.buf in
    buf.(o) <- tag;
    buf.(o + 1) <- a;
    buf.(o + 2) <- b;
    buf.(o + 3) <- c;
    buf.(o + 7) <- r.dom
end

let gate_pct = 10.0

let run ~json () =
  let rep = Replica.create () in
  let untagged_ns, tagged_ns =
    time_pair
      (fun () -> Replica.store4_untagged rep 19 1 2 0)
      (fun () -> Replica.store4_tagged rep 19 1 2 0)
  in
  Sys.opaque_identity rep.Replica.head |> ignore;
  let overhead_pct = (tagged_ns -. untagged_ns) /. untagged_ns *. 100.0 in
  let gate_ok = overhead_pct <= gate_pct in
  (* The real traced-access path, for context. *)
  let ring = Hw.Probe.ring_create () in
  Hw.Probe.set_ring ring;
  let emit_path_ns =
    Fun.protect
      ~finally:(fun () -> Hw.Probe.clear_sink ())
      (fun () -> time_per_op (fun () -> Hw.Probe.emit_mem_write ~mem:1 ~pfn:2))
  in
  Sys.opaque_identity (Hw.Probe.ring_length ring) |> ignore;
  Printf.printf "\nDomain-race sanitizer bench\n===========================\n";
  Printf.printf "ring emit, untagged       %7.2f ns/event  (pre-sanitizer replica)\n" untagged_ns;
  Printf.printf "ring emit, domain-tagged  %7.2f ns/event  (current replica)\n" tagged_ns;
  Printf.printf "tagging overhead          %7.2f %%         (gate <= %.0f%%: %s)\n" overhead_pct
    gate_pct
    (if gate_ok then "ok" else "FAIL");
  Printf.printf "emit_mem_write via sink   %7.2f ns/event  (production path, tag included)\n"
    emit_path_ns;
  (* Dynamic half: capture a sharded serve under the checker. *)
  let cfg =
    {
      Ioplane.Serve.default_config with
      Ioplane.Serve.backend = "cki";
      containers = 4;
      requests_per_container = 25;
    }
  in
  Hw.Probe.set_mem_trace true;
  let trace =
    Fun.protect
      ~finally:(fun () -> Hw.Probe.set_mem_trace false)
      (fun () ->
        let _, trace =
          Analysis.Trace.with_recorder ~capacity:400_000 (fun () ->
              ignore (Ioplane.Serve.run ~domains:2 cfg))
        in
        trace)
  in
  let t0 = now_ns () in
  let r = Analysis.Racecheck.of_trace trace in
  let check_ms = (now_ns () -. t0) /. 1e6 in
  Printf.printf
    "dynamic: %d access(es) to %d object(s) by %d domain(s), %d edge(s), %d race(s); replay %.1f ms\n"
    r.Analysis.Racecheck.accesses r.Analysis.Racecheck.objects r.Analysis.Racecheck.domains
    r.Analysis.Racecheck.edges
    (List.length r.Analysis.Racecheck.races)
    check_ms;
  if not (Analysis.Racecheck.is_clean r) then begin
    Printf.eprintf "racecheck bench: the production serve trace is NOT race-free\n";
    exit 1
  end;
  if json then begin
    Report.Json.write_file "BENCH_racecheck.json"
      (Report.Json.Obj
         [
           ("bench", Report.Json.String "racecheck");
           ("ring_emit_untagged_ns", Report.Json.Float untagged_ns);
           ("ring_emit_tagged_ns", Report.Json.Float tagged_ns);
           ("tagging_overhead_pct", Report.Json.Float overhead_pct);
           ("tagging_gate_pct", Report.Json.Float gate_pct);
           ("tagging_gate_ok", Report.Json.Bool gate_ok);
           ("emit_mem_write_sink_ns", Report.Json.Float emit_path_ns);
           ( "dynamic",
             Report.Json.Obj
               [
                 ("events", Report.Json.Int r.Analysis.Racecheck.events);
                 ("accesses", Report.Json.Int r.Analysis.Racecheck.accesses);
                 ("objects", Report.Json.Int r.Analysis.Racecheck.objects);
                 ("domains", Report.Json.Int r.Analysis.Racecheck.domains);
                 ("edges", Report.Json.Int r.Analysis.Racecheck.edges);
                 ("races", Report.Json.Int (List.length r.Analysis.Racecheck.races));
                 ("replay_ms", Report.Json.Float check_ms);
               ] );
         ]);
    Printf.printf "wrote BENCH_racecheck.json\n"
  end;
  if not gate_ok then begin
    Printf.eprintf "racecheck bench: tagging overhead %.2f%% exceeds the %.0f%% gate\n"
      overhead_pct gate_pct;
    exit 1
  end
