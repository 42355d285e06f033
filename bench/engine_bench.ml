(* Raw-speed engine overhaul benchmark (host wall-clock).

   Every other bench in this directory measures *simulated* time; this
   one measures the simulator itself.  It races the overhauled engine
   hot paths head-to-head, in the same process and run, against a
   faithful bench-local replica of the pre-overhaul structures
   (transcribed from git history and trimmed to the operations the
   workload exercises):

   - frame/PTE arena: packed int-array metadata + one int64 Bigarray
     PTE arena with slot recycling, vs boxed per-frame records with a
     lazily allocated [int64 array] per table frame;
   - probe recording: specialized int-encoding emitters into a flat
     int ring, vs boxed variant events built at the emit site and
     pushed through a closure sink;
   - clock charging: [charge_id] into flat per-id arrays, vs the
     pre-overhaul string-keyed hashtable charge;
   - translation: the memoized per-CPU fast path, vs the same engine
     with [Cpu.set_tcache] off (TLB-hashtable front end — exactly the
     pre-overhaul translation path).

   Each section runs its two sides interleaved [repeats] times and
   keeps the minimum of each, recording the spread, so one host hiccup
   cannot move the >=10x gate.

   The composite "engine events per second" weights the sections like
   the simulator's own hot loop: every logical action charges the
   clock a few times and, when tracing, emits probes; translations and
   arena maintenance are rarer.

   The sharding section reports [Serve.run ~domains:{1,4}] makespan
   scaling — *simulated* makespan, since the host may have a single
   core (the merge math is deterministic either way).

   --json writes BENCH_engine.json. *)

let section title = Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')
let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Pre-overhaul replicas                                               *)
(* ------------------------------------------------------------------ *)

module Legacy = struct
  (* lib/hw/phys_mem.ml before the overhaul: metadata in boxed mutable
     records, PTEs in a per-frame [int64 array] allocated lazily and
     dropped on free. *)
  type owner = Free | Host | Container of int

  type frame = {
    mutable owner : owner;
    mutable kind : int;  (* stand-in for the old variant; not measured *)
    mutable table : int64 array option;
    mutable refcount : int;
    mutable shared_ro : bool;
  }

  type mem = { frames : frame array; total : int; mutable next_free : int }

  let mem_create n =
    {
      frames =
        Array.init n (fun _ ->
            { owner = Free; kind = 0; table = None; refcount = 0; shared_ro = false });
      total = n;
      next_free = 0;
    }

  exception Oom

  let alloc t ~owner =
    let n = t.total in
    let rec find i =
      if i >= n then raise Oom
      else
        let pfn = (t.next_free + i) mod n in
        if t.frames.(pfn).owner = Free then pfn else find (i + 1)
    in
    let pfn = find 0 in
    t.next_free <- (pfn + 1) mod n;
    let f = t.frames.(pfn) in
    f.owner <- owner;
    f.kind <- 1;
    f.table <- None;
    f.refcount <- 0;
    f.shared_ro <- false;
    pfn

  let free t pfn =
    let f = t.frames.(pfn) in
    f.owner <- Free;
    f.kind <- 0;
    f.table <- None;
    f.refcount <- 0;
    f.shared_ro <- false

  let table_entries t pfn =
    let f = t.frames.(pfn) in
    match f.table with
    | Some a -> a
    | None ->
        let a = Array.make 512 0L in
        f.table <- Some a;
        a

  let write_entry t ~pfn ~index v = (table_entries t pfn).(index) <- v
  let read_entry t ~pfn ~index = (table_entries t pfn).(index)

  (* lib/hw/probe.ml before the overhaul: every emit built a variant
     record (strings included) and pushed it through a closure. *)
  type event =
    | Tlb_fill of { cpu : int; pcid : int; vpn : int; level : int; pfn : int }
    | Io_doorbell of { queue : string; avail_idx : int; in_flight : int }
    | Io_completion of { queue : string; used_idx : int; serviced : int }

  let sink : (event -> unit) option ref = ref None
  let emit ev = match !sink with None -> () | Some f -> f ev

  (* The old Analysis.Trace recorder: a bounded [Queue] with
     drop-oldest overflow, attached as a closure. *)
  let queue_recorder capacity =
    let q : event Queue.t = Queue.create () in
    fun ev ->
      if Queue.length q >= capacity then ignore (Queue.pop q);
      Queue.add ev q

  (* lib/hw/clock.ml before the overhaul: every charge was two
     string-keyed hashtable read-modify-writes (boxed-float stores
     included) — there was no pre-interned fast tier. *)
  type clock = {
    mutable now_ns : float;
    counters : (string, int) Hashtbl.t;
    spent : (string, float) Hashtbl.t;
  }

  let clock_create () = { now_ns = 0.0; counters = Hashtbl.create 64; spent = Hashtbl.create 64 }

  let charge c event ns =
    c.now_ns <- c.now_ns +. ns;
    Hashtbl.replace c.counters event
      (1 + Option.value ~default:0 (Hashtbl.find_opt c.counters event));
    Hashtbl.replace c.spent event
      (ns +. Option.value ~default:0.0 (Hashtbl.find_opt c.spent event))
end

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)
(* ------------------------------------------------------------------ *)

(* A section races two sides over the same op count.  Each side is a
   thunk that puts its engine in the right mode (untimed) and returns
   the wall-clock ns of its timed loop, so [measure] can run the two
   sides interleaved several times over. *)
type section = { ops : int; optimized : unit -> float; legacy : unit -> float }

let time f =
  let t0 = now_ns () in
  f ();
  now_ns () -. t0

(* Arena churn: allocate a table frame, write + read back a sparse
   cluster of PTEs (a partially-filled leaf table — the common case),
   free it.  The overhaul's recycled slots with dirty-range scrubbing
   vs the old per-alloc 4KiB [Array.make]. *)
let bench_arena ~ops =
  let new_mem = Hw.Phys_mem.create ~frames:4096 in
  let leg_mem = Legacy.mem_create 4096 in
  let acc = ref 0L in
  let optimized () =
    time (fun () ->
        for i = 1 to ops do
          let pfn =
            Hw.Phys_mem.alloc new_mem ~owner:Hw.Phys_mem.Host
              ~kind:(Hw.Phys_mem.Page_table 1)
          in
          let base = i land 0xff in
          for k = 0 to 7 do
            Hw.Phys_mem.write_entry new_mem ~pfn ~index:(base + k)
              (Int64.of_int ((i * 8) + k))
          done;
          for k = 0 to 7 do
            acc := Int64.add !acc (Hw.Phys_mem.read_entry new_mem ~pfn ~index:(base + k))
          done;
          Hw.Phys_mem.free new_mem pfn
        done)
  in
  let legacy () =
    time (fun () ->
        for i = 1 to ops do
          let pfn = Legacy.alloc leg_mem ~owner:Legacy.Host in
          let base = i land 0xff in
          for k = 0 to 7 do
            Legacy.write_entry leg_mem ~pfn ~index:(base + k) (Int64.of_int ((i * 8) + k))
          done;
          for k = 0 to 7 do
            acc := Int64.add !acc (Legacy.read_entry leg_mem ~pfn ~index:(base + k))
          done;
          Legacy.free leg_mem pfn
        done)
  in
  { ops; optimized; legacy }

(* Frame allocation on a mostly-full, fragmented host — the paper's
   steady serving state, and where the O(n-scan) pre-overhaul
   allocator hurt most.  One frame in [hole_stride] is free; each op
   allocates the next hole and frees it again, so next-fit must cross
   [hole_stride - 1] occupied frames per allocation: boxed record
   loads before the overhaul, 62-frame bitmap words after. *)
let bench_alloc ~ops =
  let frames = 65536 in
  let hole_stride = 256 in
  let new_mem = Hw.Phys_mem.create ~frames in
  let leg_mem = Legacy.mem_create frames in
  for pfn = 0 to frames - 1 do
    if pfn mod hole_stride <> 0 then begin
      ignore
        (let p = Hw.Phys_mem.alloc new_mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
         assert (p = pfn);
         p);
      let p = Legacy.alloc leg_mem ~owner:Legacy.Host in
      assert (p = pfn)
    end
    else begin
      (* keep both allocators' next-fit hints moving identically *)
      let a = Hw.Phys_mem.alloc new_mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
      let b = Legacy.alloc leg_mem ~owner:Legacy.Host in
      assert (a = pfn && b = pfn);
      Hw.Phys_mem.free new_mem pfn;
      Legacy.free leg_mem pfn
    end
  done;
  let optimized () =
    time (fun () ->
        for _ = 1 to ops do
          let pfn = Hw.Phys_mem.alloc new_mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
          Hw.Phys_mem.free new_mem pfn
        done)
  in
  let legacy () =
    time (fun () ->
        for _ = 1 to ops do
          let pfn = Legacy.alloc leg_mem ~owner:Legacy.Host in
          Legacy.free leg_mem pfn
        done)
  in
  { ops; optimized; legacy }

(* Probe recording under an active trace recorder. *)
let bench_probe ~ops =
  let ring = Hw.Probe.ring_create ~capacity:4096 () in
  let recorder = Legacy.queue_recorder 4096 in
  let optimized () =
    Hw.Probe.set_ring ring;
    let ns =
      time (fun () ->
          for i = 1 to ops / 3 do
            Hw.Probe.emit_tlb_fill ~cpu:0 ~pcid:1 ~vpn:(i land 0xffff) ~level:1 ~pfn:i;
            Hw.Probe.emit_io_doorbell ~queue:"net-tx" ~avail_idx:i ~in_flight:1;
            Hw.Probe.emit_io_completion ~queue:"net-tx" ~used_idx:i ~serviced:1
          done)
    in
    Hw.Probe.clear_sink ();
    ns
  in
  let legacy () =
    Legacy.sink := Some recorder;
    let ns =
      time (fun () ->
          for i = 1 to ops / 3 do
            Legacy.emit
              (Legacy.Tlb_fill { cpu = 0; pcid = 1; vpn = i land 0xffff; level = 1; pfn = i });
            Legacy.emit (Legacy.Io_doorbell { queue = "net-tx"; avail_idx = i; in_flight = 1 });
            Legacy.emit (Legacy.Io_completion { queue = "net-tx"; used_idx = i; serviced = 1 })
          done)
    in
    Legacy.sink := None;
    ns
  in
  { ops = ops / 3 * 3; optimized; legacy }

(* Clock charging: [charge_id] into flat arrays vs the pre-overhaul
   hashtable-only charge (the current string path would not do — it
   resolves names through the same interned-id arrays). *)
let bench_clock ~ops =
  let clk = Hw.Clock.create () in
  let leg = Legacy.clock_create () in
  let optimized () =
    time (fun () ->
        for _ = 1 to ops / 2 do
          Hw.Clock.charge_id clk Hw.Clock.id_tlb_hit 1.0;
          Hw.Clock.charge_id clk Hw.Clock.id_virtio_service 2.0
        done)
  in
  let legacy () =
    let ns =
      time (fun () ->
          for _ = 1 to ops / 2 do
            Legacy.charge leg "tlb_hit" 1.0;
            Legacy.charge leg "virtio_service" 2.0
          done)
    in
    Sys.opaque_identity leg.Legacy.now_ns |> ignore;
    ns
  in
  { ops = ops / 2 * 2; optimized; legacy }

(* Translation in the TLB-hit regime: the memoized fast path vs the
   pre-overhaul TLB front end ([set_tcache false]). *)
let bench_translate ~ops =
  let clk = Hw.Clock.create () in
  let cpu = Hw.Cpu.create clk in
  let mem = Hw.Phys_mem.create ~frames:4096 in
  let pt = Hw.Page_table.create mem ~owner:Hw.Phys_mem.Host in
  let pages = 64 in
  for i = 0 to pages - 1 do
    ignore (Hw.Page_table.map pt ~va:(0x4000_0000 + (i * 4096)) ~pfn:(100 + i) ~flags:Hw.Pte.default_flags ())
  done;
  let touch () =
    for i = 0 to ops - 1 do
      let va = 0x4000_0000 + (i land (pages - 1)) * 4096 in
      match Hw.Cpu.access cpu pt ~va ~access_kind:Hw.Pks.Read () with
      | Ok _ -> ()
      | Error _ -> failwith "engine bench: unexpected fault"
    done
  in
  (* warm the TLB (and cache) so both sides sit in the hit regime *)
  let side tcache () =
    Hw.Cpu.set_tcache cpu tcache;
    touch ();
    let ns = time touch in
    Hw.Cpu.set_tcache cpu true;
    ns
  in
  { ops; optimized = side true; legacy = side false }

(* Min-of-N over interleaved repetitions: a host hiccup or frequency
   shift lands on one repetition of one side, not on the whole
   section.  [spread] is (max - min) / min over the repetitions. *)
let repeats = 5

type measure = {
  ops : int;
  optimized_ns : float;  (** min over repetitions *)
  legacy_ns : float;
  optimized_spread : float;
  legacy_spread : float;
  runs : (float * float) array;  (** per repetition: optimized, legacy *)
}

let spread xs =
  let lo = Array.fold_left min infinity xs and hi = Array.fold_left max neg_infinity xs in
  (hi -. lo) /. lo

let measure (s : section) =
  let runs =
    Array.init repeats (fun _ ->
        let o = s.optimized () in
        (o, s.legacy ()))
  in
  let opt = Array.map fst runs and leg = Array.map snd runs in
  {
    ops = s.ops;
    optimized_ns = Array.fold_left min infinity opt;
    legacy_ns = Array.fold_left min infinity leg;
    optimized_spread = spread opt;
    legacy_spread = spread leg;
    runs;
  }

let speedup m = m.legacy_ns /. m.optimized_ns

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let print_measure name m =
  Printf.printf "  %-12s %8.1f ns/op optimized  %8.1f ns/op legacy  %6.2fx  (spread %.0f%% / %.0f%%)\n"
    name
    (m.optimized_ns /. float_of_int m.ops)
    (m.legacy_ns /. float_of_int m.ops)
    (speedup m) (100.0 *. m.optimized_spread) (100.0 *. m.legacy_spread)

let measure_json name m =
  ( name,
    Report.Json.Obj
      [
        ("ops", Report.Json.Int m.ops);
        ("optimized_ns_per_op", Report.Json.Float (m.optimized_ns /. float_of_int m.ops));
        ("legacy_ns_per_op", Report.Json.Float (m.legacy_ns /. float_of_int m.ops));
        ("speedup", Report.Json.Float (speedup m));
        ("optimized_spread", Report.Json.Float m.optimized_spread);
        ("legacy_spread", Report.Json.Float m.legacy_spread);
      ] )

let serve_json (r : Ioplane.Serve.result) =
  Report.Json.Obj
    [
      ("domains", Report.Json.Int r.r_domains);
      ("wall_ns", Report.Json.Float r.r_wall_ns);
      ("throughput_rps", Report.Json.Float r.r_throughput_rps);
      ("requests", Report.Json.Int r.r_requests);
      ("p99_us", Report.Json.Float r.r_p99_us);
    ]

let run ?(json = false) () =
  section "Engine overhaul: hot paths vs pre-overhaul replicas (host wall-clock)";
  (* Weights mirror the simulator's own event mix: clock charges
     dominate, probes fire on every traced action, translations and
     arena maintenance are rarer. *)
  let alloc = measure (bench_alloc ~ops:400_000) in
  let arena = measure (bench_arena ~ops:100_000) in
  let translate = measure (bench_translate ~ops:200_000) in
  let probe = measure (bench_probe ~ops:1_200_000) in
  let clock = measure (bench_clock ~ops:3_000_000) in
  print_measure "alloc" alloc;
  print_measure "arena" arena;
  print_measure "translate" translate;
  print_measure "probe" probe;
  print_measure "clock" clock;
  let sections = [ alloc; arena; translate; probe; clock ] in
  let total_ops = List.fold_left (fun a m -> a + m.ops) 0 sections in
  let opt_ns = List.fold_left (fun a m -> a +. m.optimized_ns) 0.0 sections in
  let leg_ns = List.fold_left (fun a m -> a +. m.legacy_ns) 0.0 sections in
  let opt_eps = float_of_int total_ops /. (opt_ns /. 1e9) in
  let leg_eps = float_of_int total_ops /. (leg_ns /. 1e9) in
  (* The gate is on the min-of-N totals; the per-repetition composites
     show how far a single-shot measurement would have wandered. *)
  let composite = leg_ns /. opt_ns in
  let per_rep =
    Array.init repeats (fun i ->
        let sum side = List.fold_left (fun a m -> a +. side m.runs.(i)) 0.0 sections in
        sum snd /. sum fst)
  in
  let rep_lo = Array.fold_left min infinity per_rep and rep_hi = Array.fold_left max neg_infinity per_rep in
  let speed_ok = composite >= 10.0 in
  Printf.printf
    "\ncomposite (min of %d interleaved runs): %.2fM events/s optimized vs %.2fM events/s legacy — \
     %.2fx  %s\n  single-run composites ranged %.2fx .. %.2fx\n"
    repeats (opt_eps /. 1e6) (leg_eps /. 1e6) composite
    (if speed_ok then "OK (>= 10x)" else "VIOLATED (< 10x)")
    rep_lo rep_hi;

  section "Engine overhaul: domain-sharded serve (simulated makespan)";
  let cfg =
    {
      Ioplane.Serve.default_config with
      Ioplane.Serve.backend = "cki";
      containers = 4;
      requests_per_container = 50;
      window = 4;
    }
  in
  let serve domains =
    let r, containers = Ioplane.Serve.run ~domains cfg in
    (match Analysis.check_machine ~containers with
    | [] -> ()
    | vs -> Printf.printf "  !! domains=%d: %d invariant findings\n" domains (List.length vs));
    Printf.printf "  domains=%d  makespan %10.0f ns  throughput %10.1f req/s\n" domains
      r.Ioplane.Serve.r_wall_ns r.Ioplane.Serve.r_throughput_rps;
    r
  in
  let r1 = serve 1 in
  let r4 = serve 4 in
  let scaling = r4.Ioplane.Serve.r_throughput_rps /. r1.Ioplane.Serve.r_throughput_rps in
  let scaling_ok = scaling > 2.0 in
  Printf.printf "\nscaling 1 -> 4 domains: %.2fx  %s\n" scaling
    (if scaling_ok then "OK (> 2x)" else "VIOLATED (<= 2x)");

  if json then begin
    Report.Json.write_file "BENCH_engine.json"
      (Report.Json.Obj
         [
           ("bench", Report.Json.String "engine");
           ( "note",
             Report.Json.String
               "legacy = pre-overhaul hot-path equivalents measured in the same run (boxed \
                frame records + per-frame int64 tables, boxed probe events via closure sink, \
                string-keyed clock charges, tcache off); section timings are host wall-clock \
                ns/op, the minimum over interleaved optimized/legacy repetitions, with \
                (max - min) / min over the repetitions as the spread; sharding scaling is \
                over the simulated parallel makespan" );
           ( "sections",
             Report.Json.Obj
               [
                 measure_json "alloc" alloc;
                 measure_json "arena" arena;
                 measure_json "translate" translate;
                 measure_json "probe" probe;
                 measure_json "clock" clock;
               ] );
           ( "composite",
             Report.Json.Obj
               [
                 ("events", Report.Json.Int total_ops);
                 ("optimized_events_per_sec", Report.Json.Float opt_eps);
                 ("legacy_events_per_sec", Report.Json.Float leg_eps);
                 ("speedup", Report.Json.Float composite);
                 ("repeats", Report.Json.Int repeats);
                 ("single_run_speedup_min", Report.Json.Float rep_lo);
                 ("single_run_speedup_max", Report.Json.Float rep_hi);
                 ("speedup_target", Report.Json.Float 10.0);
                 ("speedup_ok", Report.Json.Bool speed_ok);
               ] );
           ( "sharding",
             Report.Json.Obj
               [
                 ("domains_1", serve_json r1);
                 ("domains_4", serve_json r4);
                 ("scaling", Report.Json.Float scaling);
                 ("scaling_target", Report.Json.Float 2.0);
                 ("scaling_ok", Report.Json.Bool scaling_ok);
               ] );
         ]);
    Printf.printf "wrote BENCH_engine.json\n"
  end
