(* guest-memory: a seeded mmap -> random touch -> munmap stream on the
   CKI and HVM-BM backends.

   One cycle maps [region_pages] pages on each backend and touches
   [touches] seeded random pages (reads and writes mixed) through
   Kernel_model.Kernel.touch.  On CKI the pages the stream made
   resident are then re-read through Hw.Cpu.access on the container's
   vCPU: [hot_reads] over a hot set that fits the TLB (1536 entries)
   and the translation cache (1024 slots), and [cold_reads] over every
   resident page, a cold set several times their reach.  Then the
   region is unmapped.  An op is one page access: a touch on either
   backend or a re-read.

   Chosen because it loads hw, kernel.Mm, CKI's KSM page-table path
   and HVM's EPT path while bypassing ioplane, fleet and snapshot:
   a serving-loop optimisation must show no change here. *)

module K = Kernel_model

let region_pages = 8192
let touches = 8192
let hot_pages = 512
let hot_reads = 8192
let cold_reads = 8192
let mem_mib = 256

(* Simulated-metric sample: the first [sim_cycles] cycles of every run,
   whatever the run length, so equal seeds give equal values. *)
let sim_cycles = 4

type env = {
  cki : Cki.Container.t;
  cki_task : K.Task.t;
  hvm : Virt.Backend.t;
  hvm_task : K.Task.t;
  mem : Hw.Phys_mem.t;
}

let setup () =
  let cki = Cki.Container.create_standalone ~mem_mib () in
  let cki_task = Virt.Backend.spawn (Cki.Container.backend cki) in
  let hvm = Virt.Hvm.create (Hw.Machine.create ~mem_mib ()) in
  let hvm_task = Virt.Backend.spawn hvm in
  { cki; cki_task; hvm; hvm_task; mem = Hw.Machine.mem (Cki.Host.machine cki.Cki.Container.host) }

type spans = { mmap : int; touch : int; access : int; munmap : int }

let register tr =
  let r call metric = Spans.register tr ~call ~metric in
  {
    mmap = r "Backend.syscall Mmap" "kernel.mmap_s";
    touch = r "Kernel.touch" "kernel.touch_s";
    access = r "Hw.Cpu.access" "hw.access_s";
    munmap = r "Backend.syscall Munmap" "kernel.munmap_s";
  }

(* Per-run accumulators. *)
type acc = {
  mutable ops : int;
  mutable failed : int;
  mutable sim_ops : int;  (** ops and failures of the first sim_cycles *)
  mutable sim_failed : int;
  mutable cki_stream_ns : float;  (** CKI mmap + touches + munmap, first sim_cycles *)
  mutable hvm_stream_ns : float;
  mutable sim_touches : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable faults : int;
  mutable stream_touches : int;
  mutable leaked : int;
  cki_ledger : Ledger.t;  (** CKI stream regions *)
  hvm_ledger : Ledger.t;
  read_ledger : Ledger.t;  (** CKI re-read regions *)
  mutable checks : Measure.check list;
}

let new_acc () =
  {
    ops = 0;
    failed = 0;
    sim_ops = 0;
    sim_failed = 0;
    cki_stream_ns = 0.0;
    hvm_stream_ns = 0.0;
    sim_touches = 0;
    tlb_hits = 0;
    tlb_misses = 0;
    faults = 0;
    stream_touches = 0;
    leaked = 0;
    cki_ledger = Ledger.create ();
    hvm_ledger = Ledger.create ();
    read_ledger = Ledger.create ();
    checks = [];
  }

let fail acc what detail =
  acc.failed <- acc.failed + 1;
  if List.length acc.checks < 20 then acc.checks <- Measure.check what false detail :: acc.checks

(* The seeded access stream of one cycle: page index and read/write. *)
let stream rng =
  Array.init touches (fun _ ->
      let p = Rng.int rng region_pages in
      (p, Rng.int rng 2 = 0))

let mmap tr sp acc b task =
  Spans.enter tr sp.mmap;
  let r = Virt.Backend.syscall b task (K.Syscall.Mmap { pages = region_pages; prot = K.Vma.prot_rw }) in
  Spans.leave tr sp.mmap;
  match r with
  | K.Syscall.Rint va -> Some va
  | _ ->
      fail acc "mmap succeeds" b.Virt.Backend.label;
      None

let munmap tr sp acc b task va =
  Spans.enter tr sp.munmap;
  let r = Virt.Backend.syscall b task (K.Syscall.Munmap { addr = va; pages = region_pages }) in
  Spans.leave tr sp.munmap;
  match r with K.Syscall.Runit | K.Syscall.Rint _ -> () | _ -> fail acc "munmap succeeds" b.Virt.Backend.label

(* mmap, the touch stream, [between], munmap; returns the simulated ns
   of the stream itself (excluding [between]). *)
let run_stream tr sp acc b task accesses ~ledger ~between =
  let kernel = b.Virt.Backend.kernel and clock = b.Virt.Backend.clock in
  let m0 = Ledger.mark clock in
  let t0 = Hw.Clock.now clock in
  match mmap tr sp acc b task with
  | None -> 0.0
  | Some va ->
      Array.iteri
        (fun i (p, write) ->
          Spans.set_op tr (acc.ops + i);
          Spans.enter tr sp.touch;
          (try K.Kernel.touch kernel task (va + (p * Hw.Addr.page_size)) ~write
           with e -> fail acc "touch succeeds" (Printexc.to_string e));
          Spans.leave tr sp.touch)
        accesses;
      acc.ops <- acc.ops + Array.length accesses;
      Ledger.add ledger ~before:m0 clock;
      let stream_ns = Hw.Clock.now clock -. t0 in
      between va;
      let m1 = Ledger.mark clock in
      let t1 = Hw.Clock.now clock in
      munmap tr sp acc b task va;
      Ledger.add ledger ~before:m1 clock;
      stream_ns +. (Hw.Clock.now clock -. t1)

(* Re-read resident pages through the container's vCPU and check each
   translation against the guest's own page map. *)
let reread tr sp acc env rng va =
  let c = env.cki in
  let mm = env.cki_task.K.Task.mm in
  let lo = Hw.Addr.vpn_of_va va in
  let pages = ref [] in
  K.Mm.iter_pages mm (fun vpn pfn -> if vpn >= lo && vpn < lo + region_pages then pages := (vpn, pfn) :: !pages);
  let resident = Array.of_list (List.sort compare !pages) in
  let n = Array.length resident in
  if n = 0 then fail acc "stream leaves resident pages" "none"
  else begin
    let cpu = Cki.Container.cpu c c.Cki.Container.current_vcpu in
    let root = Hashtbl.find c.Cki.Container.aspaces (K.Mm.aspace mm) in
    let pt = Hw.Page_table.of_root env.mem root in
    let clock = cpu.Hw.Cpu.clock in
    let mode = cpu.Hw.Cpu.mode in
    Hw.Cpu.enter_user cpu;
    let h0 = Hw.Tlb.hits cpu.Hw.Cpu.tlb and m0 = Hw.Tlb.misses cpu.Hw.Cpu.tlb in
    let mark = Ledger.mark clock in
    let read k set =
      let vpn, pfn = resident.(Rng.int rng set) in
      Spans.set_op tr (acc.ops + k);
      Spans.enter tr sp.access;
      let r = Hw.Cpu.access cpu pt ~va:(Hw.Addr.va_of_vpn vpn) ~access_kind:Hw.Pks.Read () in
      Spans.leave tr sp.access;
      match r with
      | Ok pa when Hw.Addr.pfn_of_pa pa = pfn -> ()
      | Ok pa -> fail acc "re-read translates to the guest's frame" (Printf.sprintf "vpn %d -> pa %d, want pfn %d" vpn pa pfn)
      | Error f -> fail acc "re-read succeeds" (Hw.Cpu.show_fault f)
    in
    let hot = min hot_pages n in
    for k = 0 to hot_reads - 1 do
      read k hot
    done;
    for k = 0 to cold_reads - 1 do
      read (hot_reads + k) n
    done;
    acc.ops <- acc.ops + hot_reads + cold_reads;
    Ledger.add acc.read_ledger ~before:mark clock;
    acc.tlb_hits <- acc.tlb_hits + Hw.Tlb.hits cpu.Hw.Cpu.tlb - h0;
    acc.tlb_misses <- acc.tlb_misses + Hw.Tlb.misses cpu.Hw.Cpu.tlb - m0;
    cpu.Hw.Cpu.mode <- mode
  end

(* Guest frames holding data: allocated from the container's buddy
   allocator and not a declared page-table page (the model keeps the
   tables of an unmapped range, as Linux may). *)
let frames_in_use env =
  let buddy = Cki.Container.buddy env.cki in
  K.Buddy.total_frames buddy - K.Buddy.free_frames buddy
  - List.length (Cki.Ksm.declared_ptps (Cki.Container.ksm env.cki))

let cycle tr sp env acc ~seed i =
  let rng = Rng.make ~seed ~stream:i in
  let accesses = stream rng in
  let cki_b = Cki.Container.backend env.cki in
  let mm = env.cki_task.K.Task.mm in
  let resident0 = K.Mm.resident_pages mm and used0 = frames_in_use env in
  let faults0 = K.Mm.fault_count mm in
  let cki_ns =
    run_stream tr sp acc cki_b env.cki_task accesses ~ledger:acc.cki_ledger
      ~between:(reread tr sp acc env rng)
  in
  acc.faults <- acc.faults + K.Mm.fault_count mm - faults0;
  acc.stream_touches <- acc.stream_touches + touches;
  let leaked = K.Mm.resident_pages mm - resident0 + (frames_in_use env - used0) in
  if leaked <> 0 then begin
    acc.leaked <- acc.leaked + leaked;
    fail acc "munmap returns every CKI frame" (Printf.sprintf "%d frames leaked in cycle %d" leaked i)
  end;
  let hvm_resident0 = K.Mm.resident_pages env.hvm_task.K.Task.mm in
  let hvm_ns =
    run_stream tr sp acc env.hvm env.hvm_task accesses ~ledger:acc.hvm_ledger ~between:ignore
  in
  if K.Mm.resident_pages env.hvm_task.K.Task.mm <> hvm_resident0 then
    fail acc "munmap returns every HVM page" (Printf.sprintf "cycle %d" i);
  if i < sim_cycles then begin
    acc.cki_stream_ns <- acc.cki_stream_ns +. cki_ns;
    acc.hvm_stream_ns <- acc.hvm_stream_ns +. hvm_ns;
    acc.sim_touches <- acc.sim_touches + touches;
    acc.sim_ops <- acc.ops;
    acc.sim_failed <- acc.failed
  end

(* Mm.munmap clears PTEs without a TLB shootdown, so translations the
   re-reads cached outlive the unmap.  The scanner's Stale_tlb findings
   are that model defect; they are counted and reported, not hidden,
   and any other finding fails the run. *)
let stale_tlb = function
  | Analysis.Invariants.Stale_tlb { reason = "no live translation"; _ } -> true
  | _ -> false

let run (cfg : Runner.cfg) =
  let env = setup () in
  let run_phase tr seconds =
    let sp = register tr in
    let acc = new_acc () in
    let ph =
      Runner.phase ~seconds ~min_units:sim_cycles
        ~ops:(fun () -> acc.ops)
        (fun i -> cycle tr sp env acc ~seed:cfg.seed i)
    in
    (ph, acc)
  in
  let (main, m), traced = Runner.phases cfg run_phase in
  let t = match traced with Some ((_, t), _, _) -> t | None -> m in
  let vacc = new_acc () in
  let v =
    let tr = Spans.create ~enabled:false () in
    Verify.recorded (fun () ->
        cycle tr (register tr) env vacc ~seed:cfg.seed sim_cycles;
        [ env.cki ])
  in
  let per = Measure.per in
  let stale = List.length (List.filter stale_tlb v.Verify.violations) in
  let all = m :: (match traced with Some _ -> [ t ] | None -> []) in
  let sum f = List.fold_left (fun a acc -> a + f acc) 0 all in
  let setup_raw_s, setup_s = Runner.time_setups setup in
  {
    Runner.setup_raw_s;
    setup_s;
    main;
    traced = Option.map (fun ((ph, _), tr, t0) -> (ph, tr, t0)) traced;
    attempted = sum (fun a -> a.ops);
    failed = sum (fun a -> a.failed);
    lines =
      [
        Measure.metric "sim_ns_per_op" "ns"
          (m.cki_stream_ns /. float_of_int m.sim_touches)
          ~note:(Printf.sprintf "CKI, n=%d accesses in the first %d cycles" m.sim_touches sim_cycles);
        Measure.metric "sim_ns_per_op[hvm]" "ns"
          (m.hvm_stream_ns /. float_of_int m.sim_touches)
          ~note:(Printf.sprintf "HVM-BM comparator, n=%d accesses" m.sim_touches);
        Measure.metric "failed_frac" "frac" (per m.sim_ops m.sim_failed)
          ~note:(Printf.sprintf "%d of %d ops in the first %d cycles" m.sim_failed m.sim_ops sim_cycles);
        Measure.metric "known_defect.stale_tlb_after_munmap" "count" (float_of_int stale)
          ~note:"Mm.munmap issues no TLB shootdown; one verification cycle";
      ];
    layer =
      [
        Measure.metric "kernel.faults_per_op" "1/op" (per t.stream_touches t.faults);
        Measure.metric "core.ksm_calls_per_op" "1/op"
          (per t.stream_touches (Ledger.count t.cki_ledger "ksm_call"));
        Measure.metric "hw.tlb_hit_ratio" "ratio" (per (t.tlb_hits + t.tlb_misses) t.tlb_hits);
        Measure.metric "virt.hvm.sim_ns_per_op" "ns"
          (t.hvm_ledger.Ledger.elapsed_ns /. float_of_int t.stream_touches);
        Measure.metric "hw.frames_leaked" "count" (float_of_int t.leaked);
        Measure.metric "hw.probe_dropped" "count" (float_of_int v.Verify.dropped);
        Measure.metric "trace.split_resolved" "bool" 1.0 ~note:"both phases run the same code";
      ];
    ledger = t.cki_ledger;
    ledger_ops = t.stream_touches;
    checks =
      List.concat_map
        (fun a -> a.checks @ List.map Ledger.check [ a.cki_ledger; a.hvm_ledger; a.read_ledger ])
        (vacc :: all)
      @ [ Verify.lint_check v; Verify.scan_check ~known:stale_tlb v ];
  }
