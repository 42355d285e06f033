(* clone-migrate: warm-clone scale-out and live pre-copy migration.

   One cycle is [clones_per_cycle] spawn-burst-destroy ops followed by
   one migration.  A spawn takes a warm CoW clone from a
   Snapshot.Pool, verifies it with Analysis.check_machine, writes a
   seeded burst of heap pages (each write to a shared page breaks CoW)
   and destroys the clone.  A migration moves a dirtying app between
   the two hosts of a Migrate.Fabric with Migrate.Engine.migrate; the
   dirty set of every pre-copy round comes from the benchmark's own
   seeded [work] closure.  An op is one spawn-burst-destroy or one
   migration.

   Chosen because it drives snapshot, analysis, migrate and the memory
   layers' write side (CoW breaks, dirty-tracking epochs, frame
   alloc/free), where guest-memory mostly faults in and reads. *)

module K = Kernel_model

let clones_per_cycle = 4
let template_heap_pages = 512
let burst_pages = 128
let app_heap_pages = 1024

(* Pages dirtied per simulated ns of source serving; below the link's
   per-page wire rate, so pre-copy converges. *)
let dirty_rate = 4.0e-5
(* Enough migrations for a median with ten samples beyond it. *)
let sim_cycles = 21
let container_cfg = { Cki.Config.default with Cki.Config.segment_frames = 2048; vcpus = 1 }

type app = { mutable container : Cki.Container.t; mutable task : K.Task.t; heap : Hw.Addr.va; mutable home : int }

type env = {
  host : Cki.Host.t;
  mem : Hw.Phys_mem.t;
  pool : Snapshot.Pool.t;
  heap : Hw.Addr.va;  (** the templates' heap, inherited by every clone *)
  fabric : Migrate.Fabric.t;
  app : app;
}

let map_heap b task pages =
  match Virt.Backend.syscall_exn b task (K.Syscall.Mmap { pages; prot = K.Vma.prot_rw }) with
  | K.Syscall.Rint va ->
      ignore (K.Mm.touch_range task.K.Task.mm ~start:va ~pages ~write:true);
      va
  | _ -> failwith "clone-migrate: mmap"

(* A booted container with one task and a resident heap. *)
let boot host pages =
  let c = Cki.Container.create ~cfg:container_cfg host in
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  let heap = map_heap b task pages in
  (c, task, heap)

let setup () =
  let machine = Hw.Machine.create ~cpus:2 ~mem_mib:256 () in
  let host = Cki.Host.create machine in
  let heap = ref 0 in
  let pool =
    Snapshot.Pool.create ~target:2
      ~make:(fun () ->
        let c, _, h = boot host template_heap_pages in
        heap := h;
        match Snapshot.Template.create c with
        | Ok t -> t
        | Error e -> failwith ("clone-migrate: template: " ^ Snapshot.Template.show_error e))
      ()
  in
  let fabric = Migrate.Fabric.create ~hosts:2 ~mem_mib:128 () in
  let c, task, app_heap = boot (Migrate.Fabric.host fabric 0) app_heap_pages in
  ignore (Migrate.Fabric.expose fabric ~name:"svc" ~home:0);
  {
    host;
    mem = Hw.Machine.mem machine;
    pool;
    heap = !heap;
    fabric;
    app = { container = c; task; heap = app_heap; home = 0 };
  }

type spans = {
  spawn : int;
  verify : int;
  touch : int;
  destroy : int;
  migrate : int;
  capture : int;
  encode : int;
  materialized : int;
  owned : int;
}

let register tr =
  let r call metric = Spans.register tr ~call ~metric in
  {
    spawn = r "Pool.spawn_fast" "snapshot.spawn_s";
    verify = r "Analysis.check_machine" "analysis.verify_s";
    touch = r "Kernel.touch" "kernel.touch_s";
    destroy = r "Container.destroy" "core.destroy_s";
    migrate = r "Engine.migrate" "migrate.migrate_s";
    capture = r "Capture.capture" "snapshot.capture_s";
    encode = r "Image.encode" "snapshot.capture_s";
    materialized = r "Restore.materialized_frames" "snapshot.account_s";
    owned = r "Fabric.owned_frames" "migrate.account_s";
  }

type acc = {
  mutable ops : int;
  mutable failed : int;
  mutable sim_ops : int;  (** ops and failures of the first sim_cycles *)
  mutable sim_failed : int;
  mutable spawns : int;
  mutable migrations : int;
  mutable op_wall_us : float list;
  mutable sim_spawn_ns : float list;  (** first sim_cycles *)
  mutable sim_downtime_ns : float list;  (** first sim_cycles *)
  mutable cow_breaks : int;
  mutable materialized : int;  (** first sim_cycles *)
  mutable rounds : int;
  mutable dirty_pages : int;
  mutable frames_full : int;
  mutable frames_resent : int;
  mutable fabric_bytes : int;
  mutable leaked : int;
  ledger : Ledger.t;
  mutable checks : Measure.check list;
}

let new_acc () =
  {
    ops = 0;
    failed = 0;
    sim_ops = 0;
    sim_failed = 0;
    spawns = 0;
    migrations = 0;
    op_wall_us = [];
    sim_spawn_ns = [];
    sim_downtime_ns = [];
    cow_breaks = 0;
    materialized = 0;
    rounds = 0;
    dirty_pages = 0;
    frames_full = 0;
    frames_resent = 0;
    fabric_bytes = 0;
    leaked = 0;
    ledger = Ledger.create ();
    checks = [];
  }

let fail acc what detail =
  acc.failed <- acc.failed + 1;
  if List.length acc.checks < 20 then acc.checks <- Measure.check what false detail :: acc.checks

(* ------------------------------------------------------------------ *)
(* Output checks (each has a self-test in Selftest)                    *)
(* ------------------------------------------------------------------ *)

(* Frames a destroyed container left behind: the free count must be
   back where it was before the spawn. *)
let leaked_frames mem ~free_before = free_before - Hw.Phys_mem.free_frames mem

(* The target re-capture must reproduce the stop-and-copy image
   byte-for-byte. *)
let recapture_matches ~golden ~recaptured = String.equal golden recaptured

let scan tr sp acc c what =
  Spans.enter tr sp.verify;
  let v = Analysis.check_machine ~containers:[ c ] in
  Spans.leave tr sp.verify;
  if v <> [] then fail acc what (Printf.sprintf "%d violations" (List.length v))

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

let app_task c =
  match K.Kernel.tasks (Cki.Container.backend c).Virt.Backend.kernel with
  | t :: _ -> t
  | [] -> failwith "clone-migrate: container has no task"

let spawn_op tr sp env acc rng ~sample =
  let clock = Hw.Machine.clock (Cki.Host.machine env.host) in
  let free_before = Hw.Phys_mem.free_frames env.mem in
  Spans.enter tr sp.spawn;
  let res, ns = Hw.Clock.timed clock (fun () -> Snapshot.Pool.spawn_fast ~verify:false env.pool) in
  Spans.leave tr sp.spawn;
  match res with
  | Error e -> fail acc "warm clone spawns" (Snapshot.Template.show_error e)
  | Ok c ->
      if sample then acc.sim_spawn_ns <- ns :: acc.sim_spawn_ns;
      scan tr sp acc c "every clone passes the analysis scanner";
      let task = app_task c in
      let mm = task.K.Task.mm in
      let kernel = (Cki.Container.backend c).Virt.Backend.kernel in
      let cow0 = K.Mm.cow_count mm in
      for _ = 1 to burst_pages do
        let p = Rng.int rng template_heap_pages in
        Spans.enter tr sp.touch;
        K.Kernel.touch kernel task (env.heap + (p * Hw.Addr.page_size)) ~write:true;
        Spans.leave tr sp.touch
      done;
      acc.cow_breaks <- acc.cow_breaks + cow0 - K.Mm.cow_count mm;
      if sample then begin
        Spans.enter tr sp.materialized;
        acc.materialized <- acc.materialized + Snapshot.Restore.materialized_frames c;
        Spans.leave tr sp.materialized
      end;
      Spans.enter tr sp.destroy;
      Cki.Container.destroy c;
      Spans.leave tr sp.destroy;
      let leaked = leaked_frames env.mem ~free_before in
      if leaked <> 0 then begin
        acc.leaked <- acc.leaked + leaked;
        fail acc "destroy returns every clone frame" (Printf.sprintf "%d frames" leaked)
      end;
      acc.spawns <- acc.spawns + 1

(* The source's serving loop during pre-copy: a seeded dirty set per
   round, sized by the round's wire-time budget. *)
let work app rng ~round:_ ~budget_ns =
  let mm = app.task.K.Task.mm in
  for _ = 1 to int_of_float (budget_ns *. dirty_rate) do
    K.Mm.touch mm (app.heap + (Rng.int rng app_heap_pages * Hw.Addr.page_size)) ~write:true
  done

let migrate_op tr sp env acc rng ~sample =
  let fab = env.fabric and app = env.app in
  let src = app.home in
  let dst = 1 - src in
  let bytes0 = Migrate.Fabric.transferred_bytes fab in
  Spans.enter tr sp.migrate;
  let res =
    Migrate.Engine.migrate fab ~src ~dst ~name:"svc" app.container ~work:(work app rng)
      Migrate.Engine.default_opts
  in
  Spans.leave tr sp.migrate;
  match res with
  | Error e -> fail acc "migration succeeds" (Migrate.Engine.show_error e)
  | Ok st ->
      let open Migrate.Engine in
      if st.outcome <> Completed then fail acc "migration completes" "outcome is not Completed";
      if sample then acc.sim_downtime_ns <- st.downtime_ns :: acc.sim_downtime_ns;
      acc.rounds <- acc.rounds + List.length st.rounds;
      acc.dirty_pages <- acc.dirty_pages + List.fold_left (fun a r -> a + r.r_dirty) 0 st.rounds;
      acc.frames_full <- acc.frames_full + st.frames_full;
      acc.frames_resent <- acc.frames_resent + st.frames_resent;
      acc.fabric_bytes <- acc.fabric_bytes + Migrate.Fabric.transferred_bytes fab - bytes0;
      Spans.enter tr sp.owned;
      let leaked = Migrate.Fabric.owned_frames fab ~hid:st.loser_hid ~container:st.loser_container in
      Spans.leave tr sp.owned;
      if leaked <> 0 then begin
        acc.leaked <- acc.leaked + leaked;
        fail acc "the source copy leaves no frames" (Printf.sprintf "%d frames" leaked)
      end;
      scan tr sp acc st.live "the migrated copy passes the analysis scanner";
      Spans.enter tr sp.capture;
      let recap = Snapshot.Capture.capture st.live in
      Spans.leave tr sp.capture;
      (match (recap, st.final_image) with
      | Ok img, Some golden ->
          let encode i = Spans.wrap tr sp.encode (fun () -> Snapshot.Image.encode i) in
          if not (recapture_matches ~golden:(encode golden) ~recaptured:(encode img)) then
            fail acc "re-capture reproduces the final image" "bytes differ"
      | Error e, _ -> fail acc "the migrated copy re-captures" (Snapshot.Capture.show_error e)
      | Ok _, None -> fail acc "migration records its final image" "none");
      app.container <- st.live;
      app.task <- app_task st.live;
      app.home <- st.live_hid;
      acc.migrations <- acc.migrations + 1

let timed_op acc f =
  let t0 = Measure.now_ns () in
  f ();
  acc.op_wall_us <- (float_of_int (Measure.now_ns () - t0) /. 1e3) :: acc.op_wall_us;
  acc.ops <- acc.ops + 1

let cycle tr sp env acc ~seed i =
  let rng = Rng.make ~seed ~stream:i in
  let sample = i < sim_cycles in
  let pool_clock = Hw.Machine.clock (Cki.Host.machine env.host) in
  let marks = List.map Ledger.mark (pool_clock :: List.init 2 (Migrate.Fabric.clock env.fabric)) in
  for _ = 1 to clones_per_cycle do
    Spans.set_op tr acc.ops;
    timed_op acc (fun () -> spawn_op tr sp env acc rng ~sample)
  done;
  Spans.set_op tr acc.ops;
  timed_op acc (fun () -> migrate_op tr sp env acc rng ~sample);
  List.iter2
    (fun before clock -> Ledger.add acc.ledger ~before clock)
    marks
    (pool_clock :: List.init 2 (Migrate.Fabric.clock env.fabric));
  if sample then begin
    acc.sim_ops <- acc.ops;
    acc.sim_failed <- acc.failed
  end

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

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
        [ env.app.container ])
  in
  let checks = ref [] in
  let pct name ~what l q =
    let a = Measure.sorted_of_list l in
    Measure.pct_metric ~checks name "us" ~n:(Array.length a) (q a)
    |> List.map (fun m -> { m with Measure.note = m.Measure.note ^ " " ^ what })
  in
  let median a = Measure.percentile a 50.0 in
  let us = List.map (fun ns -> ns /. 1e3) in
  let per = Measure.per in
  let count name = Ledger.count t.ledger name in
  let all = m :: (match traced with Some _ -> [ t ] | None -> []) in
  let sum f = List.fold_left (fun a acc -> a + f acc) 0 all in
  let sample = Printf.sprintf "first %d cycles" sim_cycles in
  let lines =
    pct "op_wall_p50_us" ~what:"ops" m.op_wall_us median
    @ pct "op_wall_tail_us" ~what:"ops" m.op_wall_us Measure.tail
    @ pct "sim_spawn_us" ~what:("spawns, " ^ sample) (us m.sim_spawn_ns) median
    @ pct "sim_downtime_us" ~what:("migrations, " ^ sample) (us m.sim_downtime_ns) median
    @ [
        Measure.metric "failed_frac" "frac" (per m.sim_ops m.sim_failed)
          ~note:(Printf.sprintf "%d of %d ops in the %s" m.sim_failed m.sim_ops sample);
      ]
  in
  let setup_raw_s, setup_s = Runner.time_setups setup in
  {
    Runner.setup_raw_s;
    setup_s;
    main;
    traced = Option.map (fun ((ph, _), tr, t0) -> (ph, tr, t0)) traced;
    attempted = sum (fun a -> a.ops);
    failed = sum (fun a -> a.failed);
    lines;
    layer =
      Measure.
        [
          metric "kernel.cow_breaks_per_op" "1/op" (per t.spawns t.cow_breaks) ~note:"per spawn";
          metric "snapshot.materialized_frames_per_clone" "frames"
            (per (sim_cycles * clones_per_cycle) t.materialized)
            ~note:"first sim_cycles";
          metric "kernel.dirty_pages_per_round" "pages" (per t.rounds t.dirty_pages);
          metric "migrate.rounds_per_op" "1/op" (per t.migrations t.rounds) ~note:"per migration";
          metric "migrate.resent_ratio" "ratio" (per t.frames_full t.frames_resent);
          metric "migrate.fabric_bytes_per_op" "bytes" (per t.migrations t.fabric_bytes) ~note:"per migration";
          metric "core.ksm_calls_per_op" "1/op" (per t.ops (count "ksm_call"));
          metric "kernel.faults_per_op" "1/op" (per t.ops (count "pf_service"));
          metric "hw.tlb_hit_ratio" "ratio" (per (count "tlb_hit" + count "tlb_miss_walk") (count "tlb_hit"));
          metric "hw.frames_leaked" "count" (float_of_int t.leaked);
          metric "hw.probe_dropped" "count" (float_of_int v.Verify.dropped);
          metric "trace.split_resolved" "bool" 1.0 ~note:"both phases run the same code";
        ];
    ledger = t.ledger;
    ledger_ops = t.ops;
    checks =
      !checks
      @ List.concat_map (fun a -> a.checks @ [ Ledger.check a.ledger ]) (vacc :: all)
      @ [ Verify.lint_check v; Verify.scan_check v ];
  }
