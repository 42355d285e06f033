(* cki_demo: command-line driver for poking at the CKI reproduction.

     cki_demo micro    [--backend cki|runc|hvm|pvm] [--nested]
     cki_demo attack
     cki_demo policy
     cki_demo kv       [--clients N] [--redis] [--backend ...] [--nested]
     cki_demo serve    [--containers N] [--requests M] [--window W] [--backend ...]
     cki_demo fleet    [--tenants N] [--rate R] [--requests M] [--slo US] [--quota PCT]
     cki_demo migrate  [--rounds N] [--chaos]
     cki_demo snapshot [--out FILE]
     cki_demo restore  [--in FILE]
     cki_demo clone    [--clones N] [--warm K]
     cki_demo model-check [--depth N] [--nest N] [--mutants]
     cki_demo lint-src [--root DIR] [--baseline FILE] [--write-baseline]

   Exit codes: 0 success; 1 usage/command-line errors, an unreadable
   or corrupt snapshot image, or a surviving mutant; 2 when --check
   finds invariant violations or lint findings, or when model-check
   finds a counterexample.

   (The full table/figure regeneration lives in bench/main.exe.) *)

open Cmdliner

(* CKI containers booted during the run; `--check` sanitizes them. *)
let cki_containers : Cki.Container.t list ref = ref []

let track c =
  cki_containers := c :: !cki_containers;
  c

let mk_backend name nested =
  let env = if nested then Virt.Env.Nested else Virt.Env.Bare_metal in
  match name with
  | "runc" -> Virt.Runc.create ~env (Hw.Machine.create ~mem_mib:256 ())
  | "hvm" -> Virt.Hvm.create ~env (Hw.Machine.create ~mem_mib:256 ())
  | "pvm" -> Virt.Pvm.create ~env (Hw.Machine.create ~mem_mib:256 ())
  | "cki" -> Cki.Container.backend (track (Cki.Container.create_standalone ~env ~mem_mib:256 ()))
  | other -> failwith ("unknown backend: " ^ other)

let backend_arg =
  Arg.(value & opt string "cki" & info [ "b"; "backend" ] ~doc:"Backend: cki, runc, hvm, pvm.")

let nested_arg = Arg.(value & flag & info [ "nested" ] ~doc:"Deploy in a nested (IaaS VM) cloud.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "After the run, re-walk every booted CKI container's live page tables from raw \
           physical memory, cross-check against the monitor's claimed state, and lint the \
           recorded probe-event trace.  Exits 2 on any finding.")

(* Run [f] under a probe recorder when [check] is set; afterwards scan
   every container booted during the run and lint the trace.  Findings
   exit with code 2 — distinct from usage errors (1). *)
let with_check check f =
  if not check then f ()
  else begin
    let (), trace = Analysis.Trace.with_recorder f in
    let r =
      {
        Analysis.violations = Analysis.check_machine ~containers:!cki_containers;
        lints = Analysis.lint_trace trace;
      }
    in
    Printf.printf "\n%s" (Analysis.report r);
    if not (Analysis.is_clean r) then exit 2
  end

let micro backend nested check =
  with_check check @@ fun () ->
  let b = mk_backend backend nested in
  let task = Virt.Backend.spawn b in
  let getpid =
    Virt.Backend.mean_latency b ~n:1000 (fun () ->
        ignore (Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid))
  in
  let pages = 1024 in
  let base =
    match
      Virt.Backend.syscall_exn b task
        (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> assert false
  in
  let _, pf =
    Hw.Clock.timed b.Virt.Backend.clock (fun () ->
        ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages ~write:true))
  in
  Printf.printf "%s\n  syscall  %8.0f ns\n  pgfault  %8.0f ns\n" b.Virt.Backend.label getpid
    (pf /. float_of_int pages);
  if b.Virt.Backend.supports_hypercall then begin
    let t0 = Hw.Clock.now b.Virt.Backend.clock in
    b.Virt.Backend.empty_hypercall ();
    Printf.printf "  hypercall%8.0f ns\n" (Hw.Clock.now b.Virt.Backend.clock -. t0)
  end

let attack check =
  with_check check @@ fun () ->
  let c = track (Cki.Container.create_standalone ~mem_mib:256 ()) in
  List.iter
    (fun (name, o) ->
      Printf.printf "%-28s %s\n" name
        (match o with Cki.Attacks.Blocked m -> "blocked: " ^ m | Cki.Attacks.Succeeded -> "ESCAPED"))
    (Cki.Attacks.all c)

let policy () =
  List.iter
    (fun inst ->
      Printf.printf "%-14s blocked=%-5b %s\n" (Hw.Priv.mnemonic inst)
        (Hw.Priv.blocked_in_guest inst)
        (Hw.Priv.show_virtualization (Hw.Priv.virtualized_as inst)))
    Hw.Priv.all_examples

let kv backend nested clients redis check =
  with_check check @@ fun () ->
  let b = mk_backend backend nested in
  let flavor = if redis then Workloads.Kv.Redis else Workloads.Kv.Memcached in
  let thr = Workloads.Kv.run_memtier b ~flavor ~clients ~requests:2000 in
  Printf.printf "%s %s with %d clients: %.1f k ops/s\n" b.Virt.Backend.label
    (Workloads.Kv.show_flavor flavor) clients (thr /. 1e3)

let serve backend nested containers requests window workload rate fsync check =
  let workload =
    match Ioplane.Serve.workload_of_string workload with
    | Some w -> w
    | None -> failwith ("unknown workload: " ^ workload ^ " (memcached|redis|nginx|httpd)")
  in
  with_check check @@ fun () ->
  let cfg =
    {
      Ioplane.Serve.default_config with
      Ioplane.Serve.backend;
      nested;
      containers;
      requests_per_container = requests;
      window;
      workload;
      rate_rps = rate;
      fsync_every = fsync;
    }
  in
  let r, booted = Ioplane.Serve.run cfg in
  cki_containers := booted @ !cki_containers;
  Format.printf "%a@." Ioplane.Serve.pp_result r

(* The fleet controller: per-tenant serving slices with admission
   control, pick-two load balancing and SLO-driven autoscaling over
   warm clones.  Every scale-out clone is re-verified by the analysis
   scanner inside the controller; a verification refusal is a --check
   finding (exit 2) like any other. *)
let fleet tenants rate requests slo max_replicas quota_pct admission domains check =
  if tenants < 1 then failwith "need at least one tenant";
  with_check check @@ fun () ->
  let mk i =
    {
      Fleet.Controller.default_tenant with
      Fleet.Controller.name = Printf.sprintf "tenant%d" i;
      rate_rps = rate;
      requests;
      admission_rps = (if admission <= 0.0 then infinity else admission);
    }
  in
  let cfg =
    {
      Fleet.Controller.default_config with
      Fleet.Controller.tenants = List.init tenants mk;
      autoscaler =
        {
          Fleet.Autoscaler.default_config with
          Fleet.Autoscaler.slo_p99_us = slo;
          max_replicas;
        };
      cpu_quota =
        (if quota_pct <= 0.0 then None
         else Some (1_000_000.0, quota_pct /. 100.0 *. 1_000_000.0));
    }
  in
  let r = Fleet.Controller.run ~domains cfg in
  List.iter (fun tr -> Format.printf "%a@." Fleet.Controller.pp_tenant_result tr) r.Fleet.Controller.tenants;
  Format.printf "makespan %.1f ms (simulated)@." (r.Fleet.Controller.makespan_ns /. 1e6);
  let vf =
    List.fold_left
      (fun a tr -> a + tr.Fleet.Controller.tr_verify_failures)
      0 r.Fleet.Controller.tenants
  in
  if vf > 0 then begin
    Printf.eprintf "%d scale-out clones failed re-verification\n" vf;
    if check then exit 2
  end

(* ------------------------------------------------------------------ *)
(* Live migration                                                      *)
(* ------------------------------------------------------------------ *)

(* One pre-copy migration across a fresh 2-host fabric, then (with
   --chaos) the three failure scenarios plus the leak-injection
   self-test.  A migration must leave exactly one analysis-clean live
   copy and zero frames of the losing copy on the losing host —
   --check turns any departure from that into exit 2. *)
let migrate_cmd_impl rounds chaos check =
  let violations = ref 0 in
  with_check check @@ fun () ->
  let fab = Migrate.Fabric.create ~hosts:2 () in
  let a = Migrate.Chaos.boot_app fab ~hid:0 in
  ignore (Migrate.Fabric.expose fab ~name:"svc" ~home:0);
  let opts = { Migrate.Engine.default_opts with Migrate.Engine.rounds_max = rounds } in
  (match
     Migrate.Engine.migrate fab ~src:0 ~dst:1 ~name:"svc" a.Migrate.Chaos.container
       ~work:(Migrate.Chaos.work_of a) opts
   with
  | Error e ->
      Printf.eprintf "migration failed: %s\n" (Migrate.Engine.show_error e);
      exit 1
  | Ok st ->
      let open Migrate.Engine in
      ignore (track st.live);
      Printf.printf
        "migrated 'svc' host 0 -> host %d: downtime %.0f ns (total %.0f ns)\n\
        \  %d pre-copy rounds (%s), %d full + %d resent frames, %d buffered frames replayed\n"
        st.live_hid st.downtime_ns st.total_ns (List.length st.rounds)
        (if st.converged then "converged" else "round cap")
        st.frames_full st.frames_resent st.replayed;
      let leaked =
        Migrate.Fabric.owned_frames fab ~hid:st.loser_hid ~container:st.loser_container
      in
      Printf.printf "  source frames left behind: %d\n" leaked;
      if leaked > 0 then incr violations);
  if chaos then begin
    Printf.printf "\nchaos scenarios:\n";
    List.iter
      (fun (v : Migrate.Chaos.verdict) ->
        Printf.printf "  %-12s -> host %d live, %d findings, %d leaked, split brain %s: %s\n"
          (Migrate.Chaos.scenario_name v.Migrate.Chaos.scenario)
          v.Migrate.Chaos.live_hid v.Migrate.Chaos.analysis_findings v.Migrate.Chaos.leaked_frames
          (if v.Migrate.Chaos.split_brain then "YES" else "no")
          (if v.Migrate.Chaos.ok then "ok" else "VIOLATION");
        if not v.Migrate.Chaos.ok then incr violations)
      (Migrate.Chaos.all ());
    (* The leak checker must catch a planted frame on a surviving
       loser host (the dead source of Source_crash has nothing left
       to leak). *)
    let caught =
      List.for_all
        (fun (v : Migrate.Chaos.verdict) ->
          if Migrate.Chaos.(v.scenario = Source_crash) then v.Migrate.Chaos.ok
          else (not v.Migrate.Chaos.ok) && v.Migrate.Chaos.leaked_frames > 0)
        (Migrate.Chaos.all ~leak_inject:true ())
    in
    Printf.printf "  leak injection caught: %s\n" (if caught then "ok" else "VIOLATION");
    if not caught then incr violations
  end;
  if !violations > 0 then begin
    Printf.eprintf "%d migration invariant violation(s)\n" !violations;
    if check then exit 2
  end

(* ------------------------------------------------------------------ *)
(* Snapshot / restore / clone                                          *)
(* ------------------------------------------------------------------ *)

(* A little state worth snapshotting: a task with a dirty heap and a
   config file. *)
let init_workload (c : Cki.Container.t) =
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  (match
     Virt.Backend.syscall_exn b task
       (Kernel_model.Syscall.Mmap { pages = 256; prot = Kernel_model.Vma.prot_rw })
   with
  | Kernel_model.Syscall.Rint base ->
      ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:256 ~write:true)
  | _ -> assert false);
  (match
     Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/app.conf"; create = true })
   with
  | Kernel_model.Syscall.Rint fd ->
      ignore
        (Virt.Backend.syscall_exn b task
           (Kernel_model.Syscall.Write { fd; data = Bytes.of_string "threads=4\n" }))
  | _ -> assert false)

let snapshot out check =
  with_check check @@ fun () ->
  let c = track (Cki.Container.create_standalone ~mem_mib:256 ()) in
  init_workload c;
  match Snapshot.Capture.capture c with
  | Error e ->
      Printf.eprintf "capture failed: %s\n" (Snapshot.Capture.show_error e);
      exit 1
  | Ok image ->
      Snapshot.Image.write_file out image;
      Printf.printf "captured container to %s: %d tables, %d aux frames, %d tasks\n" out
        (List.length image.Snapshot.Image.tables)
        (Array.length image.Snapshot.Image.aux)
        (List.length image.Snapshot.Image.tasks)

let restore_cmd_impl input check =
  with_check check @@ fun () ->
  match Snapshot.Image.read_file input with
  | Error e ->
      Printf.eprintf "cannot load %s: %s\n" input (Snapshot.Image.show_decode_error e);
      exit 1
  | Ok image -> (
      let host = Cki.Host.create (Hw.Machine.create ~mem_mib:256 ()) in
      let clock = Hw.Machine.clock (Cki.Host.machine host) in
      match Hw.Clock.timed clock (fun () -> Snapshot.Restore.restore host image) with
      | Ok c, ns ->
          let c = track c in
          let kernel = c.Cki.Container.backend.Virt.Backend.kernel in
          Printf.printf "restored %s in %.0f simulated ns: %d tasks, %d materialized frames\n"
            input ns
            (List.length (Kernel_model.Kernel.tasks kernel))
            (Snapshot.Restore.materialized_frames c)
      | Error e, _ ->
          Printf.eprintf "restore failed: %s\n" (Snapshot.Restore.show_error e);
          exit 1)

let clone_cmd_impl clones warm check =
  with_check check @@ fun () ->
  let host = Cki.Host.create (Hw.Machine.create ~mem_mib:512 ()) in
  let clock = Hw.Machine.clock (Cki.Host.machine host) in
  let cfg = { Cki.Config.default with Cki.Config.segment_frames = 16384 } in
  let make () =
    let c = track (Cki.Container.create ~cfg host) in
    init_workload c;
    match Snapshot.Template.create c with
    | Ok t -> t
    | Error e -> failwith (Snapshot.Template.show_error e)
  in
  let pool = Snapshot.Pool.create ~target:warm ~make () in
  let total = ref 0.0 in
  for _ = 1 to clones do
    match Hw.Clock.timed clock (fun () -> Snapshot.Pool.spawn_fast pool) with
    | Ok c, ns ->
        ignore (track c);
        total := !total +. ns
    | Error e, _ ->
        Printf.eprintf "clone failed: %s\n" (Snapshot.Template.show_error e);
        exit 1
  done;
  Printf.printf "warm pool: %d templates prebooted, %d clones served, %.0f simulated ns/clone\n"
    (Snapshot.Pool.prebooted pool) (Snapshot.Pool.served pool)
    (!total /. float_of_int (max 1 clones))

(* ------------------------------------------------------------------ *)
(* Source auditing                                                     *)
(* ------------------------------------------------------------------ *)

let lint_src root baseline write_baseline =
  let root =
    match root with
    | Some r -> r
    | None -> (
        match Srclint.find_root () with
        | Some r -> r
        | None ->
            Printf.eprintf "lint-src: no repo root (dune-project + lib/) above %s\n" (Sys.getcwd ());
            exit 1)
  in
  let baseline_path =
    match baseline with Some b -> b | None -> Filename.concat root "srclint.baseline"
  in
  let scan = Srclint.scan ~root () in
  if write_baseline then begin
    Srclint.Baseline.save baseline_path scan.Srclint.findings;
    Printf.printf "%s: wrote %d accepted finding(s) (%s)\n" baseline_path
      (List.length scan.Srclint.findings)
      (Format.asprintf "%a" Srclint.pp_stats scan.Srclint.stats)
  end
  else begin
    let entries =
      match Srclint.Baseline.load baseline_path with
      | Ok e -> e
      | Error msg ->
          Printf.eprintf "lint-src: %s\n" msg;
          exit 1
    in
    let chk = Srclint.check ~baseline:entries scan.Srclint.findings in
    Report.Findings.print ~title:"srclint" (Srclint.to_findings chk.Srclint.fresh);
    Format.printf "%a; %d baselined, %d new@." Srclint.pp_stats scan.Srclint.stats
      (List.length chk.Srclint.baselined)
      (List.length chk.Srclint.fresh);
    List.iter
      (fun e ->
        Printf.printf "stale baseline entry (fires nothing, delete it): %s\n"
          (Srclint.Baseline.fingerprint_of_entry e))
      chk.Srclint.stale;
    if chk.Srclint.fresh <> [] then exit 2
  end

(* ------------------------------------------------------------------ *)
(* Domain-race sanitizer                                               *)
(* ------------------------------------------------------------------ *)

(* The static escape-analysis rule family race-check gates on. *)
let escape_family = [ "domain-escape"; "stale-annotation"; "undocumented-annotation" ]

let race_check root inject =
  let root =
    match root with
    | Some r -> r
    | None -> (
        match Srclint.find_root () with
        | Some r -> r
        | None ->
            Printf.eprintf "race-check: no repo root (dune-project + lib/) above %s\n"
              (Sys.getcwd ());
            exit 1)
  in
  (* Static half: the interprocedural sharing analysis, gated on the
     same baseline file as lint-src. *)
  let scan = Srclint.scan ~root () in
  let fam =
    List.filter
      (fun (f : Srclint.Rules.finding) -> List.mem f.Srclint.Rules.rule escape_family)
      scan.Srclint.findings
  in
  let entries =
    match Srclint.Baseline.load (Filename.concat root "srclint.baseline") with
    | Ok e -> e
    | Error msg ->
        Printf.eprintf "race-check: %s\n" msg;
        exit 1
  in
  let chk = Srclint.check ~baseline:entries fam in
  Report.Findings.print ~title:"race-check: static escape analysis"
    (Srclint.to_findings chk.Srclint.fresh);
  Printf.printf "static: %d file(s) scanned, %d escape-family finding(s) (%d baselined)\n"
    scan.Srclint.stats.Srclint.files (List.length chk.Srclint.fresh)
    (List.length chk.Srclint.baselined);
  (* Dynamic half: run the sharded engines with Phys_mem tracing on and
     race-check the merged replay. *)
  let run_traced label f =
    Hw.Probe.set_mem_trace true;
    let report =
      Fun.protect
        ~finally:(fun () -> Hw.Probe.set_mem_trace false)
        (fun () ->
          let _, trace = Analysis.Trace.with_recorder ~capacity:400_000 f in
          Analysis.Racecheck.of_trace trace)
    in
    Format.printf "dynamic (%s): %a@." label Analysis.Racecheck.pp_report report;
    Report.Findings.print
      ~title:(Printf.sprintf "race-check: dynamic (%s)" label)
      (Analysis.Racecheck.findings report);
    report
  in
  let cfg =
    {
      Ioplane.Serve.default_config with
      Ioplane.Serve.backend = "cki";
      containers = 4;
      requests_per_container = 25;
    }
  in
  let serve_report =
    run_traced "sharded serve, 2 domains" (fun () -> ignore (Ioplane.Serve.run ~domains:2 cfg))
  in
  let inject_report =
    if not inject then None
    else begin
      (* Self-test: two lanes on two domains mutate one shared machine;
         the checker MUST flag it, or it is broken. *)
      let mem = Hw.Phys_mem.create ~frames:64 in
      Some
        (run_traced "injected shared machine" (fun () ->
             ignore
               (Hw.Domain_shard.map ~domains:2 ~lanes:2 (fun i ->
                    Hw.Phys_mem.set_owner mem 3 (Hw.Phys_mem.Container i)))))
    end
  in
  (match inject_report with
  | Some r when Analysis.Racecheck.is_clean r ->
      Printf.eprintf "race-check: injected cross-domain race was NOT caught — checker broken\n";
      exit 1
  | Some _ -> Printf.printf "inject: seeded cross-domain race caught, as it must be\n"
  | None -> ());
  let dynamic_bad =
    (not (Analysis.Racecheck.is_clean serve_report))
    || match inject_report with Some r -> not (Analysis.Racecheck.is_clean r) | None -> false
  in
  if chk.Srclint.fresh <> [] || dynamic_bad then exit 2;
  Printf.printf "race-check: clean (static + dynamic)\n"

(* ------------------------------------------------------------------ *)
(* Model checking                                                      *)
(* ------------------------------------------------------------------ *)

let model_check depth nest mutants =
  let config =
    {
      Modelcheck.Transition.default_config with
      Modelcheck.Transition.depth;
      nest_bound = nest;
    }
  in
  let r = Modelcheck.Explore.run_standalone ~config () in
  let s = r.Modelcheck.Explore.stats in
  Printf.printf
    "explored %d states / %d transitions to depth %d (peak frontier %d) in %.2f s\n\n"
    s.Modelcheck.Explore.states s.Modelcheck.Explore.transitions
    s.Modelcheck.Explore.depth_reached s.Modelcheck.Explore.peak_frontier
    s.Modelcheck.Explore.elapsed_s;
  print_string (Modelcheck.Cex.report r);
  let survivors =
    if not mutants then false
    else begin
      let verdicts = Modelcheck.Mutants.run_all () in
      Printf.printf "\n%s\n" (Modelcheck.Mutants.summary verdicts);
      List.iter
        (fun (v : Modelcheck.Mutants.verdict) ->
          match v.Modelcheck.Mutants.cex with
          | Some cex -> Printf.printf "\n[%s]\n%s" v.Modelcheck.Mutants.mutant.Modelcheck.Mutants.id (Modelcheck.Cex.render cex)
          | None -> ())
        verdicts;
      not (Modelcheck.Mutants.all_killed verdicts)
    end
  in
  if not (Modelcheck.Explore.ok r) then exit 2;
  if survivors then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:"on usage or command-line errors, or an unreadable or corrupt snapshot image.";
    Cmd.Exit.info 2 ~doc:"when $(b,--check) finds invariant violations or lint findings.";
  ]

let micro_cmd =
  Cmd.v (Cmd.info "micro" ~exits ~doc:"Run the syscall/pgfault/hypercall microbenchmarks.")
    Term.(const micro $ backend_arg $ nested_arg $ check_arg)

let attack_cmd =
  Cmd.v (Cmd.info "attack" ~exits ~doc:"Run the container-escape attack suite against CKI.")
    Term.(const attack $ check_arg)

let policy_cmd =
  Cmd.v (Cmd.info "policy" ~exits ~doc:"Print the Table 3 privileged-instruction policy.")
    Term.(const policy $ const ())

let kv_cmd =
  let clients = Arg.(value & opt int 32 & info [ "c"; "clients" ] ~doc:"Concurrent clients.") in
  let redis = Arg.(value & flag & info [ "redis" ] ~doc:"Redis-like server (default memcached).") in
  Cmd.v (Cmd.info "kv" ~exits ~doc:"Run the key-value serving workload.")
    Term.(const kv $ backend_arg $ nested_arg $ clients $ redis $ check_arg)

let serve_cmd =
  let containers =
    Arg.(value & opt int 4 & info [ "n"; "containers" ] ~doc:"Containers in the fleet.")
  in
  let requests =
    Arg.(value & opt int 100 & info [ "r"; "requests" ] ~doc:"Requests per container.")
  in
  let window =
    Arg.(
      value
      & opt int Ioplane.Serve.default_config.Ioplane.Serve.window
      & info [ "w"; "window" ] ~doc:"EVENT_IDX coalescing window (0 = naive notification).")
  in
  let workload =
    Arg.(
      value & opt string "memcached"
      & info [ "workload" ] ~doc:"Workload: memcached, redis, nginx, httpd.")
  in
  let rate =
    Arg.(
      value
      & opt float Ioplane.Serve.default_config.Ioplane.Serve.rate_rps
      & info [ "rate" ] ~doc:"Open-loop arrival rate per container (req/s).")
  in
  let fsync =
    Arg.(
      value & opt int 0
      & info [ "fsync-every" ] ~doc:"kv: append + fsync the log every Nth SET (0 = off).")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Drive a multi-container fleet through the host I/O plane with an open-loop load \
          generator; reports throughput, p50/p95/p99 latency, and per-request doorbell / \
          interrupt / exit counts.")
    Term.(
      const serve $ backend_arg $ nested_arg $ containers $ requests $ window $ workload $ rate
      $ fsync $ check_arg)

let fleet_cmd =
  let tenants =
    Arg.(value & opt int 2 & info [ "n"; "tenants" ] ~doc:"Tenants, each an isolated slice.")
  in
  let rate =
    Arg.(value & opt float 30_000.0 & info [ "rate" ] ~doc:"Open-loop arrival rate per tenant (req/s).")
  in
  let requests = Arg.(value & opt int 5_000 & info [ "r"; "requests" ] ~doc:"Requests per tenant.") in
  let slo =
    Arg.(
      value
      & opt float Fleet.Autoscaler.default_config.Fleet.Autoscaler.slo_p99_us
      & info [ "slo" ] ~doc:"p99 latency SLO in microseconds; a windowed breach scales out.")
  in
  let max_replicas =
    Arg.(
      value
      & opt int Fleet.Autoscaler.default_config.Fleet.Autoscaler.max_replicas
      & info [ "max-replicas" ] ~doc:"Autoscaler ceiling per tenant.")
  in
  let quota =
    Arg.(
      value & opt float 10.0
      & info [ "quota" ] ~doc:"Per-replica CPU budget as a percentage (cpu.max); 0 = uncapped.")
  in
  let admission =
    Arg.(
      value & opt float 0.0
      & info [ "admission" ] ~doc:"Per-tenant admission token rate (req/s); 0 = off.")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~doc:"Shard tenants across OCaml domains (0 = inline).")
  in
  Cmd.v
    (Cmd.info "fleet" ~exits
       ~doc:
         "Serve an open-loop multi-tenant fleet through the fleet controller: pick-two load \
          balancing, token-bucket admission control, and SLO-driven autoscaling that \
          scales out with analysis-verified warm clones and scales idle replicas back in.")
    Term.(
      const fleet $ tenants $ rate $ requests $ slo $ max_replicas $ quota $ admission $ domains
      $ check_arg)

let migrate_cmd =
  let rounds =
    Arg.(
      value
      & opt int Migrate.Engine.default_opts.Migrate.Engine.rounds_max
      & info [ "rounds" ] ~doc:"Pre-copy round cap (0 = pure stop-and-copy).")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Also run the failure scenarios — source crash mid-round, target crash before \
             cutover, fabric partition — plus the frame-leak-injection self-test; each must \
             leave exactly one analysis-clean live copy.")
  in
  Cmd.v
    (Cmd.info "migrate" ~exits
       ~doc:
         "Live-migrate a container between two fabric hosts with iterative pre-copy dirty \
          tracking: rounds of dirty-frame sends while the source serves, a bounded \
          stop-and-copy, analysis re-verification before cutover, and atomic endpoint \
          re-homing with buffered-traffic replay.")
    Term.(const migrate_cmd_impl $ rounds $ chaos $ check_arg)

let snapshot_cmd =
  let out =
    Arg.(value & opt string "container.ckisnap" & info [ "o"; "out" ] ~doc:"Output image file.")
  in
  Cmd.v
    (Cmd.info "snapshot" ~exits
       ~doc:"Boot a container, run an init workload, and capture it to an image file.")
    Term.(const snapshot $ out $ check_arg)

let restore_cmd =
  let input =
    Arg.(value & opt string "container.ckisnap" & info [ "i"; "in" ] ~doc:"Input image file.")
  in
  Cmd.v
    (Cmd.info "restore" ~exits
       ~doc:
         "Restore a container from an image file onto a fresh machine, relocating its hPA \
          segment; the result is re-verified with the invariant scanner.")
    Term.(const restore_cmd_impl $ input $ check_arg)

let clone_cmd =
  let clones = Arg.(value & opt int 4 & info [ "n"; "clones" ] ~doc:"Clones to spawn.") in
  let warm = Arg.(value & opt int 1 & info [ "w"; "warm" ] ~doc:"Templates to pre-boot.") in
  Cmd.v
    (Cmd.info "clone" ~exits
       ~doc:"Pre-boot frozen templates into a warm pool and serve CoW clones from it.")
    Term.(const clone_cmd_impl $ clones $ warm $ check_arg)

let lint_src_cmd =
  let root =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~doc:"Repo root to audit (default: discovered from the current directory).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~doc:"Baseline file of accepted findings (default: ROOT/srclint.baseline).")
  in
  let write =
    Arg.(
      value & flag
      & info [ "write-baseline" ]
          ~doc:"Regenerate the baseline accepting every current finding, then exit 0.")
  in
  Cmd.v
    (Cmd.info "lint-src" ~exits
       ~doc:
         "Statically audit the repo's own OCaml sources: raw memory write sinks outside the \
          TCB allowlist, inter-library layering violations, module-toplevel mutable state \
          (domain-sharding race hazards), and hygiene (missing .mli, Obj.magic / assert \
          false in TCB files, unpaired gate probes).  Exits 2 on any finding not covered by \
          the baseline.")
    Term.(const lint_src $ root $ baseline $ write)

let race_check_cmd =
  let root =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~doc:"Repo root to audit (default: discovered from the current directory).")
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject" ]
          ~doc:
            "Also run the checker self-test: two lanes on two domains deliberately mutate one \
             shared machine; the seeded race must be caught (and makes the command exit 2).")
  in
  Cmd.v
    (Cmd.info "race-check" ~exits
       ~doc:
         "Run the two-layer domain-race sanitizer.  Static: the interprocedural sharing \
          analysis over every Domain.spawn closure (domain-escape, stale-annotation, \
          undocumented-annotation), gated on srclint.baseline.  Dynamic: a bounded sharded \
          serve run with Phys_mem access tracing on, its merged replay checked for \
          cross-domain accesses with no spawn/join happens-before edge.  Exits 2 on any \
          finding.")
    Term.(const race_check $ root $ inject)

let model_check_cmd =
  let depth =
    Arg.(
      value
      & opt int Modelcheck.Transition.default_config.Modelcheck.Transition.depth
      & info [ "d"; "depth" ] ~doc:"BFS depth bound, in transitions.")
  in
  let nest =
    Arg.(
      value
      & opt int Modelcheck.Transition.default_config.Modelcheck.Transition.nest_bound
      & info [ "nest" ] ~doc:"Max in-flight PKS-switch deliveries per vCPU.")
  in
  let mutants =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:
            "Also run the mutation harness: each seeded policy mutant must be killed with a \
             counterexample; a survivor exits 1.")
  in
  Cmd.v
    (Cmd.info "model-check" ~exits
       ~doc:
         "Exhaustively explore the bounded privilege state space of a CKI container, checking \
          the E1-E4/gate safety properties on every reachable state and edge.  Exits 2 when a \
          counterexample is found (rendered as a shortest violating trace).")
    Term.(const model_check $ depth $ nest $ mutants)

let () =
  let doc = "CKI (EuroSys'25) reproduction demo driver" in
  exit
    (Cmd.eval ~term_err:1
       (Cmd.group (Cmd.info "cki_demo" ~doc ~exits)
          [
            micro_cmd;
            attack_cmd;
            policy_cmd;
            kv_cmd;
            serve_cmd;
            fleet_cmd;
            migrate_cmd;
            snapshot_cmd;
            restore_cmd;
            clone_cmd;
            model_check_cmd;
            lint_src_cmd;
            race_check_cmd;
          ]))
