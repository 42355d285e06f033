(* fleet-serve: a multi-tenant CKI fleet under open-loop kv load.

   One episode is one Fleet.Controller.run over four tenants: two
   steady tenants within their CPU quota, a surge tenant whose offered
   load breaches its p99 SLO until the controller scales out through
   verified warm clones, and a greedy tenant behind admission control
   (the only one that sheds).  The seed and the episode index choose
   every tenant's arrival rate and the controller's key/balancer seed.
   An op is one offered request.

   Chosen because this is the fleet -> ioplane -> Vcpu_sched ->
   guest-kernel serving loop, the costliest path of the simulator;
   snapshot and migrate do almost nothing here.

   Controller.run is opaque from outside, so the traced run drives each
   tenant through the same public calls the controller makes
   ([run_tenant], a copy of Controller.run_tenant without host
   draining) and compares every counter with the untraced run's: equal
   counters mean the per-layer split describes the untraced run. *)

module C = Fleet.Controller
module Lane = Ioplane.Serve.Lane

let requests = 6_000

let autoscaler =
  {
    Fleet.Autoscaler.default_config with
    Fleet.Autoscaler.slo_p99_us = 400.0;
    window = 200;
    max_replicas = 8;
    cooldown_ns = 3e6;
    idle_windows = 4;
  }

(* Episode [e] of seed [seed]: rates within +-5% of their nominal
   values, so every seed keeps the tenants in their roles. *)
let config ~seed e =
  let rng = Rng.make ~seed ~stream:e in
  let rate nominal = nominal *. (0.95 +. (0.1 *. float_of_int (Rng.int rng 1001) /. 1000.0)) in
  let t name workload nominal = { C.default_tenant with C.name; workload; rate_rps = rate nominal; requests } in
  let steady_a = t "steady-a" Ioplane.Serve.Kv_memcached 30_000.0 in
  let steady_b = t "steady-b" Ioplane.Serve.Kv_redis 15_000.0 in
  let surge = t "surge" Ioplane.Serve.Kv_memcached 60_000.0 in
  let greedy =
    { (t "greedy" Ioplane.Serve.Kv_memcached 50_000.0) with C.admission_rps = 15_000.0; max_inflight = 64 }
  in
  { C.default_config with C.tenants = [ steady_a; steady_b; surge; greedy ]; autoscaler; seed = Rng.seed rng }

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* Checks on one tenant's result.  Returns failed-check descriptions. *)
let tenant_problems (tr : C.tenant_result) =
  let p = ref [] in
  let need ok what = if not ok then p := Printf.sprintf "%s: %s" tr.C.tr_name what :: !p in
  need (tr.C.tr_admitted + tr.C.tr_shed = tr.C.tr_offered) "admitted + shed = offered";
  need (tr.C.tr_completed = tr.C.tr_admitted) "every admitted request completes";
  need (tr.C.tr_verify_failures = 0) "every clone verifies";
  need (tr.C.tr_completed >= 1000) "p99 has >= 10 samples beyond it";
  (match tr.C.tr_name with
  | "greedy" -> need (tr.C.tr_shed > 0) "admission control sheds"
  | "surge" ->
      need (tr.C.tr_shed = 0) "sheds nothing";
      need (tr.C.tr_breaches > 0 && tr.C.tr_scale_outs > 0) "breach scales out"
  | _ -> need (tr.C.tr_shed = 0) "sheds nothing");
  List.rev !p

(* Failed ops: admitted but not completed, plus refused clones.
   Refused (shed) requests are admission control working, not
   failures; they are counted separately. *)
let failed_of (tr : C.tenant_result) =
  max 0 (tr.C.tr_admitted - tr.C.tr_completed) + tr.C.tr_verify_failures

(* ------------------------------------------------------------------ *)
(* The traced serving loop                                             *)
(* ------------------------------------------------------------------ *)

type spans = {
  admit : int;
  pick : int;
  observe : int;
  decide : int;
  send : int;
  pump : int;
  guest : int;
  sched : int;
  tick : int;
  reap : int;
  spawn : int;
  refill : int;
  attach : int;
  destroy : int;
  percentile : int;
}

let register tr =
  let r call metric = Spans.register tr ~call ~metric in
  {
    admit = r "Admission.admit" "fleet.control_s";
    pick = r "Balancer.pick" "fleet.control_s";
    observe = r "Autoscaler.observe" "fleet.control_s";
    decide = r "Autoscaler.decide" "fleet.control_s";
    send = r "Lane.send" "ioplane.send_s";
    pump = r "Lane.pump" "ioplane.pump_s";
    guest = r "request handler" "kernel.guest_s";
    sched = r "Vcpu_sched.run" "core.sched_s";
    tick = r "Loop.tick" "ioplane.tick_s";
    reap = r "Lane.reap" "ioplane.reap_s";
    spawn = r "Pool.spawn_fast" "snapshot.spawn_s";
    refill = r "Pool.refill_low_water" "snapshot.refill_s";
    attach = r "Lane.attach/detach" "ioplane.attach_s";
    destroy = r "Container.destroy" "core.destroy_s";
    percentile = r "Report.Stats.percentile" "report.percentile_s";
  }

(* Counters of the traced loop that the controller does not report. *)
type counters = {
  mutable ticks : int;
  mutable idle_ticks : int;
  mutable doorbells : int;
  mutable interrupts : int;
  ledger : Ledger.t;
}

let new_counters () = { ticks = 0; idle_ticks = 0; doorbells = 0; interrupts = 0; ledger = Ledger.create () }

type replica = { lane : Lane.t; container : Cki.Container.t; entry : Cki.Vcpu_sched.vcpu_entry }

(* What Controller.run_tenant builds before its first arrival. *)
type slice = {
  clock : Hw.Clock.t;
  loop : Ioplane.Loop.t;
  sched : Cki.Vcpu_sched.t;
  pool : Snapshot.Pool.t;
  rng : int ref;
}

let xorshift rng n =
  let x = !rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  rng := x land max_int;
  !rng mod n

let build_slice (cfg : C.config) ~seed =
  let machine = Hw.Machine.create ~cpus:4 ~mem_mib:cfg.C.mem_mib () in
  let clock = Hw.Machine.clock machine in
  let host = Cki.Host.create ~first_container:1 machine in
  let loop = Ioplane.Loop.create clock in
  let sched = Cki.Vcpu_sched.create host in
  let pool =
    Snapshot.Pool.create ~low_water:cfg.C.pool_low_water ~target:cfg.C.pool_target
      ~make:(fun () ->
        match Snapshot.Template.create (Cki.Container.create ~cfg:cfg.C.container_cfg host) with
        | Ok t -> t
        | Error e -> failwith ("fleet-serve: template build failed: " ^ Snapshot.Template.show_error e))
      ()
  in
  { clock; loop; sched; pool; rng = ref seed }

let count_io cn lane =
  match Kernel_model.Kernel.io_devices (Lane.backend lane).Virt.Backend.kernel with
  | None -> ()
  | Some (tx, rx, blk) ->
      let sum f = f tx + f rx + f blk in
      cn.doorbells <- cn.doorbells + sum Kernel_model.Virtio.kicks;
      cn.interrupts <- cn.interrupts + sum Kernel_model.Virtio.interrupts

(* Controller.run_tenant for a single host and no drain, with a span
   around every layer call. *)
let run_tenant tr sp cn (cfg : C.config) (tenant : C.tenant) ~seed =
  let s = build_slice cfg ~seed in
  let clock = s.clock in
  let rand n = xorshift s.rng n in
  let replicas = ref [||] in
  let next_replica = ref 0 in
  let spawns = ref [] in
  let verify_failures = ref 0 in
  let scale_outs = ref 0 in
  let scale_ins = ref 0 in
  let peak = ref 0 in
  let spawn_replica () =
    let misses0 = (Snapshot.Pool.stats s.pool).Snapshot.Pool.misses in
    let res, ns =
      Hw.Clock.timed clock (fun () -> Spans.wrap tr sp.spawn (fun () -> Snapshot.Pool.spawn_fast ~verify:true s.pool))
    in
    match res with
    | Error _ ->
        incr verify_failures;
        false
    | Ok c ->
        let hit = (Snapshot.Pool.stats s.pool).Snapshot.Pool.misses = misses0 in
        spawns := { C.s_ns = ns; s_pool_hit = hit } :: !spawns;
        let i = !next_replica in
        incr next_replica;
        let name = Printf.sprintf "%s-r%d" tenant.C.name i in
        Spans.enter tr sp.attach;
        let lane =
          Lane.attach ~loop:s.loop ~workload:tenant.C.workload ~queue_size:cfg.C.queue_size
            ~window:cfg.C.io_window ~rand ~name (Cki.Container.backend c)
        in
        Spans.leave tr sp.attach;
        Spans.enter tr sp.sched;
        let entry = Cki.Vcpu_sched.add_vcpu ?quota:cfg.C.cpu_quota s.sched c ~vcpu:0 in
        Spans.leave tr sp.sched;
        replicas := Array.append !replicas [| { lane; container = c; entry } |];
        if Array.length !replicas > !peak then peak := Array.length !replicas;
        true
  in
  let scale_in () =
    let arr = !replicas in
    let n = Array.length arr in
    let floor_n = max 1 cfg.C.autoscaler.Fleet.Autoscaler.min_replicas in
    let idx = ref (-1) in
    for i = 0 to n - 1 do
      if Lane.inflight arr.(i).lane = 0 then idx := i
    done;
    if !idx >= 0 && n > floor_n then begin
      let r = arr.(!idx) in
      count_io cn r.lane;
      Spans.wrap tr sp.attach (fun () -> Lane.detach r.lane);
      Spans.wrap tr sp.sched (fun () -> Cki.Vcpu_sched.remove_vcpu s.sched r.entry);
      Spans.wrap tr sp.destroy (fun () -> Cki.Container.destroy r.container);
      replicas := Array.of_list (List.filteri (fun i _ -> i <> !idx) (Array.to_list arr));
      incr scale_ins
    end
  in
  for _ = 1 to max cfg.C.initial_replicas cfg.C.autoscaler.Fleet.Autoscaler.min_replicas do
    if not (spawn_replica ()) then failwith "fleet-serve: bootstrap replica failed verification"
  done;
  let admission =
    Fleet.Admission.create ~max_inflight:tenant.C.max_inflight ~rate_rps:tenant.C.admission_rps
      ~now:(Hw.Clock.now clock) ()
  in
  let balancer = Fleet.Balancer.create ~seed:(C.tenant_seed seed 1) cfg.C.balancer in
  let start_ns = Hw.Clock.now clock in
  let mark = Ledger.mark clock in
  let autoscaler = Fleet.Autoscaler.create ~now:start_ns cfg.C.autoscaler in
  let interval = 1e9 /. tenant.C.rate_rps in
  let next_arrival = ref start_ns in
  let offered = ref 0 in
  let latencies = ref [] in
  let stamped = ref [] in
  let completed = ref 0 in
  let inflight_total () = Array.fold_left (fun a r -> a + Lane.inflight r.lane) 0 !replicas in
  let refill_pools () =
    Spans.enter tr sp.refill;
    ignore (Snapshot.Pool.refill_low_water s.pool);
    ignore (Snapshot.Pool.reap_retired s.pool);
    Spans.leave tr sp.refill
  in
  let tick () =
    Spans.enter tr sp.tick;
    let n = Ioplane.Loop.tick s.loop in
    Spans.leave tr sp.tick;
    cn.ticks <- cn.ticks + 1;
    if n = 0 then cn.idle_ticks <- cn.idle_ticks + 1;
    n
  in
  let rounds = ref 0 in
  let max_rounds = (100 * tenant.C.requests) + 10_000 in
  while !offered < tenant.C.requests || inflight_total () > 0 do
    incr rounds;
    if !rounds > max_rounds then failwith "fleet-serve: traced tenant failed to converge";
    let progressed = ref false in
    while !offered < tenant.C.requests && !next_arrival <= Hw.Clock.now clock do
      incr offered;
      Spans.set_op tr !offered;
      let now = Hw.Clock.now clock in
      let inflight = inflight_total () in
      Spans.enter tr sp.admit;
      let admitted = Fleet.Admission.admit admission ~now ~inflight in
      Spans.leave tr sp.admit;
      if admitted then begin
        let arr = !replicas in
        (* The controller rebuilds its list of pickable (non-draining)
           replicas on every admission; so does this copy, so that the
           traced run does the same host work. *)
        let elig = ref [] in
        Array.iteri (fun i _ -> elig := i :: !elig) arr;
        let elig = Array.of_list (List.rev !elig) in
        let n = Array.length elig in
        Spans.enter tr sp.pick;
        let i = Fleet.Balancer.pick balancer ~load:(fun i -> Lane.inflight arr.(elig.(i)).lane) ~n in
        Spans.leave tr sp.pick;
        Spans.enter tr sp.send;
        Lane.send arr.(elig.(i)).lane ~ts:!next_arrival;
        Spans.leave tr sp.send
      end;
      next_arrival := !next_arrival +. interval;
      progressed := true
    done;
    Array.iter
      (fun r ->
        let submit thunk =
          Cki.Vcpu_sched.submit_work r.entry (fun () ->
              Spans.enter tr sp.guest;
              thunk ();
              Spans.leave tr sp.guest)
        in
        Spans.enter tr sp.pump;
        let n = Lane.pump ~submit r.lane in
        Spans.leave tr sp.pump;
        if n > 0 then progressed := true)
      !replicas;
    let pending_work =
      Array.fold_left (fun a r -> a + Queue.length r.entry.Cki.Vcpu_sched.work) 0 !replicas
    in
    if pending_work > 0 then begin
      let t0 = Hw.Clock.now clock in
      Spans.enter tr sp.sched;
      Cki.Vcpu_sched.run s.sched
        ~slices:(max 1 (Array.length !replicas))
        ~after_slice:(fun () -> ignore (tick ()));
      Spans.leave tr sp.sched;
      if Hw.Clock.now clock > t0 then progressed := true
    end;
    if tick () > 0 then progressed := true;
    Array.iter
      (fun r ->
        Spans.enter tr sp.reap;
        let done_ = Lane.reap r.lane in
        Spans.leave tr sp.reap;
        List.iter
          (fun ts ->
            let lat_us = (Hw.Clock.now clock -. ts) /. 1e3 in
            latencies := lat_us :: !latencies;
            (* the controller's drain-phase record, kept for the same reason *)
            stamped := (Hw.Clock.now clock, lat_us) :: !stamped;
            Spans.enter tr sp.observe;
            Fleet.Autoscaler.observe autoscaler ~latency_us:lat_us;
            Spans.leave tr sp.observe;
            incr completed;
            progressed := true)
          done_)
      !replicas;
    Spans.enter tr sp.decide;
    let d = Fleet.Autoscaler.decide autoscaler ~now:(Hw.Clock.now clock) ~replicas:(Array.length !replicas) in
    Spans.leave tr sp.decide;
    (match d with
    | Fleet.Autoscaler.Hold -> ()
    | Fleet.Autoscaler.Scale_out ->
        if spawn_replica () then incr scale_outs;
        refill_pools ()
    | Fleet.Autoscaler.Scale_in -> scale_in ());
    if not !progressed then begin
      refill_pools ();
      if !offered < tenant.C.requests && !next_arrival > Hw.Clock.now clock then
        Hw.Clock.advance clock (!next_arrival -. Hw.Clock.now clock)
      else Hw.Clock.advance clock 1_000.0
    end
  done;
  let elapsed_ns = Hw.Clock.now clock -. start_ns in
  Ledger.add cn.ledger ~before:mark clock;
  Array.iter (fun r -> count_io cn r.lane) !replicas;
  let pct p = Spans.wrap tr sp.percentile (fun () -> Report.Stats.percentile !latencies ~p) in
  let mean = Spans.wrap tr sp.percentile (fun () -> Report.Stats.mean !latencies) in
  let p50 = pct 50.0 and p95 = pct 95.0 and p99 = pct 99.0 in
  let st = Snapshot.Pool.stats s.pool in
  let tr_result =
    {
      C.tr_name = tenant.C.name;
      tr_offered = !offered;
      tr_admitted = Fleet.Admission.admitted admission;
      tr_shed = Fleet.Admission.shed admission;
      tr_shed_rate = Fleet.Admission.shed_rate admission;
      tr_shed_inflight = Fleet.Admission.shed_inflight admission;
      tr_completed = !completed;
      tr_mean_us = mean;
      tr_p50_us = p50;
      tr_p95_us = p95;
      tr_p99_us = p99;
      tr_windows = Fleet.Autoscaler.windows autoscaler;
      tr_breaches = Fleet.Autoscaler.breaches autoscaler;
      tr_scale_outs = !scale_outs;
      tr_scale_ins = !scale_ins;
      tr_verify_failures = !verify_failures;
      tr_peak_replicas = !peak;
      tr_final_replicas = Array.length !replicas;
      tr_spawns = List.rev !spawns;
      tr_pool = st;
      tr_balancer_picks = Fleet.Balancer.picks balancer;
      tr_throttle_events = Cki.Vcpu_sched.throttle_events s.sched;
      tr_elapsed_ns = elapsed_ns;
      tr_evacuated = 0;
      tr_drain_ns = 0.0;
      tr_p99_before_us = 0.0;
      tr_p99_during_us = 0.0;
      tr_p99_after_us = 0.0;
    }
  in
  (tr_result, Array.to_list (Array.map (fun r -> r.container) !replicas))

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

(* Set-up cost of one episode's slices, what Controller.run builds
   before serving: per tenant a machine, host, event loop, scheduler,
   the template pool filled to target (guest boots) and the bootstrap
   clone.  Controller.run cannot be entered after its set-up, so
   ops_per_s includes this cost once per episode. *)
let setup () =
  let cfg = config ~seed:0 0 in
  List.iter
    (fun _ ->
      let s = build_slice cfg ~seed:1 in
      match Snapshot.Pool.spawn_fast ~verify:true s.pool with
      | Ok _ -> ()
      | Error e -> failwith ("fleet-serve: bootstrap clone: " ^ Snapshot.Template.show_error e))
    cfg.C.tenants

type acc = {
  mutable ops : int;
  mutable failed : int;
  mutable shed : int;
  mutable episodes : int;
  mutable scale_outs : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
  mutable throttles : int;
  mutable surge_p99_us : float;
  mutable compared : int;
  mutable mismatched : string list;
  mutable checks : Measure.check list;
  cn : counters;
}

let new_acc () =
  {
    ops = 0;
    failed = 0;
    shed = 0;
    episodes = 0;
    scale_outs = 0;
    pool_hits = 0;
    pool_misses = 0;
    throttles = 0;
    surge_p99_us = 0.0;
    compared = 0;
    mismatched = [];
    checks = [];
    cn = new_counters ();
  }

let note acc (tr : C.tenant_result) =
  acc.ops <- acc.ops + tr.C.tr_offered;
  acc.failed <- acc.failed + failed_of tr;
  acc.shed <- acc.shed + tr.C.tr_shed;
  acc.scale_outs <- acc.scale_outs + tr.C.tr_scale_outs;
  acc.pool_hits <- acc.pool_hits + tr.C.tr_pool.Snapshot.Pool.hits;
  acc.pool_misses <- acc.pool_misses + tr.C.tr_pool.Snapshot.Pool.misses;
  acc.throttles <- acc.throttles + tr.C.tr_throttle_events;
  List.iter
    (fun p -> if List.length acc.checks < 20 then acc.checks <- Measure.check p false "" :: acc.checks)
    (tenant_problems tr)

(* A short tenant re-run under the probe recorder, after the measured
   phases (and by the mutation self-test). *)
let verification ~seed =
  let cfg = config ~seed 0 in
  let tenant = { (List.hd cfg.C.tenants) with C.requests = 300 } in
  let tr = Spans.create ~enabled:false () in
  Verify.recorded (fun () -> snd (run_tenant tr (register tr) (new_counters ()) cfg tenant ~seed))

let run (cfg : Runner.cfg) =
  (* Untraced results by episode, the reference the traced loop's
     counters must reproduce. *)
  let reference = Hashtbl.create 16 in
  let untraced acc e =
    let r = C.run (config ~seed:cfg.seed e) in
    Hashtbl.replace reference e r.C.tenants;
    List.iter (note acc) r.C.tenants
  in
  let traced tr sp acc e =
    let ecfg = config ~seed:cfg.seed e in
    let results =
      List.mapi
        (fun i tenant -> fst (run_tenant tr sp acc.cn ecfg tenant ~seed:(C.tenant_seed ecfg.C.seed i)))
        ecfg.C.tenants
    in
    List.iter (note acc) results;
    if e = 0 then
      List.iter (fun t -> if t.C.tr_name = "surge" then acc.surge_p99_us <- t.C.tr_p99_us) results;
    match Hashtbl.find_opt reference e with
    | None -> ()
    | Some ref_results ->
        acc.compared <- acc.compared + 1;
        List.iter2
          (fun a b -> if a <> b then acc.mismatched <- Printf.sprintf "episode %d %s" e a.C.tr_name :: acc.mismatched)
          results ref_results
  in
  let run_phase tr seconds =
    let acc = new_acc () in
    let step =
      if Spans.enabled tr then
        let sp = register tr in
        traced tr sp acc
      else untraced acc
    in
    let ph =
      Runner.phase ~seconds ~min_units:1 ~ops:(fun () -> acc.ops) (fun e ->
          step e;
          acc.episodes <- acc.episodes + 1)
    in
    (ph, acc)
  in
  let (main, m), traced = Runner.phases cfg run_phase in
  let t = match traced with Some ((_, t), _, _) -> t | None -> m in
  let v = verification ~seed:cfg.seed in
  let ep0 = Hashtbl.find reference 0 in
  let pct_lines =
    List.concat_map
      (fun (tr : C.tenant_result) ->
        let n = tr.C.tr_completed in
        let beyond p = n - Measure.rank ~n p in
        [
          Measure.metric
            (Printf.sprintf "sim_p50_us[%s]" tr.C.tr_name)
            "us" tr.C.tr_p50_us
            ~note:(Printf.sprintf "p50, n=%d, %d beyond, episode 0" n (beyond 50.0));
          Measure.metric
            (Printf.sprintf "sim_p99_us[%s]" tr.C.tr_name)
            "us" tr.C.tr_p99_us
            ~note:(Printf.sprintf "p99, n=%d, %d beyond, episode 0" n (beyond 99.0));
        ])
      ep0
  in
  let offered0 = List.fold_left (fun a tr -> a + tr.C.tr_offered) 0 ep0 in
  let failed0 = List.fold_left (fun a tr -> a + failed_of tr) 0 ep0 in
  let shed0 = List.fold_left (fun a tr -> a + tr.C.tr_shed) 0 ep0 in
  let per = Measure.per in
  let count name = Ledger.count t.cn.ledger name in
  let exits = List.fold_left (fun a e -> a + count e) 0 (Ioplane.Serve.exit_events "cki") in
  let resolved = t.compared > 0 && t.mismatched = [] in
  let setup_raw_s, setup_s = Runner.time_setups setup in
  {
    Runner.setup_raw_s;
    setup_s;
    main;
    traced = Option.map (fun ((ph, _), tr, t0) -> (ph, tr, t0)) traced;
    attempted = m.ops + (match traced with Some _ -> t.ops | None -> 0);
    failed = m.failed + (match traced with Some _ -> t.failed | None -> 0);
    lines =
      pct_lines
      @ [
          Measure.metric "failed_frac" "frac"
            (per offered0 (failed0 + shed0))
            ~note:
              (Printf.sprintf "episode 0: %d shed by admission control + %d failed of %d offered" shed0 failed0
                 offered0);
        ];
    layer =
      Measure.
        [
          metric "fleet.scale_outs" "1/episode" (per t.episodes t.scale_outs);
          metric "fleet.surge_p99_us" "us" t.surge_p99_us ~note:"episode 0";
          metric "fleet.shed" "1/op" (per t.ops t.shed);
          metric "fleet.pool_hit_ratio" "ratio" (per (t.pool_hits + t.pool_misses) t.pool_hits);
          metric "ioplane.ticks_per_op" "1/op" (per t.ops t.cn.ticks);
          metric "ioplane.idle_tick_ratio" "ratio" (per t.cn.ticks t.cn.idle_ticks);
          metric "ioplane.doorbells_per_op" "1/op" (per t.ops t.cn.doorbells);
          metric "ioplane.interrupts_per_op" "1/op" (per t.ops t.cn.interrupts);
          metric "core.throttle_events" "1/op" (per t.ops t.throttles);
          metric "core.ksm_calls_per_op" "1/op" (per t.ops (count "ksm_call"));
          metric "kernel.faults_per_op" "1/op" (per t.ops (count "pf_service"));
          metric "virt.exits_per_op" "1/op" (per t.ops exits);
          metric "hw.tlb_hit_ratio" "ratio" (per (count "tlb_hit" + count "tlb_miss_walk") (count "tlb_hit"));
          metric "hw.probe_dropped" "count" (float_of_int v.Verify.dropped);
          metric "trace.split_resolved" "bool"
            (if resolved then 1.0 else 0.0)
            ~note:
              (if resolved then Printf.sprintf "%d episodes match the untraced counters" t.compared
               else "UNRESOLVED: " ^ String.concat ", " t.mismatched);
        ];
    ledger = t.cn.ledger;
    ledger_ops = t.ops;
    checks =
      m.checks @ t.checks
      @ [ Ledger.check t.cn.ledger; Verify.lint_check v; Verify.scan_check v ];
  }
