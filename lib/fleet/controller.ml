(* The fleet controller: cluster-scale serving over warm clones.

   One tenant = one isolated slice of the fabric: its own machine,
   host, warm template pool, I/O event loop and vCPU scheduler.  The
   controller composes the subsystems the repo already has —

   - {!Ioplane.Serve.Lane} wires each replica into the switch and
     carries requests end to end;
   - {!Balancer} spreads admitted arrivals over the live replicas;
   - {!Admission} sheds what the tenant's token bucket or inflight cap
     refuses, at the front door;
   - {!Autoscaler} watches windowed p99 against the SLO and asks for
     replicas;
   - {!Snapshot.Pool.spawn_fast} materializes a replica as a warm CoW
     clone (re-verified by the analysis scanner before it takes
     traffic), and {!Cki.Container.destroy} returns a scaled-in
     replica's memory to the host — thousands of such cycles is what
     scatter delegation exists for.

   Replicas multiplex over {!Cki.Vcpu_sched} with an optional
   cgroup-style CPU quota, so capacity is budget-rate per replica:
   offered load above the aggregate budget grows queues, the windowed
   p99 breaches, and scale-out genuinely restores the SLO by adding
   budget — the feedback loop is physical, not scripted.

   Tenants shard across OCaml domains exactly like {!Ioplane.Serve}
   lanes: every tenant's trajectory is a pure function of the config
   and its derived seed, so all counters are identical for any
   [?domains] value. *)

module Lane = Ioplane.Serve.Lane

type tenant = {
  name : string;
  workload : Ioplane.Serve.workload;
  rate_rps : float;  (** offered open-loop arrival rate *)
  requests : int;  (** total arrivals to generate *)
  max_inflight : int;  (** admission inflight cap; [max_int] = off *)
  admission_rps : float;  (** admission token rate; [infinity] = off *)
}

let default_tenant =
  {
    name = "tenant";
    workload = Ioplane.Serve.Kv_memcached;
    rate_rps = 20_000.0;
    requests = 2_000;
    max_inflight = max_int;
    admission_rps = infinity;
  }

(* Evacuate host [d_host] once the tenant has offered [d_after_requests]
   arrivals: replacement replicas are warm-cloned on the surviving
   hosts first, the draining host's replicas stop taking new picks and
   are destroyed as they go idle, and its warm pool is drained (live
   templates retire until their clones die). *)
type drain_spec = { d_host : int; d_after_requests : int }

type config = {
  tenants : tenant list;
  balancer : Balancer.policy;
  autoscaler : Autoscaler.config;
  container_cfg : Cki.Config.t;
  cpu_quota : (float * float) option;  (** per-replica (period_ns, budget_ns) *)
  initial_replicas : int;  (** bootstrap fleet size; effective floor is min_replicas *)
  pool_target : int;
  pool_low_water : int;
  io_window : int;
  queue_size : int;
  mem_mib : int;  (** per-tenant machine memory *)
  hosts : int;  (** host slices per tenant (one machine, disjoint id spaces) *)
  drain : drain_spec option;
  seed : int;
}

(* Small segments: fleet replicas are many and short-lived, and 4 MiB
   per delegation lets one host carry hundreds of them. *)
let default_container_cfg =
  { Cki.Config.default with Cki.Config.segment_frames = 1024; vcpus = 1 }

let default_config =
  {
    tenants = [ default_tenant ];
    balancer = Balancer.Pick2_least_loaded;
    autoscaler = Autoscaler.default_config;
    container_cfg = default_container_cfg;
    cpu_quota = Some (1_000_000.0, 100_000.0) (* 10% of a CPU per replica *);
    initial_replicas = 1;
    pool_target = 2;
    pool_low_water = 1;
    io_window = 1;
    queue_size = 64;
    mem_mib = 512;
    hosts = 1;
    drain = None;
    seed = 0x2545F4914F6CDD1D;
  }

type spawn_sample = { s_ns : float; s_pool_hit : bool }

type tenant_result = {
  tr_name : string;
  tr_offered : int;
  tr_admitted : int;
  tr_shed : int;
  tr_shed_rate : int;
  tr_shed_inflight : int;
  tr_completed : int;
  tr_mean_us : float;
  tr_p50_us : float;
  tr_p95_us : float;
  tr_p99_us : float;
  tr_windows : int;
  tr_breaches : int;
  tr_scale_outs : int;  (** replicas actually added after bootstrap *)
  tr_scale_ins : int;  (** replicas actually destroyed *)
  tr_verify_failures : int;  (** clones refused by the analysis scanner *)
  tr_peak_replicas : int;
  tr_final_replicas : int;
  tr_spawns : spawn_sample list;  (** chronological, bootstrap included *)
  tr_pool : Snapshot.Pool.stats;
  tr_balancer_picks : int;
  tr_throttle_events : int;
  tr_elapsed_ns : float;
  tr_evacuated : int;  (** draining-host replicas destroyed after going idle *)
  tr_drain_ns : float;  (** drain trigger -> last evacuee destroyed; 0 without drain *)
  tr_p99_before_us : float;  (** phase p99s around the drain window; 0 without drain *)
  tr_p99_during_us : float;
  tr_p99_after_us : float;
}

type result = { tenants : tenant_result list; makespan_ns : float; domains : int }

type replica = {
  rep_lane : Lane.t;
  rep_container : Cki.Container.t;
  rep_entry : Cki.Vcpu_sched.vcpu_entry;
  rep_host : int;
  mutable rep_draining : bool;  (** excluded from balancer picks; destroyed when idle *)
}

let xorshift rng n =
  let x = !rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  rng := x land max_int;
  !rng mod n

(* Per-tenant derived seed, never 0 (xorshift fixpoint). *)
let tenant_seed base i =
  let s = (base lxor ((i + 1) * 0x9E3779B97F4A7C1)) land max_int in
  if s = 0 then 1 else s

(* One tenant's complete serving run on its own machine. *)
let run_tenant cfg tenant ~seed =
  if tenant.requests < 1 then invalid_arg "Fleet: tenant needs at least one request";
  if tenant.rate_rps <= 0.0 then invalid_arg "Fleet: tenant rate must be positive";
  if cfg.hosts < 1 then invalid_arg "Fleet: need at least one host";
  (match cfg.drain with
  | Some d ->
      if cfg.hosts < 2 then invalid_arg "Fleet: draining needs a surviving host";
      if d.d_host < 0 || d.d_host >= cfg.hosts then invalid_arg "Fleet: drain host out of range"
  | None -> ());
  let machine = Hw.Machine.create ~cpus:4 ~mem_mib:cfg.mem_mib () in
  let clock = Hw.Machine.clock machine in
  (* Host slices share the machine (and clock) but own disjoint
     container-id spaces, so delegations and frame ownership stay
     attributable per host — what the drain leak check relies on. *)
  let hosts =
    Array.init cfg.hosts (fun h -> Cki.Host.create ~first_container:((h * 100_000) + 1) machine)
  in
  let loop = Ioplane.Loop.create clock in
  let scheds = Array.map Cki.Vcpu_sched.create hosts in
  let rng = ref seed in
  let rand n = xorshift rng n in
  let ccfg = cfg.container_cfg in
  let pools =
    Array.map
      (fun host ->
        Snapshot.Pool.create ~low_water:cfg.pool_low_water ~target:cfg.pool_target
          ~make:(fun () ->
            match Snapshot.Template.create (Cki.Container.create ~cfg:ccfg host) with
            | Ok t -> t
            | Error e ->
                failwith ("Fleet: template build failed: " ^ Snapshot.Template.show_error e))
          ())
      hosts
  in
  let draining : int option ref = ref None in
  let replicas = ref [||] in
  let next_replica = ref 0 in
  let spawns = ref [] in
  let verify_failures = ref 0 in
  let scale_outs = ref 0 in
  let scale_ins = ref 0 in
  let peak = ref 0 in
  (* Warm-clone a replica, re-verify it, and wire it into the fabric.
     The spawn latency sample records whether the pool served it warm
     (hit) or had to build a template inline (miss — the cold cliff
     refill_low_water exists to avoid). *)
  (* Place a new replica on the least-loaded host that is not
     draining (lowest index on ties — deterministic). *)
  let pick_host () =
    let counts = Array.make cfg.hosts 0 in
    Array.iter (fun r -> counts.(r.rep_host) <- counts.(r.rep_host) + 1) !replicas;
    let best = ref (-1) in
    for h = cfg.hosts - 1 downto 0 do
      if !draining <> Some h && (!best < 0 || counts.(h) <= counts.(!best)) then best := h
    done;
    !best
  in
  let spawn_replica () =
    let h = pick_host () in
    let pool = pools.(h) in
    let misses0 = (Snapshot.Pool.stats pool).Snapshot.Pool.misses in
    let res, ns = Hw.Clock.timed clock (fun () -> Snapshot.Pool.spawn_fast ~verify:true pool) in
    match res with
    | Error _ ->
        incr verify_failures;
        false
    | Ok c ->
        let hit = (Snapshot.Pool.stats pool).Snapshot.Pool.misses = misses0 in
        spawns := { s_ns = ns; s_pool_hit = hit } :: !spawns;
        let i = !next_replica in
        incr next_replica;
        let name = Printf.sprintf "%s-r%d" tenant.name i in
        let lane =
          Lane.attach ~loop ~workload:tenant.workload ~queue_size:cfg.queue_size
            ~window:cfg.io_window ~rand ~name (Cki.Container.backend c)
        in
        let entry = Cki.Vcpu_sched.add_vcpu ?quota:cfg.cpu_quota scheds.(h) c ~vcpu:0 in
        replicas :=
          Array.append !replicas
            [| { rep_lane = lane; rep_container = c; rep_entry = entry; rep_host = h; rep_draining = false } |];
        if Array.length !replicas > !peak then peak := Array.length !replicas;
        true
  in
  (* Scale-in: destroy the newest *idle* replica (no request anywhere
     between send and reap).  If every replica holds traffic, hold —
     the autoscaler will ask again after its cooldown. *)
  let scale_in () =
    let arr = !replicas in
    let n = Array.length arr in
    let floor_n = max 1 cfg.autoscaler.Autoscaler.min_replicas in
    let idx = ref (-1) in
    for i = 0 to n - 1 do
      (* Draining replicas belong to the evacuation sweep, not scale-in. *)
      if Lane.inflight arr.(i).rep_lane = 0 && not arr.(i).rep_draining then idx := i
    done;
    if !idx >= 0 && n > floor_n then begin
      let r = arr.(!idx) in
      Lane.detach r.rep_lane;
      Cki.Vcpu_sched.remove_vcpu scheds.(r.rep_host) r.rep_entry;
      Cki.Container.destroy r.rep_container;
      replicas := Array.of_list (List.filteri (fun i _ -> i <> !idx) (Array.to_list arr));
      incr scale_ins;
      true
    end
    else false
  in
  (* The drain_host action: warm-clone replacements onto the surviving
     hosts *first* (capacity never dips), then fence the draining
     host's replicas out of the balancer and evict its warm pool.
     In-use templates retire; [reap_retired] frees them once their
     last clone dies. *)
  let evacuated = ref 0 in
  let drain_start_ns = ref 0.0 in
  let drain_end_ns = ref 0.0 in
  let drain_host h =
    draining := Some h;
    drain_start_ns := Hw.Clock.now clock;
    let doomed = Array.to_list !replicas |> List.filter (fun r -> r.rep_host = h) in
    List.iter (fun _ -> ignore (spawn_replica ())) doomed;
    List.iter (fun r -> r.rep_draining <- true) doomed;
    ignore (Snapshot.Pool.drain pools.(h))
  in
  (* Destroy draining replicas as they go idle; note when the host is
     empty — the drain window the phase p99s bracket. *)
  let sweep_draining () =
    match !draining with
    | None -> ()
    | Some h ->
        let arr = !replicas in
        if Array.exists (fun r -> r.rep_draining) arr then begin
          let gone = ref false in
          Array.iter
            (fun r ->
              if r.rep_draining && Lane.inflight r.rep_lane = 0 then begin
                Lane.detach r.rep_lane;
                Cki.Vcpu_sched.remove_vcpu scheds.(r.rep_host) r.rep_entry;
                Cki.Container.destroy r.rep_container;
                incr evacuated;
                gone := true
              end)
            arr;
          if !gone then
            replicas :=
              Array.of_list
                (List.filter
                   (fun r -> not (r.rep_draining && Lane.inflight r.rep_lane = 0))
                   (Array.to_list arr))
        end
        else if !drain_end_ns = 0.0 && Array.for_all (fun r -> r.rep_host <> h) arr then
          drain_end_ns := Hw.Clock.now clock
  in
  for _ = 1 to max cfg.initial_replicas cfg.autoscaler.Autoscaler.min_replicas do
    if not (spawn_replica ()) then failwith "Fleet: bootstrap replica failed verification"
  done;
  let admission =
    Admission.create ~max_inflight:tenant.max_inflight ~rate_rps:tenant.admission_rps
      ~now:(Hw.Clock.now clock) ()
  in
  let balancer = Balancer.create ~seed:(tenant_seed seed 1) cfg.balancer in
  let start_ns = Hw.Clock.now clock in
  let autoscaler = Autoscaler.create ~now:start_ns cfg.autoscaler in
  let interval = 1e9 /. tenant.rate_rps in
  let next_arrival = ref start_ns in
  let offered = ref 0 in
  let latencies = ref [] in
  let stamped = ref [] in  (* (completion_ns, latency_us) for phase p99s *)
  let completed = ref 0 in
  let inflight_total () = Array.fold_left (fun a r -> a + Lane.inflight r.rep_lane) 0 !replicas in
  (* Background refill skips a draining host (its pool must empty out,
     not regrow) and reaps retired templates whose last clone died. *)
  let refill_pools () =
    Array.iteri
      (fun h pool ->
        if !draining <> Some h then ignore (Snapshot.Pool.refill_low_water pool);
        ignore (Snapshot.Pool.reap_retired pool))
      pools
  in
  let rounds = ref 0 in
  let max_rounds = (100 * tenant.requests) + 10_000 in
  while !offered < tenant.requests || inflight_total () > 0 do
    incr rounds;
    if !rounds > max_rounds then
      failwith
        (Printf.sprintf
           "Fleet: tenant failed to converge (offered=%d completed=%d inflight=%d replicas=%d \
            now=%.0f next=%.0f)"
           !offered !completed (inflight_total ()) (Array.length !replicas) (Hw.Clock.now clock)
           !next_arrival);
    let progressed = ref false in
    (* Open-loop arrivals through admission control: refused requests
       are shed (counted) and never enter the fabric. *)
    while !offered < tenant.requests && !next_arrival <= Hw.Clock.now clock do
      incr offered;
      let now = Hw.Clock.now clock in
      if Admission.admit admission ~now ~inflight:(inflight_total ()) then begin
        let arr = !replicas in
        (* Draining replicas are fenced: they finish what they hold
           but take no new picks. *)
        let elig = ref [] in
        Array.iteri (fun i r -> if not r.rep_draining then elig := i :: !elig) arr;
        let elig = Array.of_list (List.rev !elig) in
        let n = Array.length elig in
        let i =
          Balancer.pick balancer ~load:(fun i -> Lane.inflight arr.(elig.(i)).rep_lane) ~n
        in
        Lane.send arr.(elig.(i)).rep_lane ~ts:!next_arrival
      end;
      next_arrival := !next_arrival +. interval;
      progressed := true
    done;
    (* The drain_host action fires once the offered count crosses the
       spec's threshold. *)
    (match cfg.drain with
    | Some d when !draining = None && !offered >= d.d_after_requests -> drain_host d.d_host
    | _ -> ());
    (* Deliver frames; handlers become scheduled vCPU work. *)
    Array.iter
      (fun r ->
        if Lane.pump ~submit:(Cki.Vcpu_sched.submit_work r.rep_entry) r.rep_lane > 0 then
          progressed := true)
      !replicas;
    (* Guest execution under quota; device service between slices.
       Only when handlers are actually queued — an idle fleet must not
       burn timer-gate charges (and pollute the quota windows) spinning
       empty slices. *)
    let pending_work =
      Array.fold_left
        (fun a r -> a + Queue.length r.rep_entry.Cki.Vcpu_sched.work)
        0 !replicas
    in
    if pending_work > 0 then begin
      let t0 = Hw.Clock.now clock in
      Array.iteri
        (fun h sched ->
          let host_pending =
            Array.fold_left
              (fun a r ->
                if r.rep_host = h then a + Queue.length r.rep_entry.Cki.Vcpu_sched.work else a)
              0 !replicas
          in
          if host_pending > 0 then
            Cki.Vcpu_sched.run sched
              ~slices:(max 1 (Array.length !replicas))
              ~after_slice:(fun () -> ignore (Ioplane.Loop.tick loop)))
        scheds;
      if Hw.Clock.now clock > t0 then progressed := true
    end;
    if Ioplane.Loop.tick loop > 0 then progressed := true;
    (* Reap completions; every latency feeds the autoscaler's window. *)
    Array.iter
      (fun r ->
        List.iter
          (fun ts ->
            let lat_us = (Hw.Clock.now clock -. ts) /. 1e3 in
            latencies := lat_us :: !latencies;
            stamped := (Hw.Clock.now clock, lat_us) :: !stamped;
            Autoscaler.observe autoscaler ~latency_us:lat_us;
            incr completed;
            progressed := true)
          (Lane.reap r.rep_lane))
      !replicas;
    sweep_draining ();
    (match
       Autoscaler.decide autoscaler ~now:(Hw.Clock.now clock) ~replicas:(Array.length !replicas)
     with
    | Autoscaler.Hold -> ()
    | Autoscaler.Scale_out ->
        if spawn_replica () then incr scale_outs;
        refill_pools ()
    | Autoscaler.Scale_in -> ignore (scale_in ()));
    (* Idle: background pool refill, then advance to the next arrival. *)
    if not !progressed then begin
      refill_pools ();
      if !offered < tenant.requests && !next_arrival > Hw.Clock.now clock then
        Hw.Clock.advance clock (!next_arrival -. Hw.Clock.now clock)
      else Hw.Clock.advance clock 1_000.0
    end
  done;
  let elapsed_ns = Hw.Clock.now clock -. start_ns in
  (* Phase p99s bracket the drain window: completions before the
     trigger, during the evacuation, and after the host emptied. *)
  let drain_ns, p99_before, p99_during, p99_after =
    if !drain_start_ns = 0.0 then (0.0, 0.0, 0.0, 0.0)
    else begin
      let d_end = if !drain_end_ns = 0.0 then Hw.Clock.now clock else !drain_end_ns in
      let phase lo hi =
        List.filter_map (fun (t, l) -> if t >= lo && t < hi then Some l else None) !stamped
      in
      let p99 = function [] -> 0.0 | l -> Report.Stats.percentile l ~p:99.0 in
      ( d_end -. !drain_start_ns,
        p99 (phase neg_infinity !drain_start_ns),
        p99 (phase !drain_start_ns d_end),
        p99 (phase d_end infinity) )
    end
  in
  let p50, p95, p99 = Ioplane.Serve.p50_p95_p99 !latencies in
  let merge_pool_stats () =
    Array.fold_left
      (fun (a : Snapshot.Pool.stats) p ->
        let s = Snapshot.Pool.stats p in
        {
          Snapshot.Pool.hits = a.Snapshot.Pool.hits + s.Snapshot.Pool.hits;
          misses = a.Snapshot.Pool.misses + s.Snapshot.Pool.misses;
          refills = a.Snapshot.Pool.refills + s.Snapshot.Pool.refills;
          size = a.Snapshot.Pool.size + s.Snapshot.Pool.size;
          served = a.Snapshot.Pool.served + s.Snapshot.Pool.served;
        })
      { Snapshot.Pool.hits = 0; misses = 0; refills = 0; size = 0; served = 0 }
      pools
  in
  {
    tr_name = tenant.name;
    tr_offered = !offered;
    tr_admitted = Admission.admitted admission;
    tr_shed = Admission.shed admission;
    tr_shed_rate = Admission.shed_rate admission;
    tr_shed_inflight = Admission.shed_inflight admission;
    tr_completed = !completed;
    tr_mean_us = Report.Stats.mean !latencies;
    tr_p50_us = p50;
    tr_p95_us = p95;
    tr_p99_us = p99;
    tr_windows = Autoscaler.windows autoscaler;
    tr_breaches = Autoscaler.breaches autoscaler;
    tr_scale_outs = !scale_outs;
    tr_scale_ins = !scale_ins;
    tr_verify_failures = !verify_failures;
    tr_peak_replicas = !peak;
    tr_final_replicas = Array.length !replicas;
    tr_spawns = List.rev !spawns;
    tr_pool = merge_pool_stats ();
    tr_balancer_picks = Balancer.picks balancer;
    tr_throttle_events =
      Array.fold_left (fun a s -> a + Cki.Vcpu_sched.throttle_events s) 0 scheds;
    tr_elapsed_ns = elapsed_ns;
    tr_evacuated = !evacuated;
    tr_drain_ns = drain_ns;
    tr_p99_before_us = p99_before;
    tr_p99_during_us = p99_during;
    tr_p99_after_us = p99_after;
  }

(* ------------------------------------------------------------------ *)
(* Domain-sharded execution (the Serve.run_sharded pattern)            *)
(* ------------------------------------------------------------------ *)

let run ?(domains = 0) (cfg : config) =
  if domains < 0 then invalid_arg "Fleet: negative domain count";
  if cfg.tenants = [] then invalid_arg "Fleet: need at least one tenant";
  let tenants = Array.of_list cfg.tenants in
  let lanes = Array.length tenants in
  let outs = Array.make lanes None in
  (* Spawn/join/ring plumbing lives in [Hw.Domain_shard] (the repo's
     one blessed spawn site); each tenant writes only its own [outs]
     slot. *)
  Hw.Domain_shard.run ~domains ~lanes (fun i ->
      outs.(i) <- Some (run_tenant cfg tenants.(i) ~seed:(tenant_seed cfg.seed i)));
  let out i = match outs.(i) with Some o -> o | None -> failwith "Fleet: tenant did not run" in
  (* Simulated makespan under the fixed tenant->domain assignment. *)
  let eff_domains = if domains <= 1 then 1 else domains in
  let makespan = ref 0.0 in
  for d = 0 to min eff_domains lanes - 1 do
    let span = ref 0.0 in
    let i = ref d in
    while !i < lanes do
      span := !span +. (out !i).tr_elapsed_ns;
      i := !i + eff_domains
    done;
    if !span > !makespan then makespan := !span
  done;
  {
    tenants = List.init lanes out;
    makespan_ns = !makespan;
    domains;
  }

let pp_tenant_result fmt tr =
  Format.fprintf fmt
    "%-12s offered=%d admitted=%d shed=%d done=%d  lat(us) p50=%.1f p95=%.1f p99=%.1f  \
     replicas peak=%d final=%d (out=%d in=%d)  pool hits=%d misses=%d refills=%d"
    tr.tr_name tr.tr_offered tr.tr_admitted tr.tr_shed tr.tr_completed tr.tr_p50_us tr.tr_p95_us
    tr.tr_p99_us tr.tr_peak_replicas tr.tr_final_replicas tr.tr_scale_outs tr.tr_scale_ins
    tr.tr_pool.Snapshot.Pool.hits tr.tr_pool.Snapshot.Pool.misses tr.tr_pool.Snapshot.Pool.refills
