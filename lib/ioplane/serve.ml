(* Multi-container traffic-serving harness (Figure 16 shape).

   An open-loop memtier-style load generator drives N containers of
   one backend through the switch: requests arrive on a fixed
   inter-arrival schedule whether or not the fleet keeps up, so
   latency includes queueing delay and the tail percentiles mean
   something.  Every request rides the full data path — switch port ->
   RX ring fill -> guest syscalls -> TX ring -> host service pass ->
   switch -> client port — and the per-request doorbell / interrupt /
   exit counts fall out of the same EVENT_IDX machinery the kernels
   use everywhere else.

   The per-container plumbing lives in [Lane]: one backend wired to
   the event loop plus its client port, request encoder and completion
   bookkeeping.  This harness drives a fixed set of lanes; the fleet
   controller (lib/fleet) attaches and detaches lanes dynamically. *)

type workload = Kv_memcached | Kv_redis | Web_static | Web_httpd

let workload_name = function
  | Kv_memcached -> "memcached"
  | Kv_redis -> "redis"
  | Web_static -> "nginx-static"
  | Web_httpd -> "httpd"

let workload_of_string = function
  | "memcached" | "kv" -> Some Kv_memcached
  | "redis" -> Some Kv_redis
  | "nginx" | "static" | "nginx-static" | "web" -> Some Web_static
  | "httpd" -> Some Web_httpd
  | _ -> None

(* Exit-accounting events per backend: every guest/host privilege
   crossing the paper counts in Figure 16. *)
let exit_events = function
  | "runc" -> []
  | "hvm" -> [ "vmexit"; "vmexit_nested" ]
  | "pvm" -> [ "pvm_hypercall"; "pvm_hypercall_nst" ]
  | "cki" -> [ "cki_hypercall"; "cki_irq_exit" ]
  | other -> invalid_arg ("Serve: unknown backend " ^ other)

(* The three reported latency percentiles, from one sort. *)
let p50_p95_p99 lat_us =
  match Report.Stats.percentiles lat_us ~ps:[ 50.0; 95.0; 99.0 ] with
  | [ p50; p95; p99 ] -> (p50, p95, p99)
  | _ -> invalid_arg "Serve.p50_p95_p99"

let count_events clock names =
  List.fold_left (fun acc e -> acc + Hw.Clock.occurrences clock e) 0 names

(* Drain the wire-side client peer of socket [sid], returning the
   number of frames taken. For virtio backends the switch port carries
   the measured reply path and the wire copy is discarded; for runc
   (no rings) the wire IS the reply path. *)
let drain_wire kernel sid =
  match Kernel_model.Kernel.socket_endpoint kernel sid with
  | None -> 0
  | Some ep -> (
      match ep.Kernel_model.Net.peer with
      | None -> 0
      | Some pid ->
          let peer = Kernel_model.Net.get (Kernel_model.Kernel.wire kernel) pid in
          let n = ref 0 in
          while Kernel_model.Net.pending peer > 0 do
            ignore (Kernel_model.Net.recv peer);
            incr n
          done;
          !n)

module Lane = struct
  type t = {
    backend : Virt.Backend.t;
    kernel : Kernel_model.Kernel.t;
    loop : Loop.t;
    att : Loop.attachment;
    client : Switch.port;
    encode : unit -> Bytes.t * (unit -> unit);
        (** draw the next request: wire payload + its handler *)
    inflight : (float * (unit -> unit)) Queue.t;  (** delivered-but-unhandled *)
    awaiting : float Queue.t;  (** handled, reply in transit: arrival ts *)
    mutable sent : int;
    mutable detached : bool;
  }

  let attach ~loop ~workload ?(fsync_every = 0) ?(queue_size = 64) ?(window = 1) ~rand ~name
      (b : Virt.Backend.t) =
    let kernel = b.Virt.Backend.kernel in
    Kernel_model.Kernel.configure_io ~queue_size ~window kernel;
    let att = Loop.attach loop kernel ~name in
    let switch = Loop.switch loop in
    let client = Switch.port switch ~name:(name ^ "-client") in
    Switch.connect switch att.Loop.port client;
    let sid, encode =
      match workload with
      | Kv_memcached | Kv_redis ->
          let flavor =
            match workload with Kv_redis -> Workloads.Kv.Redis | _ -> Workloads.Kv.Memcached
          in
          let srv = Workloads.Kv.create_server b flavor in
          let log_fd =
            if fsync_every > 0 then
              match
                Virt.Backend.syscall_exn b srv.Workloads.Kv.task
                  (Kernel_model.Syscall.Open { path = "/kv.log"; create = true })
              with
              | Kernel_model.Syscall.Rint fd -> Some fd
              | _ -> None
            else None
          in
          let sets = ref 0 in
          let encode () =
            let key = rand 100_000 in
            let req = if rand 2 = 0 then Workloads.Kv.Set key else Workloads.Kv.Get key in
            let payload = Workloads.Kv.encode_request req srv.Workloads.Kv.value_size in
            let handle () =
              Workloads.Kv.handle_request srv req;
              match (req, log_fd) with
              | Workloads.Kv.Set _, Some fd ->
                  incr sets;
                  if !sets mod fsync_every = 0 then begin
                    ignore
                      (Virt.Backend.syscall_exn b srv.Workloads.Kv.task
                         (Kernel_model.Syscall.Write { fd; data = Bytes.create 64 }));
                    ignore
                      (Virt.Backend.syscall_exn b srv.Workloads.Kv.task
                         (Kernel_model.Syscall.Fsync fd))
                  end
              | _ -> ()
            in
            (payload, handle)
          in
          (srv.Workloads.Kv.sock_id, encode)
      | Web_static | Web_httpd ->
          let kind =
            match workload with
            | Web_httpd -> Workloads.Webserver.Httpd
            | _ -> Workloads.Webserver.Nginx_static
          in
          let srv = Workloads.Webserver.create b kind in
          let encode () = (Bytes.create 512, fun () -> Workloads.Webserver.serve_one srv) in
          (srv.Workloads.Webserver.sock_id, encode)
    in
    Loop.set_rx_socket att sid;
    {
      backend = b;
      kernel;
      loop;
      att;
      client;
      encode;
      inflight = Queue.create ();
      awaiting = Queue.create ();
      sent = 0;
      detached = false;
    }

  let send t ~ts =
    if t.detached then invalid_arg "Serve.Lane.send: lane is detached";
    let payload, handle = t.encode () in
    Switch.forward (Loop.switch t.loop) ~src:t.client payload;
    Queue.add (ts, handle) t.inflight;
    t.sent <- t.sent + 1

  (* Deliver inbound frames, then run (or hand off) one handler per
     frame.  The arrival timestamp moves to the awaiting queue at
     hand-off time, not completion time: replies only materialize after
     the handler runs and handlers execute FIFO, so reap still matches
     them in order — and [inflight] keeps counting a request whose
     handler sits on a scheduler queue (scale-in must see it). *)
  let pump ?submit t =
    let n = Loop.pump t.att in
    for _ = 1 to n do
      match Queue.take_opt t.inflight with
      | None -> ()
      | Some (ts, handle) -> (
          Queue.add ts t.awaiting;
          match submit with Some s -> s handle | None -> handle ())
    done;
    n

  (* Reap completed replies, returning their arrival timestamps. *)
  let reap t =
    let port_replies = List.length (Switch.drain t.client) in
    let sid = Option.value t.att.Loop.rx_sid ~default:(-1) in
    let wire_replies = drain_wire t.kernel sid in
    let replies =
      if Kernel_model.Kernel.virtualized_io t.kernel then port_replies else wire_replies
    in
    let out = ref [] in
    for _ = 1 to replies do
      match Queue.take_opt t.awaiting with
      | None -> ()
      | Some ts -> out := ts :: !out
    done;
    List.rev !out

  let inflight t = Queue.length t.inflight + Queue.length t.awaiting
  let sent t = t.sent
  let backend t = t.backend

  (* Unplug from the event loop and unlink both switch ports, so frames
     sent at a dead lane are counted as drops instead of queueing
     forever.  The backend itself is the caller's to destroy. *)
  let detach t =
    if not t.detached then begin
      t.detached <- true;
      Loop.detach t.loop t.att;
      t.att.Loop.port.Switch.link <- None;
      t.client.Switch.link <- None
    end
end

type config = {
  backend : string;  (** runc | hvm | pvm | cki *)
  nested : bool;
  containers : int;
  requests_per_container : int;
  window : int;  (** EVENT_IDX batch window; 0 = naive *)
  queue_size : int;
  rate_rps : float;  (** open-loop arrival rate per container *)
  workload : workload;
  fsync_every : int;  (** kv: log-append + fsync every Nth SET; 0 = off *)
}

let default_config =
  {
    backend = "cki";
    nested = false;
    containers = 2;
    requests_per_container = 50;
    window = 1;
    queue_size = 64;
    rate_rps = 50_000.0;
    workload = Kv_memcached;
    fsync_every = 0;
  }

type result = {
  r_backend : string;
  r_label : string;
  r_workload : string;
  r_containers : int;
  r_requests : int;
  r_window : int;
  r_throughput_rps : float;
  r_mean_us : float;
  r_p50_us : float;
  r_p95_us : float;
  r_p99_us : float;
  r_doorbells : int;
  r_suppressed_kicks : int;
  r_interrupts : int;
  r_suppressed_interrupts : int;
  r_exits : int;
  r_doorbells_per_req : float;
  r_interrupts_per_req : float;
  r_exits_per_req : float;
  r_tx_stalls : int;
  r_switch_forwarded : int;
  r_blk_writes : int;
  r_service_passes : int;
  r_wall_ns : float;  (** simulated makespan the throughput is computed over *)
  r_domains : int;  (** 0 = shared-machine sequential path *)
}

(* One container's slot in the load schedule. *)
type chan = { lane : Lane.t; mutable next_arrival : float }

let default_seed = 0x2545F4914F6CDD1D

let xorshift rng n =
  let x = !rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  rng := x land max_int;
  !rng mod n

(* One fleet on one machine: the original sequential engine, now
   seedable so the sharded mode can give every lane its own
   deterministic request stream.  Returns the derived result plus the
   raw latencies and elapsed time the merge needs. *)
let run_core ?(seed = default_seed) cfg =
  let env = if cfg.nested then Virt.Env.Nested else Virt.Env.Bare_metal in
  let mem_mib = 256 + (128 * cfg.containers) in
  let machine = Hw.Machine.create ~cpus:4 ~mem_mib () in
  let clock = Hw.Machine.clock machine in
  let cki_containers = ref [] in
  let host =
    match cfg.backend with "cki" -> Some (Cki.Host.create machine) | _ -> None
  in
  let mk_backend () =
    match (cfg.backend, host) with
    | "runc", _ -> Virt.Runc.create ~env machine
    | "hvm", _ -> Virt.Hvm.create ~env machine
    | "pvm", _ -> Virt.Pvm.create ~env machine
    | "cki", Some h ->
        let c = Cki.Container.create ~env h in
        cki_containers := c :: !cki_containers;
        Cki.Container.backend c
    | other, _ -> invalid_arg ("Serve: unknown backend " ^ other)
  in
  let loop = Loop.create clock in
  let switch = Loop.switch loop in
  let interval = 1e9 /. cfg.rate_rps in
  let rand = xorshift (ref seed) in
  let mk_chan i =
    let b = mk_backend () in
    let name = Printf.sprintf "%s%d" cfg.backend i in
    let lane =
      Lane.attach ~loop ~workload:cfg.workload ~fsync_every:cfg.fsync_every
        ~queue_size:cfg.queue_size ~window:cfg.window ~rand ~name b
    in
    {
      lane;
      next_arrival =
        Hw.Clock.now clock +. (float_of_int i *. (interval /. float_of_int cfg.containers));
    }
  in
  let chans = List.init cfg.containers mk_chan in
  let total = cfg.containers * cfg.requests_per_container in
  let latencies = ref [] in
  let completed = ref 0 in
  let exits0 = count_events clock (exit_events cfg.backend) in
  let start_ns = Hw.Clock.now clock in
  (* Rebase the arrival schedule: fleet construction (guest boots)
     advanced the clock well past the chan-creation timestamps. *)
  List.iteri
    (fun i c ->
      c.next_arrival <-
        start_ns +. (float_of_int i *. (interval /. float_of_int cfg.containers)))
    chans;
  let rounds = ref 0 in
  let max_rounds = (100 * total) + 10_000 in
  while !completed < total do
    incr rounds;
    if !rounds > max_rounds then failwith "Serve: harness failed to converge";
    let progressed = ref false in
    (* Open-loop arrivals: inject every request whose scheduled arrival
       time has passed, timestamping for end-to-end latency. *)
    List.iter
      (fun c ->
        while
          Lane.sent c.lane < cfg.requests_per_container && c.next_arrival <= Hw.Clock.now clock
        do
          Lane.send c.lane ~ts:c.next_arrival;
          c.next_arrival <- c.next_arrival +. interval;
          progressed := true
        done)
      chans;
    (* Pump inbound frames into each guest; handlers run inline. *)
    List.iter (fun c -> if Lane.pump c.lane > 0 then progressed := true) chans;
    (* Host event-loop iteration: service outstanding queues (batch
       window boundary — coalesced completions force one interrupt). *)
    if Loop.tick loop > 0 then progressed := true;
    (* Reap replies: virtio backends deliver them through the TX ring
       and switch port (the wire copy is discarded); runc has no rings,
       so the wire peer is the reply path. *)
    List.iter
      (fun c ->
        List.iter
          (fun ts ->
            latencies := (Hw.Clock.now clock -. ts) :: !latencies;
            incr completed;
            progressed := true)
          (Lane.reap c.lane))
      chans;
    (* Idle: advance the clock to the next scheduled arrival. *)
    if not !progressed then begin
      let next =
        List.fold_left
          (fun acc c ->
            if Lane.sent c.lane < cfg.requests_per_container then min acc c.next_arrival else acc)
          infinity chans
      in
      if next < infinity && next > Hw.Clock.now clock then
        Hw.Clock.advance clock (next -. Hw.Clock.now clock)
      else
        (* stragglers with no arrival pending: nudge time forward so a
           service pass can run on the next round *)
        Hw.Clock.advance clock 1_000.0
    end
  done;
  let elapsed_ns = Hw.Clock.now clock -. start_ns in
  let exits = count_events clock (exit_events cfg.backend) - exits0 in
  let sum f =
    List.fold_left
      (fun acc c ->
        match Kernel_model.Kernel.io_devices c.lane.Lane.kernel with
        | None -> acc
        | Some (tx, rx, blk) -> acc + f tx + f rx + f blk)
      0 chans
  in
  let doorbells = sum Kernel_model.Virtio.kicks in
  let suppressed_kicks = sum Kernel_model.Virtio.suppressed_kicks in
  let interrupts = sum Kernel_model.Virtio.interrupts in
  let suppressed_interrupts = sum Kernel_model.Virtio.suppressed_interrupts in
  let tx_stalls =
    List.fold_left (fun acc c -> acc + Kernel_model.Kernel.tx_stalls c.lane.Lane.kernel) 0 chans
  in
  let lat_us = List.map (fun ns -> ns /. 1e3) !latencies in
  let p50, p95, p99 = p50_p95_p99 lat_us in
  let fl = float_of_int total in
  let label =
    match chans with c :: _ -> c.lane.Lane.backend.Virt.Backend.label | [] -> cfg.backend
  in
  let result =
    {
      r_backend = cfg.backend;
      r_label = label;
      r_workload = workload_name cfg.workload;
      r_containers = cfg.containers;
      r_requests = total;
      r_window = cfg.window;
      r_throughput_rps = fl /. (elapsed_ns /. 1e9);
      r_mean_us = Report.Stats.mean lat_us;
      r_p50_us = p50;
      r_p95_us = p95;
      r_p99_us = p99;
      r_doorbells = doorbells;
      r_suppressed_kicks = suppressed_kicks;
      r_interrupts = interrupts;
      r_suppressed_interrupts = suppressed_interrupts;
      r_exits = exits;
      r_doorbells_per_req = float_of_int doorbells /. fl;
      r_interrupts_per_req = float_of_int interrupts /. fl;
      r_exits_per_req = float_of_int exits /. fl;
      r_tx_stalls = tx_stalls;
      r_switch_forwarded = Switch.forwarded switch;
      r_blk_writes = Blkstore.writes (Loop.blkstore loop);
      r_service_passes = Loop.service_passes loop;
      r_wall_ns = elapsed_ns;
      r_domains = 0;
    }
  in
  (result, List.rev !cki_containers, lat_us, elapsed_ns)

(* ------------------------------------------------------------------ *)
(* Domain-sharded execution                                            *)
(* ------------------------------------------------------------------ *)

(* Whole containers are the sharding unit: lane [i] is a complete
   single-container fleet (own machine, clock, event loop, switch) so
   lanes share no mutable state and a lane's result is independent of
   which domain ran it.  Lane [i] always gets the same derived rng
   seed, lanes are merged in fixed lane order, and the reported
   makespan is [max over domains of the sum of that domain's lane
   elapsed times] under the fixed round-robin lane->domain assignment
   — so the merged output is a pure function of [cfg] and [lanes],
   identical for any [domains >= 1] (and [domains = 1] IS the
   sequential lane-engine path, no spawns). *)
let lane_seed i =
  let s = (default_seed lxor (i * 0x9E3779B97F4A7C1)) land max_int in
  if s = 0 then 1 else s

let run_sharded ~domains cfg =
  let lanes = cfg.containers in
  let lane_cfg = { cfg with containers = 1 } in
  (* Spawn/join/ring plumbing lives in [Hw.Domain_shard] (the repo's
     one blessed spawn site). *)
  let outs =
    Hw.Domain_shard.map ~domains ~lanes (fun i -> run_core ~seed:(lane_seed i) lane_cfg)
  in
  let sum_i f = Array.fold_left (fun acc (r, _, _, _) -> acc + f r) 0 outs in
  let makespan = Hw.Domain_shard.makespan ~domains (Array.map (fun (_, _, _, e) -> e) outs) in
  let outs_l = Array.to_list outs in
  let lat_us = List.concat_map (fun (_, _, l, _) -> l) outs_l in
  let p50, p95, p99 = p50_p95_p99 lat_us in
  let containers = List.concat_map (fun (_, cs, _, _) -> cs) outs_l in
  let r0, _, _, _ = outs.(0) in
  let total = sum_i (fun r -> r.r_requests) in
  let doorbells = sum_i (fun r -> r.r_doorbells) in
  let interrupts = sum_i (fun r -> r.r_interrupts) in
  let exits = sum_i (fun r -> r.r_exits) in
  let fl = float_of_int total in
  let result =
    {
      r0 with
      r_containers = lanes;
      r_requests = total;
      r_throughput_rps = fl /. (makespan /. 1e9);
      r_mean_us = Report.Stats.mean lat_us;
      r_p50_us = p50;
      r_p95_us = p95;
      r_p99_us = p99;
      r_doorbells = doorbells;
      r_suppressed_kicks = sum_i (fun r -> r.r_suppressed_kicks);
      r_interrupts = interrupts;
      r_suppressed_interrupts = sum_i (fun r -> r.r_suppressed_interrupts);
      r_exits = exits;
      r_doorbells_per_req = float_of_int doorbells /. fl;
      r_interrupts_per_req = float_of_int interrupts /. fl;
      r_exits_per_req = float_of_int exits /. fl;
      r_tx_stalls = sum_i (fun r -> r.r_tx_stalls);
      r_switch_forwarded = sum_i (fun r -> r.r_switch_forwarded);
      r_blk_writes = sum_i (fun r -> r.r_blk_writes);
      r_service_passes = sum_i (fun r -> r.r_service_passes);
      r_wall_ns = makespan;
      r_domains = domains;
    }
  in
  (result, containers)

let run ?(domains = 0) cfg =
  if domains < 0 then invalid_arg "Serve: negative domain count";
  if cfg.containers < 1 then invalid_arg "Serve: need at least one container";
  if cfg.requests_per_container < 1 then invalid_arg "Serve: need at least one request";
  if not (Float.is_finite cfg.rate_rps && cfg.rate_rps > 0.0) then
    invalid_arg "Serve: arrival rate must be finite and positive";
  if domains = 0 then begin
    let result, containers, _, _ = run_core cfg in
    (result, containers)
  end
  else run_sharded ~domains cfg

let pp_result fmt r =
  Format.fprintf fmt
    "%-10s %-13s containers=%d window=%d  %8.1f req/s  lat(us) mean=%.1f p50=%.1f p95=%.1f \
     p99=%.1f@\n\
    \           per-req: doorbells=%.2f irqs=%.2f exits=%.2f  (suppressed kicks=%d irqs=%d, \
     stalls=%d, blk writes=%d)"
    r.r_label r.r_workload r.r_containers r.r_window r.r_throughput_rps r.r_mean_us r.r_p50_us
    r.r_p95_us r.r_p99_us r.r_doorbells_per_req r.r_interrupts_per_req r.r_exits_per_req
    r.r_suppressed_kicks r.r_suppressed_interrupts r.r_tx_stalls r.r_blk_writes
