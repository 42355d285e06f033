(** Multi-container traffic-serving harness (Figure 16 shape).

    An open-loop memtier-style load generator drives N containers of
    one backend through the software switch. Requests arrive on a fixed
    schedule regardless of fleet progress, so latency percentiles
    include queueing delay. Each run reports throughput, p50/p95/p99
    latency, and per-request doorbell / interrupt / exit counts. *)

type workload = Kv_memcached | Kv_redis | Web_static | Web_httpd

val workload_of_string : string -> workload option

(** One container's lane through the I/O plane: a backend wired to the
    event loop, its client switch port, a workload-specific request
    encoder, and completion bookkeeping.  The serve harness drives a
    fixed set of lanes; {!Fleet.Controller} attaches and detaches them
    dynamically as it scales. *)
module Lane : sig
  type t

  val attach :
    loop:Loop.t ->
    workload:workload ->
    ?fsync_every:int ->
    ?queue_size:int ->
    ?window:int ->
    rand:(int -> int) ->
    name:string ->
    Virt.Backend.t ->
    t
  (** Wire a backend into [loop]: configure its virtio queues, attach
      it, create + connect the client port, and boot the workload
      server.  [rand] draws request keys — the caller owns the RNG, so
      determinism policy (shared vs per-lane streams) stays with the
      harness. *)

  val send : t -> ts:float -> unit
  (** Inject one request, stamped with its scheduled arrival time [ts]
      for end-to-end latency accounting. *)

  val pump : ?submit:((unit -> unit) -> unit) -> t -> int
  (** Deliver inbound frames into the guest and run one request handler
      per frame — inline, or handed to [submit] (vCPU-scheduler work
      injection). Returns frames delivered. *)

  val reap : t -> float list
  (** Drain completed replies; returns their arrival timestamps
      (end-to-end latency = now - ts). *)

  val inflight : t -> int
  (** Requests sent but not yet reaped. *)

  val backend : t -> Virt.Backend.t

  val detach : t -> unit
  (** Unplug from the event loop and unlink both switch ports (frames
      aimed at a dead lane count as switch drops). Idempotent; the
      backend itself is the caller's to destroy. *)
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

val default_config : config

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

val xorshift : int ref -> int -> int
(** [xorshift rng n] steps the xorshift state [rng] and draws from
    [0, n): the request-key stream of {!run} and [Fleet.Controller]. *)

val exit_events : string -> string list
(** Clock event names that count as privilege-boundary exits for a
    backend (empty for runc). *)

val p50_p95_p99 : float list -> float * float * float
(** The p50/p95/p99 nearest-rank latencies of a sample, sorted once
    ([nan]s when empty). *)

val run : ?domains:int -> config -> result * Cki.Container.t list
(** Build the fleet, serve every request, and collect counters. The
    returned containers (cki backend only) let callers run the
    whole-machine invariant checker over the final state.

    [domains = 0] (default) is the original shared-machine engine: all
    containers on one machine, one clock, latencies coupled through the
    shared event loop. [domains >= 1] shards whole containers across
    OCaml domains: each lane is a complete single-container fleet (own
    machine/clock/loop/switch) with a lane-derived rng seed; lanes are
    merged deterministically in lane order, per-lane probe streams are
    replayed into the caller's sink, and the reported throughput is
    computed over the simulated parallel makespan (max over domains of
    the sum of their lanes' elapsed times under the fixed round-robin
    lane assignment). Everything except that makespan accounting
    ([r_wall_ns], [r_throughput_rps], [r_domains]) is identical for
    every [domains >= 1]; [domains = 1] runs the lanes inline with no
    spawns.

    Every guest handler runs inline as its frame is pumped; scheduled,
    quota-capped serving is [Fleet.Controller]'s.
    @raise Invalid_argument on fewer than one container or request per
    container, or an arrival rate that is not finite and positive. *)

val pp_result : Format.formatter -> result -> unit
