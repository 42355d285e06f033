(* In-memory key-value stores: a memcached-like multi-threaded server
   and a redis-like single-threaded server, driven by a
   memtier_benchmark-style client (1:1 GET/SET, 500-byte values) —
   Figure 16, and the redis/memcached bars of Figure 5.

   The servers run a real hash-table store and execute genuine recv/
   send syscalls on a simulated socket.  The backend-dependent costs —
   syscall redirection, virtio doorbell exits, interrupt delivery and
   EOI, nested L0 redirection — all flow through the platform, which is
   where the paper's 1.3x-6.8x spreads come from. *)

type flavor = Memcached | Redis [@@deriving show { with_path = false }]

type server = {
  flavor : flavor;
  backend : Virt.Backend.t;
  task : Kernel_model.Task.t;
  sock_fd : int;
  sock_id : int;
  store : (int, Bytes.t) Hashtbl.t;
  value_size : int;
  mutable requests : int;
}

(* Per-request application work beyond syscalls: protocol parsing,
   hashing, allocation.  Redis's single-threaded event loop does more
   per-command work (RESP parsing, object model). *)
let compute_per_request = function Memcached -> 600.0 | Redis -> 4_000.0

(* Auxiliary syscalls per request (epoll_wait and friends). *)
let aux_syscalls = function Memcached -> 3 | Redis -> 2

(* Event-loop batching: a pipelined single-threaded server coalesces
   doorbells/interrupts across the requests of one loop iteration. *)
let batch_size = function Memcached -> 1 | Redis -> 4

let create_server (b : Virt.Backend.t) flavor =
  let task = Virt.Backend.spawn b in
  let sock_fd =
    match Virt.Backend.syscall_exn b task Kernel_model.Syscall.Socket with
    | Kernel_model.Syscall.Rint fd -> fd
    | _ -> failwith "kv: socket failed"
  in
  let sock_id =
    match Kernel_model.Task.fd task sock_fd with
    | Some (Kernel_model.Task.Socket id) -> id
    | _ -> failwith "kv: no socket id"
  in
  (* Connect a client endpoint so sends have a destination. *)
  let wire = Kernel_model.Kernel.wire b.Virt.Backend.kernel in
  let client_ep = Kernel_model.Net.endpoint wire in
  (match Kernel_model.Kernel.socket_endpoint b.Virt.Backend.kernel sock_id with
  | Some server_ep -> Kernel_model.Net.connect wire server_ep client_ep
  | None -> failwith "kv: endpoint lookup failed");
  {
    flavor;
    backend = b;
    task;
    sock_fd;
    sock_id;
    store = Hashtbl.create 65536;
    value_size = 500;
    requests = 0;
  }

type request = Get of int | Set of int

let encode_request r size =
  match r with Get _ -> Bytes.create 24 | Set _ -> Bytes.create (24 + size)

(* Handle one already-delivered request: recv syscall, event-loop
   auxiliary syscalls, protocol compute, store operation, send syscall.
   The reply rides the TX queue; the caller flushes it at its own
   batching granularity. *)
let handle_request srv (req : request) =
  let b = srv.backend in
  srv.requests <- srv.requests + 1;
  (* recv the request *)
  ignore
    (Virt.Backend.syscall_exn b srv.task
       (Kernel_model.Syscall.Recv { fd = srv.sock_fd; n = 1024 }));
  (* event-loop / epoll auxiliary syscalls *)
  for _ = 1 to aux_syscalls srv.flavor do
    ignore (Virt.Backend.syscall_exn b srv.task Kernel_model.Syscall.Sched_yield)
  done;
  Profile.compute b (compute_per_request srv.flavor);
  let reply =
    match req with
    | Set (key : int) ->
        Hashtbl.replace srv.store key (Bytes.create srv.value_size);
        Bytes.of_string "STORED"
    | Get key -> (
        match Hashtbl.find_opt srv.store key with
        | Some v -> v
        | None -> Bytes.of_string "MISS")
  in
  (* send the reply *)
  ignore
    (Virt.Backend.syscall_exn b srv.task
       (Kernel_model.Syscall.Send { fd = srv.sock_fd; data = reply }))

(* Serve one batch: one RX interrupt delivers the batch, then each
   request is handled; the TX queue is flushed (kick + completion
   interrupt) per event-loop iteration. *)
let serve_batch srv (reqs : request list) =
  let b = srv.backend in
  let k = b.Virt.Backend.kernel in
  (match
     Kernel_model.Kernel.deliver_packets k ~sid:srv.sock_id
       (List.map (fun r -> encode_request r srv.value_size) reqs)
   with
  | Ok () -> ()
  | Error `No_socket -> failwith "kv: no socket");
  List.iter (handle_request srv) reqs;
  Kernel_model.Kernel.flush_net k;
  (* drain replies on the client side *)
  match Kernel_model.Kernel.socket_endpoint k srv.sock_id with
  | Some ep -> (
      match ep.Kernel_model.Net.peer with
      | Some peer_id ->
          let peer = Kernel_model.Net.get (Kernel_model.Kernel.wire k) peer_id in
          while Kernel_model.Net.pending peer > 0 do
            ignore (Kernel_model.Net.recv peer)
          done
      | None -> ())
  | None -> ()

(* memtier-style run: [clients] concurrent connections issuing a 1:1
   GET/SET mix.  Server throughput is requests / simulated busy time,
   scaled by a saturating concurrency factor (more clients keep the
   server busier until its vCPUs saturate).  Returns ops/sec. *)
let run_memtier (b : Virt.Backend.t) ~flavor ~clients ~requests =
  let srv = create_server b flavor in
  let rng = Profile.Rng.create ~seed:123L () in
  let batch = max 1 (min clients (batch_size flavor)) in
  let busy_ns =
    Profile.timed b (fun () ->
        let sent = ref 0 in
        while !sent < requests do
          let n = min batch (requests - !sent) in
          let reqs =
            List.init n (fun _ ->
                let key = Profile.Rng.int rng 100_000 in
                if Profile.Rng.int rng 2 = 0 then Set key else Get key)
          in
          serve_batch srv reqs;
          sent := !sent + n
        done)
  in
  let per_req = busy_ns /. float_of_int requests in
  (* Concurrency: client think time and the network overlap with server
     processing; utilization saturates as clients grow.  Memcached's
     worker threads also scale across vCPUs up to a point. *)
  let parallel = match flavor with Memcached -> 4.0 | Redis -> 1.0 in
  let util = float_of_int clients /. (float_of_int clients +. 4.0) in
  1e9 /. per_req *. util *. parallel

(* One-number throughput for Figure 5's redis/memcached bars. *)
let run_throughput (b : Virt.Backend.t) ~flavor ~requests =
  run_memtier b ~flavor ~clients:32 ~requests
