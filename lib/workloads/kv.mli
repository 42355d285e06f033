(** In-memory key-value stores: a memcached-like multi-threaded server
    and a redis-like single-threaded server, driven by a
    memtier_benchmark-style client (1:1 GET/SET, 500-byte values) —
    Figure 16 and the redis/memcached bars of Figure 5.

    Servers run a real hash-table store and genuine recv/send syscalls
    on a simulated socket; the backend-dependent costs (syscall
    redirection, doorbell exits, interrupt delivery + EOI, nested L0
    redirection) flow through the platform. *)

type flavor = Memcached | Redis

val show_flavor : flavor -> string

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

val create_server : Virt.Backend.t -> flavor -> server

type request = Get of int | Set of int

val encode_request : request -> int -> Bytes.t
(** Wire encoding (24-byte header; SET carries the value). *)

val handle_request : server -> request -> unit
(** Handle one already-delivered request (recv + aux syscalls + compute
    + store op + send). The reply rides the TX queue; the caller
    flushes at its own batching granularity. *)

val serve_batch : server -> request list -> unit
(** One RX interrupt delivers the batch; per request: recv, store op,
    send; the TX queue is flushed (kick + completion interrupt) once. *)

val run_memtier : Virt.Backend.t -> flavor:flavor -> clients:int -> requests:int -> float
(** memtier-style run; returns throughput in ops/sec (server busy time
    scaled by a saturating concurrency factor). *)

val run_throughput : Virt.Backend.t -> flavor:flavor -> requests:int -> float
(** One-number throughput for Figure 5's bars (32 clients). *)
