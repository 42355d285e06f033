(** A multi-host fabric: N independent machines (own physical memory,
    clock, CKI host, I/O-plane switch) joined by links with simulated
    bandwidth and latency.

    A transfer charges [latency + bytes/bw] to {e both} ends' clocks
    and synchronizes them to the later one — the two machines block on
    the same wire, so their clocks agree at every rendezvous.  Between
    transfers the clocks run free: source serving time accrues on the
    source clock only.

    {e Endpoints} are the re-homable service ports of live migration:
    {!deliver} lands client frames in the inbox on whichever host
    currently homes the endpoint, {!freeze} buffers them during the
    cutover window, {!rehome} moves the port atomically and
    {!unfreeze} replays the buffer into the new inbox.

    {!crash_host} and {!partition} are the chaos surface: a dead host
    refuses transfers and drops deliveries; a partitioned pair refuses
    transfers while both stay alive. *)

type link = { bw_bytes_per_ns : float; latency_ns : float }

type node = {
  hid : int;
  machine : Hw.Machine.t;
  host : Cki.Host.t;
  switch : Ioplane.Switch.t;
  mutable alive : bool;
}

type endpoint = {
  ep_name : string;
  mutable ep_home : int;
  mutable ep_port : Ioplane.Switch.port;
  mutable ep_frozen : bool;
  ep_buffer : Bytes.t Queue.t;
  mutable ep_delivered : int;
  mutable ep_dropped : int;
}

type t

val create : ?mem_mib:int -> ?link:link -> hosts:int -> unit -> t

val host : t -> int -> Cki.Host.t
val machine : t -> int -> Hw.Machine.t
val clock : t -> int -> Hw.Clock.t
val alive : t -> int -> bool

val transfer : t -> src:int -> dst:int -> bytes:int -> (float, string) result
(** Move [bytes] over the link; returns the wire time charged to both
    clocks, or [Error] when either end is dead or the pair is
    partitioned. *)

val transferred_bytes : t -> int

val crash_host : t -> int -> unit
val partition : t -> int -> int -> unit
val heal : t -> int -> int -> unit

val expose : t -> name:string -> home:int -> endpoint
val endpoint_home : t -> string -> int
val endpoint_port : t -> string -> Ioplane.Switch.port

val deliver : t -> name:string -> Bytes.t -> unit
(** Client frame addressed to the endpoint: inbox when live, buffer
    when frozen, counted drop when the home host is dead. *)

val freeze : t -> name:string -> unit
val rehome : t -> name:string -> to_:int -> unit
val unfreeze : t -> name:string -> int
(** Replay buffered frames into the (possibly re-homed) inbox; returns
    the number replayed. *)

val buffered : t -> string -> int
val delivered : t -> string -> int
val dropped : t -> string -> int

val owned_frames : t -> hid:int -> container:int -> int
(** Frames on host [hid] still owned by [container] (data or KSM) —
    the chaos leak check: the losing copy of a migration must account
    for exactly zero. *)
