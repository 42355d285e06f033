(** Inter-container software switch: the host-side L2 fabric of the
    I/O plane. Container virtio-net backends and load-generator clients
    own ports connected pairwise; forwarding charges host CPU (lookup +
    copy) on the shared clock. *)

type port = {
  id : int;
  name : string;
  inbox : Kernel_model.Net.Frames.t;  (** frames in arrival order *)
  mutable link : int option;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable rx_packets : int;
  mutable rx_bytes : int;
}

type t

val create : Hw.Clock.t -> t
val port : t -> name:string -> port
val connect : t -> port -> port -> unit

val forward : t -> src:port -> Bytes.t -> unit
(** Forward one frame out of [src] to its linked peer's inbox (dropped
    and counted if unlinked). *)

val pending : port -> int
val forwarded : t -> int
val dropped : t -> int
