(** Host I/O event loop: multiplexes virtio device work across the
    container fleet.

    Doorbells either trigger an immediate service pass (window = 0,
    naive) or mark the attachment pending for the next batch window
    (EVENT_IDX coalescing, NAPI-style host polling). Each [tick] pumps
    inbound switch frames into the guests and services outstanding TX /
    blk work, forwarding frames through the {!Switch} and landing blk
    writes in the {!Blkstore}. *)

type attachment = {
  kernel : Kernel_model.Kernel.t;
  port : Switch.port;
  mutable rx_sid : int option;
  mutable pending_tx : bool;
  mutable pending_blk : bool;
}

type t

val create : Hw.Clock.t -> t
val switch : t -> Switch.t
val blkstore : t -> Blkstore.t

val attach : t -> Kernel_model.Kernel.t -> name:string -> attachment
(** Give [kernel] a switch port and install the io-backend hooks
    (doorbell notification, synchronous service for backpressure, the
    block-store sink). *)

val detach : t -> attachment -> unit
val set_rx_socket : attachment -> int -> unit

val pump : attachment -> int
(** Deliver inbound frames queued at the port into the kernel's RX
    path; returns frames delivered. *)

val tick : t -> int
(** One event-loop iteration over the fleet (pump + service where
    outstanding); returns total progress (frames + chains). *)

val service_passes : t -> int
