(** A minimal network: endpoints with RX queues connected pairwise.

    Client models (memtier, netperf, web clients) sit on one endpoint,
    the container's server kernel on the other. Wire time is not
    charged on the sender's clock — the NIC drains asynchronously, so
    only CPU-side costs count for server throughput. *)

(** A FIFO of frames: a growable ring of payload references that
    allocates nothing once grown to its high-water mark.  A frame is
    the sender's [Bytes.t], not a copy, and only its length is
    simulated: a receiver that keeps a frame past the sender's next
    write to that buffer must copy it. *)
module Frames : sig
  type t

  val create : unit -> t
  val length : t -> int
  val push : t -> Bytes.t -> unit

  val get : t -> int -> Bytes.t
  (** [get t i] is the [i]-th oldest frame, without removing it. *)

  val drop : t -> int -> unit
  (** Remove the [n] oldest frames. *)

  val pop : t -> Bytes.t
  (** Remove and return the oldest frame.
      @raise Invalid_argument when empty. *)
end

type endpoint = {
  id : int;
  rx : Frames.t;
  mutable peer : int option;
  mutable rx_packets : int;
  mutable tx_packets : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
}

type t

val create : Hw.Clock.t -> t
val endpoint : t -> endpoint
val connect : t -> endpoint -> endpoint -> unit
val get : t -> int -> endpoint
val send : t -> endpoint -> Bytes.t -> (int, [ `Not_connected ]) result
val recv : endpoint -> (Bytes.t, [ `Would_block ]) result
val pending : endpoint -> int

val discard : endpoint -> int
(** Drop every pending frame; returns how many there were. *)
