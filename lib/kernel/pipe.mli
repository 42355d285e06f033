(** Pipes and AF_UNIX-style stream sockets: bounded byte queues with
    blocking semantics surfaced as [`Would_block]. *)

type t

val create : ?capacity:int -> Hw.Clock.t -> t

val write : t -> Bytes.t -> (int, [ `Would_block | `Epipe ]) result
(** Short writes when nearly full; [`Epipe] after the read end closes. *)

val read : t -> n:int -> (Bytes.t, [ `Would_block ]) result
(** Empty bytes = EOF (write end closed and drained). *)

val close_read : t -> unit
val close_write : t -> unit
