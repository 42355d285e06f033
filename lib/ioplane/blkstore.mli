(** Host block store behind the virtio-blk backends: an append-only
    write sink (the host's image files). Media cost is charged by the
    queue service path; this is the accounting endpoint. *)

type t

val create : unit -> t
val write : t -> Bytes.t -> unit
val writes : t -> int
