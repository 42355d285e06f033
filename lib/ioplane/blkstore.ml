(* Host block store behind the virtio-blk backends: an append-only
   write sink modelling the host's image files.  Per-sector media cost
   is charged by the queue service path (Kernel.host_service_blk); this
   module is the accounting endpoint. *)

type t = { mutable writes : int }

let create () = { writes = 0 }
let write t (_ : Bytes.t) = t.writes <- t.writes + 1

let writes t = t.writes
