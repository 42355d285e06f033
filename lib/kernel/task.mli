(** Task (process) structures and file-descriptor tables. *)

type state = Runnable | Running | Blocked | Zombie

type file_desc = { inode : Tmpfs.inode; mutable pos : int }

type fd_object =
  | File of file_desc
  | Pipe_read of Pipe.t
  | Pipe_write of Pipe.t
  | Socket of int  (** endpoint id in the kernel's socket table *)

type t = {
  pid : int;
  parent : int;
  mm : Mm.t;
  fds : (int, fd_object) Hashtbl.t;
  mutable next_fd : int;
  mutable state : state;
  mutable exit_code : int option;
  mutable utime_ns : float;
}

val create : pid:int -> parent:int -> Mm.t -> t
val install_fd : t -> fd_object -> int

val restore_fd : t -> fd:int -> fd_object -> unit
(** Snapshot restore: re-install a descriptor at its captured number,
    keeping [next_fd] above every restored descriptor. *)

val fd : t -> int -> fd_object option
val close_fd : t -> int -> unit
val fd_count : t -> int
