(* Task (process/thread) structures and file-descriptor tables. *)

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
  mutable utime_ns : float;  (** accumulated simulated CPU time *)
}

let create ~pid ~parent mm =
  {
    pid;
    parent;
    mm;
    fds = Hashtbl.create 16;
    next_fd = 3;
    state = Runnable;
    exit_code = None;
    utime_ns = 0.0;
  }

let install_fd t obj =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd obj;
  fd

(* Snapshot restore: re-install a descriptor at its captured number. *)
let restore_fd t ~fd obj =
  Hashtbl.replace t.fds fd obj;
  if fd >= t.next_fd then t.next_fd <- fd + 1

let fd t n = Hashtbl.find_opt t.fds n
let close_fd t n = Hashtbl.remove t.fds n
let fd_count t = Hashtbl.length t.fds
