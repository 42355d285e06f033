(** The syscall vocabulary exposed by the model kernel. *)

type t =
  | Getpid
  | Read of { fd : int; n : int }
  | Write of { fd : int; data : Bytes.t }
  | Open of { path : string; create : bool }
  | Close of int
  | Stat of string
  | Fstat of int
  | Lseek of { fd : int; pos : int }
  | Fsync of int
  | Unlink of string
  | Mkdir of string
  | Mmap of { pages : int; prot : Vma.prot }
  | Munmap of { addr : Hw.Addr.va; pages : int }
  | Mprotect of { addr : Hw.Addr.va; pages : int; prot : Vma.prot }
  | Brk of { delta_pages : int }
  | Fork
  | Execve
  | Exit of int
  | Pipe
  | Socket
  | Send of { fd : int; data : Bytes.t }
  | Recv of { fd : int; n : int }
  | Sched_yield
  | Nanosleep of float

type result =
  | Rint of int
  | Rbytes of Bytes.t
  | Rstat of { size : int; ino : int; is_dir : bool }
  | Rpair of int * int
  | Runit
  | Rerr of string

val base_work : t -> float
(** Fixed kernel-side work beyond the generic entry/exit path and the
    structural costs (copies, lookups) charged by the implementation. *)

val name : t -> string

val event_id : t -> int
(** The interned clock event (["sys_" ^ name sc]) the dispatcher
    charges [base_work] to. *)
