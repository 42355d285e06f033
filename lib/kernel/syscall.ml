(* The syscall vocabulary exposed by the model kernel. *)

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

(* Fixed kernel-side work each syscall performs beyond the generic
   entry/exit path and beyond structural costs (copies, lookups) that
   the implementation charges as it goes. *)
let base_work = function
  | Getpid -> Hw.Cost.getpid_work
  | Read _ | Write _ -> 180.0
  | Open _ -> 400.0
  | Close _ -> 80.0
  | Stat _ | Fstat _ -> 250.0
  | Lseek _ -> 40.0
  | Fsync _ -> 600.0
  | Unlink _ -> 350.0
  | Mkdir _ -> 400.0
  | Mmap _ -> 450.0
  | Munmap _ -> 350.0
  | Mprotect _ -> 300.0
  | Brk _ -> 200.0
  | Fork -> Hw.Cost.fork_base
  | Execve -> Hw.Cost.execve_base
  | Exit _ -> Hw.Cost.exit_base
  | Pipe -> 400.0
  | Socket -> 500.0
  | Send _ | Recv _ -> 250.0
  | Sched_yield -> 50.0
  | Nanosleep _ -> 100.0

(* Constructor index into the per-syscall tables below. *)
let tag = function
  | Getpid -> 0 | Read _ -> 1 | Write _ -> 2 | Open _ -> 3 | Close _ -> 4 | Stat _ -> 5
  | Fstat _ -> 6 | Lseek _ -> 7 | Fsync _ -> 8 | Unlink _ -> 9 | Mkdir _ -> 10 | Mmap _ -> 11
  | Munmap _ -> 12 | Mprotect _ -> 13 | Brk _ -> 14 | Fork -> 15 | Execve -> 16 | Exit _ -> 17
  | Pipe -> 18 | Socket -> 19 | Send _ -> 20 | Recv _ -> 21 | Sched_yield -> 22
  | Nanosleep _ -> 23

(* Names, and the interned ["sys_<name>"] clock event of each syscall:
   the dispatcher charges by id, with no string built per call.  The
   tables are private to the two closures and never written. *)
let name, event_id =
  let names =
    [| "getpid"; "read"; "write"; "open"; "close"; "stat"; "fstat"; "lseek"; "fsync"; "unlink";
       "mkdir"; "mmap"; "munmap"; "mprotect"; "brk"; "fork"; "execve"; "exit"; "pipe"; "socket";
       "send"; "recv"; "sched_yield"; "nanosleep" |]
  in
  let ids = Array.map (fun n -> Hw.Clock.intern ("sys_" ^ n)) names in
  ((fun sc -> names.(tag sc)), fun sc -> ids.(tag sc))
