(** The lmbench microbenchmark suite of Figure 11: ten OS-operation
    latencies, each measured end-to-end on a backend. *)

type op =
  | Read
  | Write
  | Stat
  | Prot_fault
  | Page_fault
  | Fork_exit
  | Fork_execve
  | Ctx_switch_2p_0k
  | Pipe
  | Af_unix

val all_ops : op list
val op_name : op -> string

val run_suite : ?iters:int -> Virt.Backend.t -> (op * float) list
