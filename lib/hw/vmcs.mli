(** VM control structure for the HVM baseline.

    Tracks guest state and the VM-exit taxonomy the cost model
    distinguishes. In the nested configuration every L2 exit is first
    intercepted by L0, which resumes L1 to handle it and trampolines
    back — the paper's "VM exit redirection". *)

type exit_reason =
  | Hypercall
  | Ept_violation of Addr.pa
  | External_interrupt of int
  | Io_mmio of Addr.pa
  | Hlt
  | Cr_access
  | Msr_access

type guest_state = {
  mutable cr3 : Addr.pfn;
  mutable rip : int;
  mutable mode : Cpu.mode;
}

type t = {
  id : int;
  guest : guest_state;
  mutable exits : int;
  mutable exits_by_reason : (string * int) list;
  mutable launched : bool;
  nested : bool;
}

val create : id:int -> nested:bool -> t

val vm_exit : t -> Clock.t -> exit_reason -> float
(** Record an exit and charge its cost (nested pays the L0 tax);
    returns the cost charged. *)

val launch : t -> unit
val exits : t -> int
val exits_for : t -> string -> int
