(* VM control structure for the HVM baseline.

   Tracks the guest register file the hypervisor must save/restore on
   VM exits, and the exit-reason taxonomy the cost model distinguishes.
   In the nested configuration (L2 VM under an L1 hypervisor under L0)
   every L2 exit is first intercepted by L0, which resumes L1 to handle
   it, then trampolines back — the paper's "VM exit redirection". *)

type exit_reason =
  | Hypercall
  | Ept_violation of Addr.pa
  | External_interrupt of int
  | Io_mmio of Addr.pa  (** VirtIO doorbell MMIO *)
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
  nested : bool;  (** L2 VMCS shadowed by L0 *)
}

let create ~id ~nested =
  {
    id;
    guest = { cr3 = 0; rip = 0; mode = Cpu.Kernel };
    exits = 0;
    exits_by_reason = [];
    launched = false;
    nested;
  }

let reason_key = function
  | Hypercall -> "hypercall"
  | Ept_violation _ -> "ept_violation"
  | External_interrupt _ -> "external_interrupt"
  | Io_mmio _ -> "io_mmio"
  | Hlt -> "hlt"
  | Cr_access -> "cr_access"
  | Msr_access -> "msr_access"

let id_vmexit = Clock.intern "vmexit"
let id_vmexit_nested = Clock.intern "vmexit_nested"

(* Record a VM exit and return its cost given the deployment.  Nested
   exits pay the L0-redirection tax. *)
let vm_exit t clock reason =
  t.exits <- t.exits + 1;
  let k = reason_key reason in
  t.exits_by_reason <-
    (k, 1 + Option.value ~default:0 (List.assoc_opt k t.exits_by_reason))
    :: List.remove_assoc k t.exits_by_reason;
  let cost = if t.nested then Cost.vmexit_nst else Cost.vmexit_bm in
  Clock.charge_id clock (if t.nested then id_vmexit_nested else id_vmexit) cost;
  cost

let launch t = t.launched <- true
let exits t = t.exits
let exits_for t reason_name = Option.value ~default:0 (List.assoc_opt reason_name t.exits_by_reason)
