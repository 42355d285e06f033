(* The privileged-instruction vocabulary and CKI's blocking policy
   (Table 3 of the paper).

   The hardware extension: when the CPU runs in kernel mode with
   PKRS != 0 (i.e. a deprivileged guest kernel is executing), the
   *destructive* privileged instructions fault instead of executing.
   Harmless ones stay native for performance. *)

type t =
  (* System registers *)
  | Lidt  (** load IDTR *)
  | Sidt
  | Lgdt  (** load GDTR *)
  | Ltr  (** load task register *)
  (* MSRs *)
  | Rdmsr of int
  | Wrmsr of int
  (* Control registers *)
  | Mov_from_cr of int  (** read CR0/CR4 — harmless *)
  | Mov_to_cr0
  | Mov_to_cr3
  | Mov_to_cr4
  | Clac
  | Stac
  (* TLB state *)
  | Invlpg of Addr.va
  | Invpcid
  (* Syscall / exception plumbing *)
  | Swapgs
  | Sysret
  | Iret
  (* Other *)
  | Hlt
  | Sti
  | Cli
  | Popf  (** can toggle IF *)
  | In_port of int
  | Out_port of int
  | Smsw
  (* PKS extension *)
  | Wrpkrs of Pks.rights
  | Rdpkrs
[@@deriving show { with_path = false }, eq]

type category =
  | System_registers
  | Msr
  | Control_registers
  | Tlb_state
  | Syscall_exception
  | Other_privileged
  | Pkrs_register
[@@deriving show { with_path = false }]

let category = function
  | Lidt | Sidt | Lgdt | Ltr -> System_registers
  | Rdmsr _ | Wrmsr _ -> Msr
  | Mov_from_cr _ | Mov_to_cr0 | Mov_to_cr3 | Mov_to_cr4 | Clac | Stac -> Control_registers
  | Invlpg _ | Invpcid -> Tlb_state
  | Swapgs | Sysret | Iret -> Syscall_exception
  | Hlt | Sti | Cli | Popf | In_port _ | Out_port _ | Smsw -> Other_privileged
  | Wrpkrs _ | Rdpkrs -> Pkrs_register

(* Is this instruction blocked when PKRS != 0 (guest kernel running)?
   Mirrors Table 3 exactly. *)
let blocked_in_guest = function
  | Lidt | Sidt | Lgdt | Ltr -> true
  | Rdmsr _ | Wrmsr _ -> true
  | Mov_from_cr _ -> false
  | Mov_to_cr0 | Mov_to_cr3 | Mov_to_cr4 -> true
  | Clac | Stac -> false
  | Invlpg _ -> false
  | Invpcid -> true
  | Swapgs | Sysret -> false
  | Iret -> true
  | Hlt -> false  (* replaced with a hypercall by para-virt, but executing it is not destructive: it pauses the vCPU *)
  | Sti | Cli | Popf -> true
  | In_port _ | Out_port _ | Smsw -> true
  | Wrpkrs _ | Rdpkrs -> false

(* How a paravirtual CKI guest kernel virtualizes each blocked
   instruction (the "Usages" column of Table 3). *)
type virtualization =
  | Native  (** executes directly in the guest kernel *)
  | Ksm_call  (** replaced with a call to the container's KSM *)
  | Hypercall  (** replaced with a call to the host kernel *)
  | In_memory_state  (** replaced by a memory flag visible to the host *)
  | Unused  (** not used by a paravirtualized container guest kernel *)
[@@deriving show { with_path = false }, eq]

let virtualized_as = function
  | Lidt | Sidt | Lgdt | Ltr -> Ksm_call  (* boot-time only *)
  | Rdmsr _ | Wrmsr _ -> Hypercall  (* timers, IPIs *)
  | Mov_from_cr _ -> Native
  | Mov_to_cr0 | Mov_to_cr4 -> Ksm_call  (* init, lazy-FPU TS toggling *)
  | Mov_to_cr3 -> Ksm_call  (* address-space switch *)
  | Clac | Stac -> Native
  | Invlpg _ -> Native  (* PCID-confined *)
  | Invpcid -> Unused
  | Swapgs | Sysret -> Native  (* OPT3 *)
  | Iret -> Ksm_call
  | Hlt -> Hypercall  (* pause the vCPU *)
  | Sti | Cli | Popf -> In_memory_state
  | In_port _ | Out_port _ | Smsw -> Unused
  | Wrpkrs _ -> Native  (* only at switch gates; enforced by binary rewriting *)
  | Rdpkrs -> Native

(* A representative instance of every instruction in Table 3; used by
   the table3 bench and by exhaustive policy tests. *)
let all_examples =
  [
    Lidt; Sidt; Lgdt; Ltr;
    Rdmsr 0x10; Wrmsr 0x10;
    Mov_from_cr 0; Mov_from_cr 4;
    Mov_to_cr0; Mov_to_cr3; Mov_to_cr4;
    Clac; Stac;
    Invlpg 0x1000; Invpcid;
    Swapgs; Sysret; Iret;
    Hlt; Sti; Cli; Popf;
    In_port 0x60; Out_port 0x60; Smsw;
    Wrpkrs Pks.all_access; Rdpkrs;
  ]

let mnemonic = function
  | Lidt -> "lidt"
  | Sidt -> "sidt"
  | Lgdt -> "lgdt"
  | Ltr -> "ltr"
  | Rdmsr _ -> "rdmsr"
  | Wrmsr _ -> "wrmsr"
  | Mov_from_cr n -> Printf.sprintf "mov r64, cr%d" n
  | Mov_to_cr0 -> "mov cr0, r64"
  | Mov_to_cr3 -> "mov cr3, r64"
  | Mov_to_cr4 -> "mov cr4, r64"
  | Clac -> "clac"
  | Stac -> "stac"
  | Invlpg _ -> "invlpg"
  | Invpcid -> "invpcid"
  | Swapgs -> "swapgs"
  | Sysret -> "sysret"
  | Iret -> "iret"
  | Hlt -> "hlt"
  | Sti -> "sti"
  | Cli -> "cli"
  | Popf -> "popf"
  | In_port _ -> "in"
  | Out_port _ -> "out"
  | Smsw -> "smsw"
  | Wrpkrs _ -> "wrpkrs"
  | Rdpkrs -> "rdpkrs"
