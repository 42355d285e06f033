(** The privileged-instruction vocabulary and CKI's blocking policy
    (Table 3 of the paper).

    Hardware extension E2: in kernel mode with PKRS != 0 (a
    deprivileged guest kernel), the {e destructive} privileged
    instructions fault instead of executing; harmless ones stay native
    for performance. *)

type t =
  | Lidt
  | Sidt
  | Lgdt
  | Ltr
  | Rdmsr of int
  | Wrmsr of int
  | Mov_from_cr of int  (** reading CR0/CR4 is harmless *)
  | Mov_to_cr0
  | Mov_to_cr3
  | Mov_to_cr4
  | Clac
  | Stac
  | Invlpg of Addr.va
  | Invpcid
  | Swapgs
  | Sysret
  | Iret
  | Hlt
  | Sti
  | Cli
  | Popf
  | In_port of int
  | Out_port of int
  | Smsw
  | Wrpkrs of Pks.rights  (** extension E1 *)
  | Rdpkrs

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

type category =
  | System_registers
  | Msr
  | Control_registers
  | Tlb_state
  | Syscall_exception
  | Other_privileged
  | Pkrs_register

val show_category : category -> string
val category : t -> category

val blocked_in_guest : t -> bool
(** Is this instruction blocked when PKRS != 0? Mirrors Table 3. *)

(** How a paravirtual CKI guest kernel virtualizes each instruction. *)
type virtualization =
  | Native  (** executes directly in the guest kernel *)
  | Ksm_call  (** replaced with a call to the container's KSM *)
  | Hypercall  (** replaced with a call to the host kernel *)
  | In_memory_state  (** replaced by a memory flag visible to the host *)
  | Unused  (** not used by a paravirtualized container guest kernel *)

val pp_virtualization : Format.formatter -> virtualization -> unit
val show_virtualization : virtualization -> string
val equal_virtualization : virtualization -> virtualization -> bool
val virtualized_as : t -> virtualization

val all_examples : t list
(** One representative instance of every Table 3 row, for exhaustive
    policy tests and the table3 bench. *)

val mnemonic : t -> string
