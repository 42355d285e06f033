(** Executable attack scenarios against a CKI container (threat model
    of Section 3.4; defences of Sections 4.1-4.4 and 6).

    Each attack runs for real against the simulated CPU, page tables
    and KSM state, and reports which defence stopped it. *)

type outcome = Blocked of string | Succeeded

val is_blocked : outcome -> bool

val attempt_priv_instruction : Container.t -> Hw.Priv.t -> outcome
(** Execute a destructive privileged instruction in guest context. *)

val attempt_ptp_write : Container.t -> outcome
(** Write a declared page-table page through the direct map. *)

val attempt_map_ksm_memory : Container.t -> outcome
(** Ask the KSM to map monitor memory into guest space. *)

val attempt_map_ptp_writable : Container.t -> outcome
(** Alias a declared PTP as a writable data page. *)

val attempt_kernel_exec_mapping : Container.t -> outcome
(** Create a new kernel-executable mapping (to forge wrpkrs code). *)

val attempt_cr3_hijack : Container.t -> outcome
(** Load CR3 with an undeclared frame. *)

val attempt_gate_pkrs_tamper : Container.t -> outcome
(** ROP to the gate-exit wrpkrs with all-access rights. *)

val attempt_interrupt_forgery : Container.t -> outcome
(** Jump to the interrupt-gate entry without hardware delivery. *)

val attempt_interrupt_monopolize : Container.t -> outcome
(** Disable interrupts (cli; then sysret with IF=0). *)

val attempt_idt_rewrite : Container.t -> outcome
(** Overwrite the IDT (it lives in KSM memory). *)

val attempt_cross_container_tlb_flush : Container.t -> victim_pcid:int -> outcome
(** invlpg another container's translations. *)

val attempt_pervcpu_read : Container.t -> outcome
(** Read the per-vCPU area (secure stacks / saved contexts). *)

val all : Container.t -> (string * outcome) list
(** The full labelled suite (17 attacks). *)
