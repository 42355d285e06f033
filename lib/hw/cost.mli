(** The calibrated nanosecond cost model — the single source of truth
    for every latency the simulator charges.

    Anchors come from the paper's own microbenchmarks (Table 2,
    Figure 10, Section 7.1) measured on an AMD EPYC-9654; see the
    implementation for the per-constant provenance notes. *)

(** {2 Syscall path primitives} *)

val syscall_entry_exit : float
(** Hardware ring3<->ring0 crossing pair (syscall+sysret incl. swapgs). *)

val getpid_work : float
(** Kernel-side work of a trivial syscall such as getpid. *)

val runc_pid_ns_translation : float
(** Extra getpid work under RunC: namespace pid translation. *)

val extra_mode_switch : float
(** One extra user/kernel ring crossing (PVM redirection pays two). *)

val cr3_switch : float
(** A CR3 load including the TLB/PCID bookkeeping it implies. *)

val pks_switch : float
(** A PKS switch on the syscall path (wrpkrs + post-write check). *)

val ksm_call : float
(** A full KSM call-gate round trip (no PTI/IBRS, Section 3.3). *)

val pti_overhead : float
(** PTI page-table swap a host-kernel crossing pays and a gate avoids. *)

val ibrs_overhead : float
(** IBRS write on the host-kernel crossing path. *)

(** {2 Page-fault path primitives (Figure 10a)} *)

val pf_handler_native : float
val pf_handler_cki : float
val pf_handler_pvm : float
val pf_handler_hvm_bm : float
val pf_handler_hvm_nst : float

val ept_fault_bm : float
(** HVM: EPT violation service, bare metal. *)

val ept_fault_nst : float
(** HVM: EPT violation in a nested cloud (shadow-EPT bouncing). *)

val pvm_fault_vmexits : float
(** PVM: per-fault VM exits (redirection + SPT update round trips). *)

val pvm_fault_spt_emulation : float
(** PVM: shadow-paging emulation work per fault. *)

val pvm_fault_nst_extra : float
(** Nested PVM per-fault surcharge (Table 2: 7346 vs 6727). *)

(** {2 Hypercall / VM-exit primitives} *)

val vmexit_bm : float
val vmexit_nst : float
val pvm_hypercall_bm : float
val pvm_hypercall_nst : float

val cki_hypercall : float
(** CKI hypercall: PKS switch + full context switch. *)

(** {2 Memory system} *)

val walk_mem_ref : float
(** One page-walk memory reference (mix of cache hits/misses). *)

val walk_refs_native : int
val walk_refs_2d : int
val walk_refs_native_huge : int
val walk_refs_2d_huge : int

val tlb_hit : float
val page_zero : float

val invlpg : float
(** invlpg executed by a kernel. *)

(** {2 Interrupts and scheduling} *)

val irq_delivery : float
(** Native interrupt delivery (IDT vectoring + handler entry/exit). *)

val virq_inject : float
(** Injecting a virtual interrupt into a resumed guest. *)

val ctx_switch_work : float
(** Kernel context switch between two tasks. *)

(** {2 Devices (VirtIO)} *)

val virtio_backend_service : float
(** Host-side servicing of one VirtIO queue notification. *)

val virtio_frontend_work : float
(** Guest-side doorbell/notify work (MMIO exit for HVM). *)

val doorbell_write : float
(** The uncached doorbell register store itself. *)

val event_idx_check : float
(** EVENT_IDX suppression-field load on the notify-or-not check. *)

val blk_sector : float
(** Host block store: media + request overhead per 512-byte sector. *)

val switch_forward : float
(** Inter-container software switch, per-packet fast path. *)

val pvm_mmio_emulation : float
(** PVM virtio kick through emulated MMIO (exit + decode + emulate). *)

val nested_irq_extra : float
(** Extra cost of a device interrupt reaching the L1 host kernel. *)

(** {2 Generic kernel work} *)

val vfs_lookup_component : float
val copy_byte : float
val fork_base : float
val execve_base : float
val exit_base : float
val per_pte_copy : float

(** {2 Container lifecycle} *)

val guest_kernel_boot : float
(** Cold-booting a guest kernel (what restore/clone amortize away). *)

val restore_frame : float
(** Importing one frame from a snapshot image into a fresh segment. *)

val cow_map_pte : float
(** Installing one CoW PTE to a shared template frame during a clone. *)

val cow_break_copy : float
(** Breaking a CoW share on first write: allocate + copy the page. *)
