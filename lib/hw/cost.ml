(* The calibrated nanosecond cost model — the single source of truth for
   every latency the simulator charges.

   Anchors come from the paper's own microbenchmarks (Table 2, Figure 10,
   Section 7.1) measured on an AMD EPYC-9654:

     - RunC getpid                       =   93 ns
     - CKI  getpid                       =   90 ns
     - PVM  getpid                       =  336 ns  (+2 mode, +2 CR3 switches)
     - CKI-wo-OPT2 getpid                =  238 ns  (= 90 + 2 x 74 CR3)
     - CKI-wo-OPT3 getpid                =  153 ns  (= 90 + 2 x 31.5 PKS)
     - native page-fault service         ~ 1000 ns
     - CKI KSM calls per fault           =   77 ns  (PTE update + iret)
     - HVM EPT fault     BM / NST        = 2093 / 30881 ns
     - PVM fault VM exits + SPT emu      = 1532 + 1828 ns
     - empty hypercall HVM BM / NST      = 1088 / 6746 ns
     - empty hypercall PVM BM / NST      =  466 /  486 ns
     - empty hypercall CKI               =  390 ns *)

(* ------------------------------------------------------------------ *)
(* Syscall path primitives                                             *)
(* ------------------------------------------------------------------ *)

(* Hardware ring3<->ring0 crossing pair (syscall+sysret incl. swapgs). *)
let syscall_entry_exit = 87.0

(* Kernel-side work of a trivial syscall such as getpid. *)
let getpid_work = 3.0

(* Work of getpid under RunC: namespaces add a pid translation. *)
let runc_pid_ns_translation = 3.0

(* One extra user/kernel ring crossing (PVM's syscall redirection adds
   two of these on top of the native pair). *)
let extra_mode_switch = 49.0

(* A CR3 load including the TLB/PCID bookkeeping it implies. *)
let cr3_switch = 74.0

(* A PKS switch on the syscall path when sysret/swapgs must be emulated
   (wrpkrs + post-write sanity check) — CKI-wo-OPT3 pays two of these. *)
let pks_switch = 31.5

(* A full KSM call gate round trip: wrpkrs in, secure-stack switch,
   dispatch, wrpkrs out, abuse check.  No PTI/IBRS needed because only
   container-private data is mapped in the KSM (Section 3.3). *)
let ksm_call = 38.5

(* Side-channel mitigations that a host-kernel crossing must pay and a
   KSM gate avoids: PTI page-table swap + IBRS write (Section 3.3 cites
   "hundreds of CPU cycles"). *)
let pti_overhead = 110.0
let ibrs_overhead = 55.0

(* ------------------------------------------------------------------ *)
(* Page-fault path primitives (Figure 10a decomposition)               *)
(* ------------------------------------------------------------------ *)

(* Guest/native kernel demand-fault service: VMA lookup, frame alloc,
   zeroing, PTE install.  Per-backend handler figures differ slightly
   because the handler executes under different kernels/configs. *)
let pf_handler_native = 1000.0
let pf_handler_cki = 990.0
let pf_handler_pvm = 1065.0
let pf_handler_hvm_bm = 1164.0
let pf_handler_hvm_nst = 1684.0

(* HVM: the EPT violation that follows a fresh gPA allocation.
   BM: one VM exit + EPT update.  NST: L0/L1 bouncing + shadow-EPT
   emulation (about 4 nested exits + SEPT work). *)
let ept_fault_bm = 2093.0
let ept_fault_nst = 30881.0

(* PVM: per-fault VM exits (redirection + SPT update round trips) and
   the shadow-paging emulation work (guest PT walk, instruction
   emulation, SPTE generation, exception injection). *)
let pvm_fault_vmexits = 1532.0
let pvm_fault_spt_emulation = 1828.0

(* Nested PVM pays slightly more per fault (Table 2: 7346 vs 6727). *)
let pvm_fault_nst_extra = 619.0

(* ------------------------------------------------------------------ *)
(* Hypercall / VM-exit primitives                                      *)
(* ------------------------------------------------------------------ *)

let vmexit_bm = 1088.0

(* Nested HVM: every L2 exit traps to L0, which resumes L1, which
   handles and traps back to L0, which resumes L2. *)
let vmexit_nst = 6746.0

let pvm_hypercall_bm = 466.0
let pvm_hypercall_nst = 486.0

(* CKI hypercall: PKS switch + full context switch (CR3, registers,
   IBRS in the host direction). *)
let cki_hypercall = 390.0

(* ------------------------------------------------------------------ *)
(* Memory system                                                       *)
(* ------------------------------------------------------------------ *)

(* One page-walk memory reference (mix of cache hits/misses). *)
let walk_mem_ref = 14.0

(* References for a 1-D (native) and 2-D (EPT) page walk: 4 levels
   native; (4+1)*(4+1)-1 = 24 for the two-dimensional walk. *)
let walk_refs_native = 4
let walk_refs_2d = 24

(* Huge (2 MiB) pages remove one level: 3 refs native, 15 refs 2-D. *)
let walk_refs_native_huge = 3
let walk_refs_2d_huge = 15

(* A TLB hit costs (effectively) nothing beyond the access itself. *)
let tlb_hit = 1.0

(* Copying / zeroing a 4 KiB page. *)
let page_zero = 250.0

(* invlpg executed by a kernel. *)
let invlpg = 120.0

(* ------------------------------------------------------------------ *)
(* Interrupts and scheduling                                           *)
(* ------------------------------------------------------------------ *)

(* Native interrupt delivery (IDT vectoring + handler entry/exit). *)
let irq_delivery = 300.0

(* Injecting a virtual interrupt into a resumed guest. *)
let virq_inject = 150.0

(* Kernel context switch between two tasks (same address space family). *)
let ctx_switch_work = 900.0

(* ------------------------------------------------------------------ *)
(* Devices (VirtIO)                                                    *)
(* ------------------------------------------------------------------ *)

(* Host-side servicing of one VirtIO queue notification. *)
let virtio_backend_service = 800.0

(* MMIO doorbell write: for HVM this is a VM exit; CKI replaces MMIO
   with hypercalls; RunC does not virtualize I/O at all. *)
let virtio_frontend_work = 200.0

(* Writing the doorbell register itself (the uncached MMIO/MSR store
   the guest performs before the exit it may or may not take). *)
let doorbell_write = 50.0

(* Reading the EVENT_IDX suppression field on the notify-or-not check
   (one cache-coherent load of the peer-written event index). *)
let event_idx_check = 5.0

(* Host block store: media + request overhead per 512-byte sector. *)
let blk_sector = 600.0

(* Inter-container software switch: per-packet lookup + enqueue on the
   destination port (the host-side vswitch fast path). *)
let switch_forward = 250.0

(* PVM's virtio frontend kicks through emulated MMIO: the exit plus
   instruction decoding/emulation work in the host. *)
let pvm_mmio_emulation = 1800.0

(* Extra cost of delivering a device interrupt to the L1 host kernel in
   a nested cloud (L0 posts it into the IaaS VM); applies to every
   backend whose host kernel is the L1 kernel (RunC/PVM/CKI).  HVM L2
   guests pay full nested VM exits instead. *)
let nested_irq_extra = 1000.0

(* ------------------------------------------------------------------ *)
(* Generic kernel work                                                 *)
(* ------------------------------------------------------------------ *)

let vfs_lookup_component = 120.0
let copy_byte = 0.03
let fork_base = 35_000.0
let execve_base = 120_000.0
let exit_base = 20_000.0
let per_pte_copy = 18.0

(* ------------------------------------------------------------------ *)
(* Container lifecycle: cold boot vs snapshot restore vs warm clone    *)
(* ------------------------------------------------------------------ *)

(* Cold-booting a guest kernel: decompress + early init + driver probe
   + rootfs mount.  Firecracker-class microVM kernels land in the
   ~125 ms range; this is what snapshot restore and warm cloning
   amortize away. *)
let guest_kernel_boot = 125_000_000.0

(* Importing one frame from a snapshot image into a freshly delegated
   segment (allocate + copy + metadata fix-up). *)
let restore_frame = 120.0

(* Installing one copy-on-write PTE to a shared template frame during a
   warm clone: refcount bump + write-protected leaf write. *)
let cow_map_pte = 25.0

(* Breaking a CoW share on first write: allocate + copy the page. *)
let cow_break_copy = page_zero
