(** Virtual-address layout of a CKI container address space.

    User space occupies the low half; the guest kernel's direct map of
    its delegated hPA segments, the guest kernel image, the KSM region
    and the per-vCPU area live in the high half. KSM and per-vCPU
    regions carry {!Hw.Pks.pkey_ksm}; declared page-table pages carry
    {!Hw.Pks.pkey_ptp}. *)

val user_top : Hw.Addr.va

val kernel_image_base : Hw.Addr.va
(** Guest kernel code/rodata — kernel-executable, frozen at boot. *)

val ksm_base : Hw.Addr.va
(** KSM code/data incl. the IDT and interrupt-gate code. *)

val pervcpu_base : Hw.Addr.va
(** The per-vCPU area's {e constant} virtual address: every per-vCPU
    page-table copy maps a different physical area here, so gates find
    their secure stack without trusting kernel_gs (Figure 8c). *)

val pervcpu_pages : int

val direct_va_of_pa : Hw.Addr.pa -> Hw.Addr.va
val pa_of_direct_va : Hw.Addr.va -> Hw.Addr.pa
val in_user : Hw.Addr.va -> bool
val in_direct_map : Hw.Addr.va -> bool
val in_ksm : Hw.Addr.va -> bool
val in_pervcpu : Hw.Addr.va -> bool

val l4_user_max : int
val l4_direct : int
val l4_kernel_image : int
val l4_ksm : int
val l4_pervcpu : int
