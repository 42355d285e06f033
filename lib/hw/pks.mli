(** Protection Keys for Supervisor pages (PKS), and its user-mode
    sibling PKU.

    A 32-bit rights register holds 2 bits per key (16 keys): AD (access
    disable) and WD (write disable). PKRS governs supervisor (U=0)
    pages, PKRU user pages. Key 0 with rights 0 is the all-access
    state the KSM runs with; CKI guest kernels run with {!pkrs_guest}. *)

type perm = Read_write | Read_only | No_access

val num_keys : int
(** 16. *)

type rights = int
(** A PKRS/PKRU register value. *)

val pp_rights : Format.formatter -> rights -> unit
val equal_rights : rights -> rights -> bool

val all_access : rights
(** Rights value 0: every domain fully accessible. *)

val make : ?default:perm -> (int * perm) list -> rights
(** Build a rights register from per-key assignments; unlisted keys get
    [default] (Read_write). *)

val perm_of : rights -> key:int -> perm

type access = Read | Write

val pp_access : Format.formatter -> access -> unit

val allows : rights -> key:int -> access -> bool
(** Does the register allow [access] on a page tagged [key]? *)

(** {1 CKI's fixed domain layout within a container address space}

    Only two non-default domains are needed per container, so the
    16-key hardware limit never constrains the number of containers
    (Section 3.3 / Challenge 1). *)

val pkey_ksm : int
(** Tags KSM-private pages (monitor code/data, per-vCPU areas, IDT). *)

val pkey_ptp : int
(** Tags declared page-table pages: read-only to the guest kernel. *)

val pkey_guest : int
(** Tags ordinary guest pages (key 0). *)

val pkrs_guest : rights
(** PKRS while the deprivileged guest kernel runs: no access to KSM
    memory, read-only access to PTPs. *)

val pkrs_ksm : rights
(** PKRS while the KSM runs: unrestricted. *)
