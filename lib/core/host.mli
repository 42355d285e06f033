(** The CKI host-kernel side: hPA-segment delegation, VirtIO backends,
    hardware-interrupt handling and virtual-interrupt injection
    (Sections 3.3, 4.2 "slow paths").

    In a nested cloud the host kernel {e is} the L1 kernel; a CKI exit
    never involves L0, so the costs here are environment-independent. *)

type delegated = { base : Hw.Addr.pfn; frames : int; container : int }

(** Segment-delegation policy. [First_fit] is the paper's acknowledged
    fragmentation limitation (the whole request must be one contiguous
    run); [Scatter] — the default — falls back to adaptively splitting
    the request into smaller contiguous chunks, so delegation survives
    heavy container churn. *)
type policy = First_fit | Scatter

type t

val create : ?policy:policy -> ?first_container:int -> Hw.Machine.t -> t
(** Default policy is [Scatter]. [first_container] (default 1) offsets
    the container-id counter so several host instances sharing one
    machine (fleet host slices) keep machine-wide-unique ids. *)

val machine : t -> Hw.Machine.t
val host_root : t -> Hw.Addr.pfn
val host_pcid : t -> int
val set_policy : t -> policy -> unit
val fresh_container_id : t -> int

val delegate_segment : t -> container:int -> frames:int -> Hw.Addr.pfn * int
(** First-fit contiguous hPA delegation — fragmentation-prone by
    design (the paper's acknowledged limitation).
    @raise Hw.Phys_mem.Out_of_memory when no sufficient run exists. *)

val delegate : t -> container:int -> frames:int -> (Hw.Addr.pfn * int) list
(** Policy-dispatching delegation: one segment under [First_fit],
    possibly several under [Scatter]. *)

val reclaim_segment : t -> container:int -> unit
val delegations_of : t -> container:int -> delegated list

val handle_hypercall : t -> Kernel_model.Platform.io_kind -> unit
(** Host-side handler for the global-data privileged operations:
    VirtIO doorbells, timers, vCPU pause, IPIs. *)

val handle_hw_interrupt : t -> vector:int -> unit
val inject_virq : t -> unit
