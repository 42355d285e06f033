(** Per-vCPU areas and their page-table subtrees.

    Each vCPU owns a small KSM-private area (secure stack, saved vCPU
    context, exit-reason mailbox). Every per-vCPU page-table copy maps
    {e its} vCPU's area at the constant virtual address
    {!Layout.pervcpu_base}, so gate code locates it without trusting
    the guest-controlled [kernel_gs] register (Figure 8c). *)

type area = {
  vcpu : int;
  frames : Hw.Addr.pfn array;
  l3_root : Hw.Addr.pfn;  (** subtree spliced into L4 copies *)
  mutable saved_guest_context : int;
  mutable saved_host_context : int;
  mutable exit_reason : exit_reason option;
  mutable stack_depth : int;
}

and exit_reason =
  | Exit_hypercall of Kernel_model.Platform.io_kind
  | Exit_interrupt of int
  | Exit_fault of string

type t

val create : Hw.Phys_mem.t -> container_id:int -> vcpus:int -> t
(** Allocate KSM-owned area frames and build each vCPU's l3/l2/l1
    subtree mapping them (pkey_ksm) at the constant address. *)

val export : t -> (Hw.Addr.pfn array * Hw.Addr.pfn) array
(** Physical layout per vCPU: (area frames, l3 subtree root). Transient
    gate state is excluded — capture requires a quiesced container. *)

val import : (Hw.Addr.pfn array * Hw.Addr.pfn) array -> t
(** Rebuild from already-allocated frames (snapshot restore); table
    contents are restored separately, transient state re-zeroed. *)

val vcpus : t -> int
val area : t -> int -> area

val l4_entry : t -> int -> Hw.Pte.t
(** The L4 entry splicing a vCPU's subtree into a top-level copy. *)

val accessible_with : pkrs:Hw.Pks.rights -> bool
(** Gate-side check: touching the area requires monitor rights; with
    guest rights this is the fault that defeats interrupt forgery. *)

val push_stack : area -> unit
val pop_stack : area -> unit
