(** A simulated CPU (vCPU) with the paper's PKS hardware extensions:

    - E1: [wrpkrs] — a fast instruction writing PKRS (kernel mode only);
    - E2: destructive privileged instructions fault when executed in
      kernel mode with PKRS != 0 (Section 4.1, Table 3);
    - E3: [sysret] pins RFLAGS.IF on when PKRS != 0, so a guest kernel
      cannot return to user mode with interrupts disabled;
    - E4: hardware-interrupt delivery saves PKRS and zeroes it when the
      IDT entry requests it; the extended [iret] restores it. *)

type mode = User | Kernel

val equal_mode : mode -> mode -> bool

type fault =
  | Blocked_instruction of Priv.t  (** extension E2 trap *)
  | Not_kernel_mode of Priv.t  (** classic #GP: privileged insn in ring 3 *)
  | Pks_violation of { va : Addr.va; key : int; access : Pks.access }
  | Smap_violation of Addr.va
  | Priv_page_violation of Addr.va  (** user touched supervisor page *)
  | Write_violation of Addr.va
  | Nx_violation of Addr.va
  | Not_present of Addr.va

val show_fault : fault -> string

exception Fault of fault

type t = {
  id : int;
  mutable mode : mode;
  mutable cr3 : Addr.pfn;
  mutable pcid : int;
  mutable pkrs : Pks.rights;
  mutable pkru : Pks.rights;
  mutable gs_base : int;
  mutable kernel_gs_base : int;
  mutable if_flag : bool;
  mutable halted : bool;
  mutable saved_pkrs : Pks.rights list;  (** E4 interrupt-saved PKRS stack *)
  tlb : Tlb.t;
  clock : Clock.t;
  tc_key : int array;
      (** memoized translation fast path: packed (vpn, pcid) keys, 0 = empty *)
  tc_pfn : int array;
  tc_meta : int array;  (** packed leaf permissions (see [Cpu.tc_meta_pack]) *)
  mutable tc_enabled : bool;
}

val create : ?id:int -> ?tlb_capacity:int -> Clock.t -> t

val set_tcache : t -> bool -> unit
(** Enable/disable the memoized translation fast path (a per-CPU
    direct-mapped software cache in front of the TLB). Enabled by
    default; it is kept a strict subset of the TLB via the TLB's
    invalidate hook, charges the same structural [tlb_hit] cost and
    scores the same hit statistics, so disabling it changes raw speed
    only. Disabling clears the cache. *)

val load_cr3 : t -> root:Addr.pfn -> pcid:int -> unit
(** Load CR3 (+PCID) without flushing other PCIDs' TLB entries; charges
    the CR3-switch cost. *)

val exec_priv : t -> Priv.t -> (unit, fault) result
(** Execute a privileged instruction, applying extension E2's blocking
    and the per-instruction side effects (wrpkrs, swapgs, sysret/E3,
    iret/E4, cli/sti, hlt, invlpg...). *)

val exec_priv_exn : t -> Priv.t -> unit

val access :
  t ->
  Page_table.t ->
  va:Addr.va ->
  access_kind:Pks.access ->
  ?exec:bool ->
  unit ->
  (Addr.pa, fault) result
(** Translate + permission-check an access, consulting this CPU's TLB
    (walk costs charged on miss). *)

val enter_user : t -> unit

val syscall_entry : t -> unit
(** The [syscall] instruction: ring 3 -> ring 0; charges entry+exit. *)

val hw_interrupt_entry : t -> pks_switch:bool -> unit
(** Hardware-interrupt arrival (extension E4): saves PKRS and zeroes it
    when the vectoring IDT entry carries the attribute. *)
