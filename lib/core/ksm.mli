(** The Kernel Security Monitor.

    One KSM lives inside each container's address space, PKS-isolated
    from the guest kernel it supervises. It owns the privileged
    operations that touch only container-private data (Section 4.3):

    - page-table-page (PTP) declaration and PTE updates, enforcing the
      nested-kernel-style invariants:
      {ul {- I1: only declared frames are used as PTPs;}
          {- I2: declared PTPs are read-only to the guest (pkey_ptp);}
          {- I3: only a declared top-level PTP can be loaded into CR3;}}
      plus: no PTE may target KSM/host memory, no declared PTP may be
      mapped by a guest PTE, and no {e new} kernel-executable mappings
      after boot (so the guest can never forge a [wrpkrs]);
    - per-vCPU top-level PTP copies that splice the KSM region and the
      per-vCPU area into every activated page table;
    - validated CR3 loads;
    - [iret] on the guest's behalf.

    Each entry point charges one KSM-call gate cost
    ({!Hw.Cost.ksm_call}); none of them pays PTI/IBRS because only
    container-private data is mapped in the KSM (Section 3.3). *)

type page_state = Guest_data | Guest_ptp of int | Ksm_private

type error =
  | Not_guest_frame of Hw.Addr.pfn
  | Already_declared of Hw.Addr.pfn
  | Not_declared of Hw.Addr.pfn
  | Wrong_level of { expected : int; got : int }
  | Ptp_mapped_twice of Hw.Addr.pfn
  | Targets_monitor_memory of Hw.Addr.va
  | Maps_declared_ptp of Hw.Addr.pfn
  | Kernel_executable_mapping of Hw.Addr.va
  | Undeclared_root of Hw.Addr.pfn
  | Reserved_range of Hw.Addr.va
  | Bad_vcpu of int

val show_error : error -> string

type t

val create :
  Hw.Phys_mem.t ->
  Hw.Clock.t ->
  container_id:int ->
  cfg:Config.t ->
  segments:(Hw.Addr.pfn * int) list ->
  t
(** Trusted boot-time construction: builds the KSM region, the guest
    kernel image, the direct map of the delegated segments (4 KiB PTEs
    so PTPs can be individually re-tagged), the container IDT (locked),
    the guest kernel's boot address space and its per-vCPU copies, then
    freezes kernel-executable mappings. *)

(** {2 Snapshot restore} *)

type import = {
  i_segments : (Hw.Addr.pfn * int) list;
  i_ptps : (Hw.Addr.pfn * int) list;  (** declared PTPs with levels *)
  i_roots : (Hw.Addr.pfn * Hw.Addr.pfn array) list;  (** root, per-vCPU copies *)
  i_kernel_root : Hw.Addr.pfn;
  i_template : (int * int64) list;
      (** fixed L4 slots, relocated entries — {e without} the direct-map
          slot, whose subtree is rebuilt from [i_segments] *)
  i_tables : (Hw.Addr.pfn * (int * int64) list) list;
      (** every live table's non-empty entries, relocated *)
}

val restore :
  Hw.Phys_mem.t ->
  Hw.Clock.t ->
  container_id:int ->
  cfg:Config.t ->
  pervcpu:Pervcpu.t ->
  import ->
  t
(** Trusted reconstruction from a snapshot (the restore analogue of
    {!create}): rebuilds the locked IDT deterministically, restores
    declared-PTP metadata and root registrations, and writes every live
    table's relocated entries through the monitor.  The direct map is
    {e not} imported: its VA layout keys on physical addresses
    (va = direct_map_base + pa), so it is rebuilt from the new segment
    bases, spliced into every root and per-vCPU copy, and every
    declared PTP's fresh leaf is retagged pkey_ptp — so PTPs declared
    {e after} restore keep hitting the right leaf (I2).  All frame
    numbers in [import] must already be relocated; the caller
    (lib/snapshot) verifies the result with the analysis scanner, so a
    restore cannot silently violate I1-I3. *)

val owns_frame : t -> Hw.Addr.pfn -> bool
(** Does [pfn] belong to the container's delegated segments? *)

val declare_ptp : t -> pfn:Hw.Addr.pfn -> level:int -> (unit, error) result
(** Declare a guest frame as a PTP (invariants I1 + I2: the frame's
    direct-map PTE is re-tagged pkey_ptp). *)

val undeclare_ptp : t -> pfn:Hw.Addr.pfn -> (unit, error) result

val guest_map :
  t ->
  root:Hw.Addr.pfn ->
  va:Hw.Addr.va ->
  pfn:Hw.Addr.pfn ->
  flags:Hw.Pte.flags ->
  alloc_ptp:(unit -> Hw.Addr.pfn) ->
  (unit, error) result
(** The validated PTE-update path (one KSM call): install va -> pfn in
    the table rooted at [root], declaring intermediate PTPs from
    [alloc_ptp] inline; top-level writes propagate to the per-vCPU
    copies. Huge leaves sit at level 2 when [flags.huge]. *)

val guest_unmap : t -> root:Hw.Addr.pfn -> va:Hw.Addr.va -> (unit, error) result
val guest_protect : t -> root:Hw.Addr.pfn -> va:Hw.Addr.va -> writable:bool -> (unit, error) result

val declare_root : t -> pfn:Hw.Addr.pfn -> (unit, error) result
(** Declare a top-level PTP: splices the fixed kernel/KSM subtrees into
    it and builds one copy per vCPU, each mapping that vCPU's area at
    the constant address (Section 4.2/4.3). *)

val load_cr3 : t -> vcpu:int -> root:Hw.Addr.pfn -> (Hw.Addr.pfn, error) result
(** Validated CR3 load (invariant I3); returns the vCPU's copy. *)

val read_top_pte : t -> root:Hw.Addr.pfn -> idx:int -> (int64, error) result
(** Read a top-level PTE, propagating accessed/dirty bits from the
    per-vCPU copies into the original. *)

val iret : t -> unit
(** [iret] executed by the KSM on the guest's behalf (Table 3). *)

val release_root :
  t -> root:Hw.Addr.pfn -> free_ptp:(Hw.Addr.pfn -> unit) -> (unit, error) result
(** Tear down a process address space: undeclare and return its
    user-range PTPs, free the KSM-owned copies. *)

val kernel_root : t -> Hw.Addr.pfn
(** The guest kernel's boot address space root. *)

val idt : t -> Hw.Idt.t
(** The container IDT — resident in KSM memory, locked at boot. *)

val pervcpu : t -> Pervcpu.t
val ksm_call_count : t -> int
val is_declared_ptp : t -> Hw.Addr.pfn -> bool
val root_copies : t -> Hw.Addr.pfn -> Hw.Addr.pfn array option

(** {2 Read-only introspection}

    Exposed for the analysis library's whole-machine scanner, which
    re-walks the live page tables from scratch and cross-checks the
    result against the monitor's claimed state. These accessors perform
    no validation — using them cannot launder a check through the KSM's
    own enforcement paths. *)

val segments : t -> (Hw.Addr.pfn * int) list
(** The delegated hPA segments [(base, frames)]. *)

val page_state_of : t -> Hw.Addr.pfn -> page_state
(** The monitor's claimed state for a frame (undeclared frames read as
    [Guest_data]). *)

val declared_ptps : t -> (Hw.Addr.pfn * int) list
(** All frames currently declared as PTPs, with their levels. *)

val roots : t -> (Hw.Addr.pfn * Hw.Addr.pfn array) list
(** All declared top-level PTPs with their per-vCPU copies. *)

val scrub_owned : t -> unit
(** Teardown sweep: free every frame this container or its KSM still
    owns, stripping a template's shared-read-only tag first.  Only the
    KSM may strip that tag; {!Container.destroy} calls this last, after
    verifying no clone still references the frames. *)

val template_slots : t -> int list
(** The fixed L4 indices the KSM splices into every root. *)

val kernel_exec_frozen : t -> bool
(** Whether new kernel-executable mappings are refused (set at boot). *)
