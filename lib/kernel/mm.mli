(** Per-process memory management: VMAs + demand paging over the
    platform's page-table interface.

    {!touch} is the workhorse: workloads call it for every page they
    access; an unmapped page inside a VMA takes the platform's full
    page-fault path — which is where RunC / HVM / PVM / CKI differ. *)

type t

val user_mmap_base : Hw.Addr.va

val create : Platform.t -> t
(** Fresh address space with a default stack VMA. *)

val restore : Platform.t -> aspace:Platform.aspace -> brk:Hw.Addr.va -> mmap_cursor:Hw.Addr.va -> t
(** Snapshot restore: bind to an address space whose page tables were
    already imported wholesale — no [as_create], no default stack VMA;
    the caller replays captured VMAs with {!add_vma} and resident pages
    with {!adopt_page}. *)

val destroy : t -> unit
(** Free all resident frames and the address space (releasing the
    template's reference for un-broken CoW pages). *)

val aspace : t -> Platform.aspace
val fault_count : t -> int
val resident_pages : t -> int
val brk_now : t -> Hw.Addr.va
val mmap_cursor_now : t -> Hw.Addr.va

val iter_pages : t -> (Hw.Addr.vpn -> Hw.Addr.pfn -> unit) -> unit
(** Iterate resident pages (unspecified order — capture sorts). *)

val iter_vmas : t -> (Vma.area -> unit) -> unit

val add_vma : t -> start:Hw.Addr.va -> stop:Hw.Addr.va -> prot:Vma.prot -> backing:Vma.backing -> unit
(** Replay a captured VMA (restore path; no platform interaction). *)

val adopt_page : t -> vpn:Hw.Addr.vpn -> pfn:Hw.Addr.pfn -> unit
(** Register a page as resident without touching the page tables — the
    restore path, where leaf PTEs were imported wholesale. *)

(** {2 Copy-on-write (warm clones)} *)

val mark_cow : t -> vpn:Hw.Addr.vpn -> shared:Hw.Addr.pfn -> own:Hw.Addr.pfn -> unit
(** Mark a resident page as CoW: its PTE references the template's
    [shared] frame read-only; [own] is this mm's pre-reserved private
    frame, materialized by the first write ({!touch} with [write:true],
    or an {!mprotect} to writable). *)

val set_release_shared : t -> (Hw.Addr.pfn -> unit) -> unit
(** How to drop one reference on a template frame (set by the clone). *)

val freeze_page : t -> vpn:Hw.Addr.vpn -> unit
(** Template freeze: mirror the KSM's read-only downgrade of this
    resident page in the model, so a later write ({!touch} with
    [write:true], or an {!mprotect} to writable) raises {!Segfault}
    instead of silently mutating a frame that live clones share. *)

val is_frozen : t -> Hw.Addr.vpn -> bool
val frozen_count : t -> int

(** {2 Dirty-page tracking (live-migration pre-copy)}

    Write-protect-and-log epochs over the CoW write-fault path: every
    resident page of a writable VMA has its PTE downgraded read-only
    (through the platform — the KSM on CKI); the first write takes a
    fault that re-arms the PTE and logs the page.  [shootdown] is
    invoked once per downgraded page so the caller can invalidate the
    TLB of every vCPU, matching the freeze discipline the trace linter
    enforces.  Pages that become resident or break CoW during the
    epoch are logged too — they are not in the last transmitted image. *)

val dirty_track_start : t -> shootdown:(Hw.Addr.va -> unit) -> int
(** Begin an epoch; returns the number of pages write-protected.
    @raise Invalid_argument if already tracking. *)

val dirty_track_round : t -> shootdown:(Hw.Addr.va -> unit) -> Hw.Addr.vpn list
(** Harvest the dirty log (sorted), re-protect exactly those pages and
    clear the log — one pre-copy round boundary. *)

val dirty_track_finish : t -> Hw.Addr.vpn list
(** End the epoch: harvest the final dirty set and restore every still
    protected PTE to its VMA permission, so a subsequent capture sees
    the container's real protections. *)

val tracking : t -> bool
val dirty_count : t -> int

val cow_count : t -> int
(** Un-broken CoW pages — the part of [resident_pages] still shared. *)

val is_cow : t -> Hw.Addr.vpn -> bool

val mmap : t -> pages:int -> prot:Vma.prot -> backing:Vma.backing -> Hw.Addr.va
(** Reserve pages (no frames allocated until touched). *)

val munmap : t -> start:Hw.Addr.va -> pages:int -> unit
val mprotect : t -> start:Hw.Addr.va -> pages:int -> prot:Vma.prot -> unit
val brk : t -> delta_pages:int -> Hw.Addr.va

exception Segfault of Hw.Addr.va

val touch : t -> Hw.Addr.va -> write:bool -> unit
(** Access the page containing an address, demand-faulting if needed. *)

val touch_range : t -> start:Hw.Addr.va -> pages:int -> write:bool -> int
(** Touch every page of a range; returns the number of faults taken. *)

val fork : t -> t
(** Duplicate for fork: copies VMAs and eagerly copies resident pages
    (no COW; per-page copy costs are charged). *)
