(** Simulated physical memory.

    Frames carry ownership + kind metadata (consulted by the KSM and
    the virtualization backends for their security checks) and, for
    page-table frames, real 512-entry runs of 64-bit PTEs, so the
    page-table walker operates on genuine in-memory structures.

    Representation: metadata lives in packed int arrays and all PTEs
    in one flat [int64] Bigarray arena ([slot * 512 + index]); free
    frames are tracked in a bitmap with a rotating next-fit hint and a
    running count, making {!alloc} and {!free_frames} effectively
    O(1). Allocation order is identical to the earlier per-frame
    scans, so snapshot images remain byte-for-byte reproducible. *)

type owner =
  | Free
  | Host  (** host kernel / hypervisor *)
  | Container of int  (** delegated to container [id] *)
  | Ksm of int  (** KSM code/data of container [id] *)

val show_owner : owner -> string
val equal_owner : owner -> owner -> bool

type kind =
  | Unused
  | Data
  | Page_table of int  (** page-table page at level 1..4 *)
  | Ept_table of int  (** EPT table page at level 1..4 *)
  | Ksm_code
  | Ksm_data
  | Kernel_code
  | Device

val show_kind : kind -> string

type t

exception Out_of_memory

val create : frames:int -> t
val total_frames : t -> int

val mem_id : t -> int
(** Process-unique instance id. Two shards own distinct [Phys_mem]
    values covering the same pfn range, so the race checker keys
    accesses on [(mem_id, pfn)] rather than the bare pfn. *)
val owner : t -> Addr.pfn -> owner
val kind : t -> Addr.pfn -> kind

val owned_by : t -> Addr.pfn -> owner -> bool
(** [owned_by t pfn o] is [equal_owner (owner t pfn) o], tested on the
    frame's packed owner word: nothing is decoded, and nothing is
    allocated when [o] is a constant or built once by the caller. *)
val is_free : t -> Addr.pfn -> bool

val alloc : t -> owner:owner -> kind:kind -> Addr.pfn
(** Allocate one frame anywhere. @raise Out_of_memory when full. *)

val alloc_contiguous : t -> owner:owner -> kind:kind -> count:int -> Addr.pfn
(** First-fit allocation of [count] physically-contiguous frames — the
    hPA-segment delegation primitive, and the source of CKI's
    acknowledged fragmentation limitation.
    @raise Out_of_memory when no sufficient run exists. *)

val free : t -> Addr.pfn -> unit
(** @raise Invalid_argument on double free. *)

val free_range : t -> base:Addr.pfn -> count:int -> unit
val set_kind : t -> Addr.pfn -> kind -> unit
val set_owner : t -> Addr.pfn -> owner -> unit
val incr_ref : t -> Addr.pfn -> unit
val decr_ref : t -> Addr.pfn -> unit
val refcount : t -> Addr.pfn -> int

val set_shared_ro : t -> Addr.pfn -> bool -> unit
(** Mark/unmark a frame as CoW-shared read-only. {!free} refuses to
    release a shared frame whose refcount is still positive. *)

val is_shared_ro : t -> Addr.pfn -> bool

(** {1 Table-frame accessors}

    The frame's 512-entry slot in the shared PTE arena is acquired
    lazily the first time the frame is used as a page-table (or EPT)
    page; a slot-less frame reads as all zeros. *)

val table_entries : t -> Addr.pfn -> int64 array
(** Fresh snapshot copy of the frame's 512 entries (acquiring the
    frame's arena slot if it has none). Mutating the returned array
    does not write memory — use {!write_entry}. *)
val written_lo : t -> Addr.pfn -> int
val written_hi : t -> Addr.pfn -> int
(** The frame's written span: every entry outside
    [[written_lo, written_hi]] reads [0L].  Every writer
    ({!write_entry}, {!write_word}, {!write_bytes}) widens the span and
    only {!clear_table}, {!free} and re-allocation reset it, so it may
    also cover entries written back to zero.  A frame that was never
    written has the empty span [(512, -1)].  O(1), allocates nothing,
    and reports one read of the frame to the access trace, so
    [for i = written_lo t pfn to written_hi t pfn] visits every entry
    that can be non-zero. *)

val read_entry : t -> pfn:Addr.pfn -> index:int -> int64
val write_entry : t -> pfn:Addr.pfn -> index:int -> int64 -> unit
val clear_table : t -> Addr.pfn -> unit

val read_word : t -> pfn:Addr.pfn -> index:int -> int
val write_word : t -> pfn:Addr.pfn -> index:int -> int -> unit
(** {!read_entry}/{!write_entry} on words held as OCaml ints, for
    rings (VirtIO) whose words use at most 56 bits: nothing is boxed.
    A word written here reads back identically through {!read_entry};
    PTEs, whose NX bit is bit 63, stay on the [int64] pair. *)

val write_bytes : t -> pfn:Addr.pfn -> Bytes.t -> off:int -> len:int -> unit
(** [write_bytes t ~pfn src ~off ~len] stores [len] (at most 4096)
    bytes of [src] starting at [off] into the frame, little-endian, in
    words [0 .. (len+7)/8 - 1]; the last word's unused high bytes are
    zero.  Same effect as one {!write_entry} per word, but reports the
    frame once to the access trace and widens its dirty range once.
    A zero-length copy touches nothing.
    @raise Invalid_argument on an out-of-range pfn or byte range. *)

val read_bytes : t -> pfn:Addr.pfn -> Bytes.t -> off:int -> len:int -> unit
(** [read_bytes t ~pfn dst ~off ~len] is the inverse of {!write_bytes}:
    the first [len] bytes of the frame's little-endian word image into
    [dst] from [off].  A frame never written reads as zeros. *)

val iter_owned : t -> id:int -> (Addr.pfn -> unit) -> unit
(** [iter_owned t ~id f] calls [f] on every allocated frame owned by
    [Container id] or [Ksm id], in increasing pfn order.  Runs of 32
    free frames (one free-bitmap word) are skipped whole, so the cost is
    one read per 32 frames plus one per frame that shares a bitmap word
    with an allocated frame; nothing is decoded or allocated.  [f] may
    free the frame it is given. *)

val count_owned : t -> (owner -> bool) -> int
val free_frames : t -> int
