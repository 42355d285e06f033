(** PCID-tagged TLB model — the simulator's only translation cache.

    Capacity-bounded with FIFO eviction. Entries are tagged with the
    process-context id, so [invlpg] executed inside one container (one
    PCID) cannot flush another container's translations — the property
    Section 4.1 of the paper relies on to prevent cross-container TLB
    denial-of-service.

    A cached translation is one int, the {e translation word}: four
    permission bits ([writable], [user], [nx], [huge]), a 4-bit
    protection key at [pkey_shift] and the pfn from [pfn_shift] up.
    Lookups, inserts and invalidations allocate nothing. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 1536 entries. *)

val writable : int
val user : int
val nx : int

val huge : int
(** [huge] marks a 2 MiB leaf. *)

val pkey_shift : int
val pfn_shift : int

val meta_of_pte : Pte.t -> level:int -> int
(** Permission bits of a leaf PTE found at walk [level] (1 = 4 KiB,
    2 = 2 MiB). *)

val lookup : t -> pcid:int -> Addr.va -> int
(** The translation word covering [va], or [-1] on a miss. Hit/miss
    statistics are updated; a level-2 entry covers its whole 2 MiB
    range. *)

val insert : t -> pcid:int -> va:Addr.va -> pfn:Addr.pfn -> meta:int -> unit
(** Cache [pfn] with permission bits [meta] (see [meta_of_pte]). A full
    TLB first evicts its oldest entry; a replaced key keeps its FIFO
    position, a re-inserted one takes a fresh one. *)

val invlpg : t -> pcid:int -> Addr.va -> unit
(** Drop one page's translation in one PCID only. *)

val flush_pcid : t -> pcid:int -> unit
(** Drop all translations of [pcid] (invpcid / CR3 write w/ flush). *)

val flush_all : t -> unit

type entry = {
  pfn : Addr.pfn;
  flags : Pte.flags;
  level : int;  (** 1 = 4 KiB, 2 = 2 MiB *)
}
(** Record view of a translation word, for cold callers. *)

val entry : int -> entry

val fold : t -> ('a -> pcid:int -> vpn:Addr.vpn -> entry -> 'a) -> 'a -> 'a
(** Fold over every cached translation, oldest first (used by the
    analysis library's stale-entry scanner). *)

val size : t -> int
val entries_for : t -> pcid:int -> int
val hits : t -> int
val misses : t -> int
