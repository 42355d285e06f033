(** PCID-tagged TLB model.

    Capacity-bounded with FIFO eviction. Entries are tagged with the
    process-context id, so [invlpg] executed inside one container (one
    PCID) cannot flush another container's translations — the property
    Section 4.1 of the paper relies on to prevent cross-container TLB
    denial-of-service. *)

type entry = {
  pfn : Addr.pfn;
  flags : Pte.flags;
  level : int;  (** 1 = 4 KiB, 2 = 2 MiB *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 1536 entries. *)

val lookup : t -> pcid:int -> Addr.va -> entry option
(** Hit/miss statistics are updated; a level-2 entry covers its whole
    2 MiB range. *)

val insert : t -> pcid:int -> va:Addr.va -> entry -> unit

val invlpg : t -> pcid:int -> Addr.va -> unit
(** Drop one page's translation in one PCID only. *)

val flush_pcid : t -> pcid:int -> unit
(** Drop all translations of [pcid] (invpcid / CR3 write w/ flush). *)

val flush_all : t -> unit

val fold : t -> ('a -> pcid:int -> vpn:Addr.vpn -> entry -> 'a) -> 'a -> 'a
(** Fold over every cached translation (used by the analysis library's
    stale-entry scanner). *)

val size : t -> int
val entries_for : t -> pcid:int -> int
val hits : t -> int
val misses : t -> int

val set_invalidate_hook : t -> (int -> int -> unit) -> unit
(** [set_invalidate_hook t hook] registers [hook pcid vpn], fired on
    every entry drop — eviction, [invlpg], [flush_pcid] ([vpn = -1]:
    all of [pcid]), [flush_all] ([pcid = -1]).  The CPU's memoized
    translation fast path registers one so its direct-mapped cache
    stays a strict subset of this TLB. *)

val note_hit : t -> unit
(** Count a hit scored by a front cache, so hit/miss statistics are
    identical whether or not the cache intercepted the lookup. *)
