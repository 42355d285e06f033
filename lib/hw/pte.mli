(** 64-bit page-table entry encoding (x86-64 subset + protection key).

    Bits: 0 present, 1 writable, 2 user, 5 accessed, 6 dirty,
    7 huge (2 MiB leaf at level 2), 12..50 frame number, 59..62
    protection key, 63 no-execute. *)

type t = int64

val empty : t

val is_present : t -> bool
val is_writable : t -> bool

val is_user : t -> bool
(** The U/K bit — CKI's syscall-path isolation of guest-kernel memory
    inside guest-user address spaces relies on it. *)

val is_accessed : t -> bool
val is_dirty : t -> bool
val is_huge : t -> bool
val is_nx : t -> bool

val pfn : t -> Addr.pfn
(** Target frame number. *)

val pkey : t -> int
(** Protection key (PKS domain for supervisor pages). *)

type flags = {
  writable : bool;
  user : bool;
  nx : bool;
  huge : bool;
  pkey : int;
}

val default_flags : flags
(** Writable, supervisor, executable, 4 KiB, key 0. *)

val make : pfn:Addr.pfn -> flags:flags -> t
(** Build a present entry.
    @raise Invalid_argument on out-of-range [pfn] or [pkey]. *)

val flags_of : t -> flags

val with_pkey : t -> int -> t
(** Replace the protection key (the KSM re-tags direct-map PTEs of
    declared PTPs with this). *)

val with_writable : t -> bool -> t
val mark_accessed : t -> t
val mark_dirty : t -> t
val clear_accessed_dirty : t -> t
