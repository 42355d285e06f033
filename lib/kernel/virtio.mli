(** VirtIO split queue, laid out as real bytes in guest memory.

    Descriptor table, avail/used rings and payload buffers are words of
    frames obtained from the platform allocator — under CKI they live
    inside the delegated hPA segment where the Analysis sanitizer can
    audit them like any other guest page.  Payloads larger than a page
    ride descriptor chains.

    Notification suppression is EVENT_IDX-style: [window = 0] models
    the naive path (every post kicks, every publish batch injects);
    [window >= 1] suppresses kicks until the avail idx crosses the
    host-written avail_event and interrupts until the used idx crosses
    the guest-written used_event.  A full ring is graceful backpressure
    ([`Full]), never an exception. *)

type t

val create : ?size:int -> ?window:int -> name:string -> Platform.t -> t
(** Ring and payload pages come from the platform's [alloc_frame] and
    are reached through its [guest_frame] translation; costs go to its
    clock.  [size] descriptors (2..256, default 64); [window] the
    EVENT_IDX batch window (default 1; 0 = naive, no suppression). *)

val size : t -> int
val set_window : t -> int -> unit

val in_flight : t -> int
(** Avail entries the host has not serviced yet. *)

val unreclaimed : t -> int
(** Chains the guest has not freed yet (in flight + completed but not
    yet reclaimed) — the quiescence measure for snapshot capture. *)

val post : t -> data:Bytes.t -> [ `Posted | `Full ]
(** Guest: copy [data] into DMA buffers and publish a device-readable
    chain (TX).  [`Full] after an opportunistic reclaim failed to make
    room — the caller applies backpressure and retries. *)

val post_buffer : t -> capacity:int -> [ `Posted | `Full ]
(** Guest: publish an empty device-writable chain (RX buffer credit). *)

val kick : t -> doorbell:(unit -> unit) -> bool
(** Guest: notify-or-not.  Rings [doorbell] (the platform's exit
    mechanism) unless EVENT_IDX suppresses it; returns whether it
    rang.  Emits an [Io_doorbell] probe when it does. *)

val reclaim : t -> Bytes.t list
(** Guest: consume published used entries, freeing their descriptors;
    returns the payloads of device-written (RX) chains, oldest first.
    Re-arms used_event for interrupt suppression. *)

val service : t -> handle:(Bytes.t -> unit) -> int
(** Host: service pending device-readable chains — read each payload
    out of guest memory, pass it to [handle], publish the used entry.
    Returns the chain count; re-arms avail_event for kick
    suppression. *)

val fill : t -> data:Bytes.t -> bool
(** Host: write [data] into the oldest posted device-writable buffer
    and publish its used entry; false when no buffer credit is
    posted. *)

val complete : ?force:bool -> t -> inject:(unit -> unit) -> bool
(** Host: inject the completion interrupt covering the used entries
    published since the last injection, unless EVENT_IDX suppresses it
    ([force] overrides — the batch-boundary latency bound).  Never
    injects with nothing serviced.  Emits an [Io_completion] probe when
    it injects; returns whether it did. *)

val kicks : t -> int
val suppressed_kicks : t -> int
val interrupts : t -> int
val suppressed_interrupts : t -> int
val serviced_total : t -> int
val name : t -> string
