(** The context-switch path. A switch between address spaces pays the
    platform's switch (a hypercall under PVM, a KSM-validated CR3 load
    under CKI). *)

type t

val create : Platform.t -> t

val switch_to : t -> int -> Mm.t -> unit
(** Switch to a pid running in [mm]; charges switch work + the
    platform's address-space switch unless already current. *)
