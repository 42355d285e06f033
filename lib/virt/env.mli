(** Deployment environment: bare-metal cloud, or nested cloud where the
    container platform itself runs inside an IaaS VM (the host kernel
    is the L1 kernel and HVM exits involve the L0 hypervisor). *)

type t = Bare_metal | Nested

val suffix : t -> string
(** "BM" / "NST", used in backend labels. *)

val is_nested : t -> bool
