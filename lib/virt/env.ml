(* Deployment environment: bare-metal cloud, or nested cloud where the
   container platform itself runs inside an IaaS VM (the host kernel is
   the L1 kernel and every VM exit may involve the L0 hypervisor). *)

type t = Bare_metal | Nested

let suffix = function Bare_metal -> "BM" | Nested -> "NST"
let is_nested = function Nested -> true | Bare_metal -> false
