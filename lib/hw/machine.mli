(** The physical machine: memory, the interrupt fabric over its CPUs,
    and the simulated clock every component charges. *)

type t

val create : ?cpus:int -> ?mem_mib:int -> unit -> t
(** Defaults: 4 CPUs, 512 MiB. *)

val mem : t -> Phys_mem.t
val clock : t -> Clock.t

val fresh_pcid : t -> int
(** Allocate a fresh PCID; each secure container and the host kernel
    get distinct PCIDs so [invlpg] is confined (Section 4.1). *)

val raise_irq : t -> cpu:int -> vector:int -> unit
(** @raise Invalid_argument for a CPU the machine does not have. *)
val take_irq : t -> cpu:int -> int option
val has_pending : t -> cpu:int -> bool
