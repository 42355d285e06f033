(** The BTree key-value store of Figures 4/12/13 and Table 4.

    A real in-memory B-tree; node and value allocations flow through an
    arena, so inserts produce genuine demand faults with realistic
    density, while lookups are pure compute. *)

type t

val create : Virt.Backend.t -> Kernel_model.Task.t -> t
val insert : t -> int -> int -> unit
val lookup : t -> int -> int option
val size : t -> int

val run : Virt.Backend.t -> inserts:int -> lookups:int -> float
(** The Figure 12/4 configuration; returns total simulated latency. *)

val run_ratio : Virt.Backend.t -> total_ops:int -> lookup_per_insert:int -> float
(** Figure 13a: fixed op count, varying lookup:insert ratio. *)
