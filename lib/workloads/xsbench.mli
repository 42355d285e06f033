(** XSBench: Monte-Carlo neutron-transport cross-section lookup kernel
    (Figures 4/12/13b).

    Initialization (grid generation) is page-fault dominated; the
    calculation phase (per-particle random lookups) is pure compute —
    so secure-container overhead decays with the particle count, the
    Figure 13b sweep. *)

val run : Virt.Backend.t -> gridpoints:int -> particles:int -> float
(** Total simulated latency. *)
