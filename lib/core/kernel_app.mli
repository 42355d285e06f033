(** Future-work extension 2 (Section 9): kernel-level syscall
    optimization — running a syscall-intensive application inside the
    kernel, in its own PKS domain, so syscalls become ~63 ns gate
    transitions instead of hardware ring crossings. *)

type t

val wrap_backend : Virt.Backend.t -> t
(** Wrap a CKI container backend so syscall round trips charge the
    in-kernel gate cost; page faults, hypercalls and device I/O are
    unchanged. Any existing workload can then run "in-kernel". *)

val backend : t -> Virt.Backend.t
val syscalls_elided : t -> int

val predicted_speedup : op_ns:float -> syscalls_per_op:float -> float
(** Analytical speedup for a workload profile — the tests compare the
    measured ablation against this. *)
