(** The PARSEC / vmitosis page-fault-intensive applications of Figures
    4 and 12: canneal, dedup, fluidanimate, freqmine.

    Profiles fix the fault density (pages, compute per page), the
    malloc/free churn (recycled guest pages keep their EPT mapping
    under HVM — no second-stage violation — while every backend still
    takes the guest-level fault), and the file-I/O rate (dedup's
    pipeline writes output). *)

type profile = {
  name : string;
  pages : int;
  compute_per_page : float;
  churn : float;  (** 0.0 all-fresh .. 0.9 mostly recycled *)
  syscalls_per_100_pages : int;
}

val canneal : profile
val dedup : profile
val fluidanimate : profile
val freqmine : profile

val run : Virt.Backend.t -> profile -> float
(** Total simulated latency of the run. *)
