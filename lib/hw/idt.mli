(** Interrupt descriptor table with the IST feature and the paper's
    PKS-switching extension (E4).

    Entries may request an IST stack (forcing the CPU onto a known-good
    interrupt stack regardless of the interrupted RSP — the Section 4.4
    defence against interrupt-stack manipulation) and [pks_switch]: on
    {e hardware} delivery the CPU saves PKRS and zeroes it before the
    first gate instruction, so the gate contains no [wrpkrs] to abuse;
    software [int] leaves PKRS unchanged. *)

type entry = {
  vector : int;
  handler : string;  (** symbolic handler (gate code lives in KSM memory) *)
  ist : int option;
  pks_switch : bool;
  user_invocable : bool;  (** DPL=3 *)
}

type t

val create : unit -> t

val set : t -> entry -> unit
(** @raise Invalid_argument on a bad vector or a locked table. *)

val get : t -> int -> entry option

val lock : t -> unit
(** Pin the table: further [set]s fail (the guest cannot re-point
    vectors after boot). *)

val is_locked : t -> bool

type delivery = Hardware | Software

val deliver : t -> Cpu.t -> kind:delivery -> int -> entry
(** Vector through entry [v]. Hardware delivery applies the PKS-switch
    extension; software [int] does not. *)

val vec_page_fault : int
val vec_gp_fault : int
val vec_timer : int
val vec_virtio_net : int
val vec_virtio_blk : int
val vec_ipi : int
