(** The abstract, canonical machine state the model checker explores:
    per-vCPU privilege mode, PKRS, IF, halted, the E4 saved-PKRS stack
    and the gate-nesting context. gs bases, CR3/PCID, TLB contents and
    the clock are deliberately outside the abstraction (untrusted,
    action-invariant, or performance-only — see state.ml). *)

type vcpu = {
  mode : Hw.Cpu.mode;
  pkrs : Hw.Pks.rights;
  if_flag : bool;
  halted : bool;
  saved_pkrs : Hw.Pks.rights list;  (** E4 stack, innermost first *)
  gate_ctx : int list;  (** in-flight PKS-switch vectors, innermost first *)
}

type t = { vcpus : vcpu array }

val equal : t -> t -> bool

val hash : t -> int
(** Structural hash, consistent with {!equal}. *)

val in_gate : vcpu -> bool
(** Is monitor (gate) code executing on this vCPU? *)

val capture : Hw.Cpu.t array -> gate_ctx:int list array -> t
(** Snapshot the security-relevant fields of the concrete vCPUs,
    paired with the explorer-maintained gate-nesting contexts. *)

val restore : t -> Hw.Cpu.t array -> unit
(** Write the abstract state back onto the concrete vCPUs, so the next
    transition executes from exactly this point. *)

val show_pkrs : Hw.Pks.rights -> string
val show : t -> string
