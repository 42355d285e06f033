(** The transition relation: one attacker action executed against the
    real simulator ([Hw.Cpu], [Hw.Idt], [Cki.Gates]) from a restored
    abstract state. Nothing here re-implements enforcement — the
    production gate/CPU code is what runs, so a bug or seeded mutant
    in it is visible to the checker. *)

type config = {
  depth : int;  (** BFS bound, in transitions *)
  nest_bound : int;  (** max in-flight PKS-switch deliveries per vCPU *)
  pks_vectors : int list;  (** PKS-switching IDT vectors to enumerate *)
  fault_vector : int;  (** a guest-direct (non-switching) exception *)
  entry_tampers : Hw.Pks.rights list;  (** values tried at gate-entry wrpkrs *)
  exit_tampers : Hw.Pks.rights list;  (** values tried at gate-exit wrpkrs *)
  guest_wrpkrs : Hw.Pks.rights list;
      (** direct guest [wrpkrs] operands; empty by default per the
          Section 4.3 binary-inspection assumption (as in ERIM) *)
}

val default_config : config
(** depth 14, nesting 3, three PKS vectors, the page-fault exception,
    one tamper value per gate wrpkrs — ≥10k distinct states on the
    2-vCPU config. *)

type outcome =
  | Completed
  | Trapped of string  (** faulted/rejected, with the reason *)

type step = {
  outcome : outcome;
  gate_body_ran : bool;  (** did a gate body execute during this edge? *)
  post : State.t;
}

type ctx = { cfg : config; cpus : Hw.Cpu.t array; gates : Cki.Gates.t; idt : Hw.Idt.t }

val make_ctx : ?config:config -> Cki.Container.t -> ctx

val enabled : config -> State.t -> vcpu:int -> Action.t list
(** The attacker-enabled actions from [s] on [vcpu], in a fixed
    enumeration order (exploration determinism depends on it). Inside
    a gate only hardware events and the gate's own iret are enabled —
    the attacker does not control monitor code. *)

val apply : ctx -> State.t -> vcpu:int -> Action.t -> step
(** Restore the abstract state onto the concrete vCPUs, run the
    action, and capture the resulting abstract state. Leaves machine
    state outside the abstraction invariant. *)
