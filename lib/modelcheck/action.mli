(** The attacker's alphabet: every action a guest domain can take (or
    have taken on its behalf by hardware) from an explored state. *)

type t =
  | Exec of Hw.Priv.t  (** one privileged instruction, against E2 *)
  | Syscall  (** ring3 -> ring0 at the STAR entry *)
  | Ksm_call of { tamper_entry : Hw.Pks.rights option; tamper_exit : Hw.Pks.rights option }
  | Hypercall of { tamper_entry : Hw.Pks.rights option; tamper_exit : Hw.Pks.rights option }
  | Int_gate of { vector : int; software : bool }
      (** full interrupt-gate traversal; [software] = a guest jump to
          the gate entry instead of hardware delivery (E4 forgery) *)
  | Deliver of { vector : int; software : bool }
      (** raw IDT vectoring, gate body left in flight *)

val show : t -> string
