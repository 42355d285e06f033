(* The attacker's alphabet: every action a guest domain can take (or
   have taken on its behalf by hardware) from an explored state.

   Gate traversals come in two granularities:
   - [Ksm_call]/[Hypercall]/[Int_gate] run a whole gate atomically
     (enter, body, exit), optionally with tampered wrpkrs operands —
     the net edge the lint rules also reason about;
   - [Deliver] is raw IDT vectoring only, leaving the gate body
     in-flight as a distinct state, which is what makes nested
     interrupts and mid-gate properties explorable. *)

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

let show_tamper = function
  | None -> ""
  | Some v -> Printf.sprintf "=%s" (State.show_pkrs v)

let show = function
  | Exec (Hw.Priv.Wrpkrs v) -> Printf.sprintf "exec wrpkrs %s" (State.show_pkrs v)
  | Exec i -> Printf.sprintf "exec %s" (Hw.Priv.mnemonic i)
  | Syscall -> "syscall"
  | Ksm_call { tamper_entry = None; tamper_exit = None } -> "ksm-call"
  | Ksm_call { tamper_entry; tamper_exit } ->
      Printf.sprintf "ksm-call (tamper entry%s exit%s)" (show_tamper tamper_entry)
        (show_tamper tamper_exit)
  | Hypercall { tamper_entry = None; tamper_exit = None } -> "hypercall"
  | Hypercall { tamper_entry; tamper_exit } ->
      Printf.sprintf "hypercall (tamper entry%s exit%s)" (show_tamper tamper_entry)
        (show_tamper tamper_exit)
  | Int_gate { vector; software } ->
      Printf.sprintf "%s int-gate vec=%d" (if software then "sw-jump" else "hw") vector
  | Deliver { vector; software } ->
      Printf.sprintf "%s vectoring vec=%d" (if software then "sw" else "hw") vector
