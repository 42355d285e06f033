(** The three switch gates of Section 4.2 (Figure 8), simulated against
    real CPU state so their security checks are executable.

    - {b KSM call gate}: wrpkrs to 0, secure-stack switch (the per-vCPU
      area is found at a constant VA — no trusted [gs]), handler,
      wrpkrs back, post-write check against ROP-style PKRS tampering.
    - {b Hypercall gate}: wrpkrs to 0 plus a full context switch to the
      host kernel (CR3, registers, IBRS towards the host).
    - {b Interrupt gate}: entered only by hardware delivery, which
      (extension E4) saves PKRS and zeroes it before the first gate
      instruction; a guest jumping to the gate entry keeps PKRS_GUEST
      and faults on the per-vCPU area — forgery is detected. *)

type error =
  | Pkrs_tamper_detected  (** post-wrpkrs check failed: ROP abuse *)
  | Forgery_detected  (** gate entered without the hardware PKRS switch *)
  | Not_kernel_mode

val show_error : error -> string

type t

val create :
  ksm:Ksm.t ->
  clock:Hw.Clock.t ->
  host_cr3:Hw.Addr.pfn ->
  host_pcid:int ->
  t

val ksm_call :
  t ->
  Hw.Cpu.t ->
  vcpu:int ->
  ?tamper_entry:Hw.Pks.rights ->
  ?tamper_exit:Hw.Pks.rights ->
  (unit -> 'a) ->
  ('a, error) result
(** Run a handler with monitor rights on the vCPU's secure stack. The
    interesting attack is ROP-ing to the {e exit} wrpkrs with a
    permissive value; the post-write check catches it and the gate
    aborts with guest rights restored. *)

val hypercall :
  t ->
  Hw.Cpu.t ->
  vcpu:int ->
  ?tamper_entry:Hw.Pks.rights ->
  ?tamper_exit:Hw.Pks.rights ->
  request:Kernel_model.Platform.io_kind ->
  (Kernel_model.Platform.io_kind -> unit) ->
  (unit, error) result
(** Full exit to the host kernel: saves the guest context in the
    per-vCPU area, switches to the host CR3/PCID, runs the host
    handler, restores. Charges {!Hw.Cost.cki_hypercall}.
    [tamper_entry]/[tamper_exit] simulate an attacker reaching either
    wrpkrs with a chosen register value, as in {!ksm_call}; a detected
    tamper aborts with guest rights restored. *)

val interrupt :
  t ->
  Hw.Cpu.t ->
  vcpu:int ->
  vector:int ->
  kind:Hw.Idt.delivery ->
  (int -> unit) ->
  (unit, error) result
(** Interrupt gate. [kind = Hardware] applies extension E4 (PKRS saved
    and zeroed by the CPU); [Software] models a guest jumping to the
    gate entry, which must yield [Forgery_detected]. *)

val forged_blocked : t -> int
val tampers_blocked : t -> int
