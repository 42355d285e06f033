(* The three switch gates of Section 4.2 (Figure 8), simulated against
   real CPU state so their security checks are executable:

     - KSM call gate: wrpkrs to 0, secure-stack switch (per-vCPU area
       found at a constant VA — no trusted gs), handler, wrpkrs back,
       post-write check against ROP-style PKRS tampering;
     - hypercall gate: wrpkrs to 0 + full context switch to the host
       kernel (CR3, registers, IBRS towards the host);
     - interrupt gate: entered by *hardware* interrupt delivery, which
       (extension E4) saves PKRS and zeroes it before the first gate
       instruction — there is no wrpkrs in the gate to abuse, and a
       guest jumping to the gate entry keeps PKRS_GUEST and faults on
       the per-vCPU area. *)

type error =
  | Pkrs_tamper_detected  (** post-wrpkrs check failed: ROP abuse *)
  | Forgery_detected  (** gate entered without hardware PKRS switch *)
  | Not_kernel_mode
[@@deriving show { with_path = false }]

type t = {
  ksm : Ksm.t;
  clock : Hw.Clock.t;
  host_cr3 : Hw.Addr.pfn;
  host_pcid : int;
  mutable forged_interrupts_blocked : int;
  mutable tampers_blocked : int;
}

let create ~ksm ~clock ~host_cr3 ~host_pcid =
  { ksm; clock; host_cr3; host_pcid; forged_interrupts_blocked = 0; tampers_blocked = 0 }

(* The switch_pks macro of Figure 8a: write PKRS then verify the write
   took the intended value.  [tamper] simulates an attacker reaching
   the wrpkrs with a register holding a different value. *)
let switch_pks (cpu : Hw.Cpu.t) ~target ?tamper () : (unit, error) result =
  let written = match tamper with Some v -> v | None -> target in
  match Hw.Cpu.exec_priv cpu (Hw.Priv.Wrpkrs written) with
  | Error _ -> Error Not_kernel_mode
  | Ok () ->
      if cpu.Hw.Cpu.pkrs <> target && Hw.Mutation.knobs.Hw.Mutation.gate_verify_wrpkrs then
        Error Pkrs_tamper_detected
      else Ok ()

(* KSM call gate (Figure 8a).  Runs [f] with monitor rights on the
   vCPU's secure stack.  [tamper_entry]/[tamper_exit] simulate an
   attacker reaching either wrpkrs with a chosen register value; the
   interesting attack is ROP-ing to the *exit* wrpkrs with a permissive
   value, which the post-write check catches. *)
(* Probe hooks: each gate emits an enter/exit event pair so the trace
   linter can verify PKRS is restored on every path. *)
let trace_enter (cpu : Hw.Cpu.t) gate ~pkrs =
  if Hw.Probe.active () then
    Hw.Probe.emit (Hw.Probe.Gate_enter { cpu = cpu.Hw.Cpu.id; gate; pkrs })

let trace_exit (cpu : Hw.Cpu.t) gate ~entry_pkrs =
  if Hw.Probe.active () then
    Hw.Probe.emit
      (Hw.Probe.Gate_exit { cpu = cpu.Hw.Cpu.id; gate; entry_pkrs; pkrs = cpu.Hw.Cpu.pkrs })

let ksm_call (t : t) (cpu : Hw.Cpu.t) ~vcpu ?tamper_entry ?tamper_exit (f : unit -> 'a) :
    ('a, error) result =
  if cpu.Hw.Cpu.mode <> Hw.Cpu.Kernel then Error Not_kernel_mode
  else
    let saved = cpu.Hw.Cpu.pkrs in
    trace_enter cpu Hw.Probe.Ksm_call_gate ~pkrs:saved;
    let abort e =
      if e = Pkrs_tamper_detected then t.tampers_blocked <- t.tampers_blocked + 1;
      cpu.Hw.Cpu.pkrs <- saved;
      trace_exit cpu Hw.Probe.Ksm_call_gate ~entry_pkrs:saved;
      Error e
    in
    match switch_pks cpu ~target:Hw.Pks.all_access ?tamper:tamper_entry () with
    | Error e -> abort e
    | Ok () ->
        (* gs is untrusted: the secure stack is found at the constant
           per-vCPU VA, which needs monitor rights. *)
        assert (Pervcpu.accessible_with ~pkrs:cpu.Hw.Cpu.pkrs);
        let area = Pervcpu.area (Ksm.pervcpu t.ksm) vcpu in
        Pervcpu.push_stack area;
        let result = f () in
        Pervcpu.pop_stack area;
        (match switch_pks cpu ~target:saved ?tamper:tamper_exit () with
        | Ok () ->
            trace_exit cpu Hw.Probe.Ksm_call_gate ~entry_pkrs:saved;
            Ok result
        | Error e -> abort e)

(* Exit events on the request path, interned once. *)
let id_cki_hypercall = Hw.Clock.intern "cki_hypercall"
let id_cki_irq_exit = Hw.Clock.intern "cki_irq_exit"

(* Hypercall gate (Figure 8b, left): full exit to the host kernel.
   [tamper_entry]/[tamper_exit] simulate an attacker reaching either
   wrpkrs with a chosen register value, exactly as in [ksm_call]. *)
let hypercall (t : t) (cpu : Hw.Cpu.t) ~vcpu ?tamper_entry ?tamper_exit
    ~(request : Kernel_model.Platform.io_kind)
    (host_handler : Kernel_model.Platform.io_kind -> unit) : (unit, error) result =
  if cpu.Hw.Cpu.mode <> Hw.Cpu.Kernel then Error Not_kernel_mode
  else
    let guest_pkrs = cpu.Hw.Cpu.pkrs in
    let guest_cr3 = cpu.Hw.Cpu.cr3 in
    let guest_pcid = cpu.Hw.Cpu.pcid in
    trace_enter cpu Hw.Probe.Hypercall_gate ~pkrs:guest_pkrs;
    let abort e =
      if e = Pkrs_tamper_detected then t.tampers_blocked <- t.tampers_blocked + 1;
      cpu.Hw.Cpu.pkrs <- guest_pkrs;
      trace_exit cpu Hw.Probe.Hypercall_gate ~entry_pkrs:guest_pkrs;
      Error e
    in
    match switch_pks cpu ~target:Hw.Pks.all_access ?tamper:tamper_entry () with
    | Error e -> abort e
    | Ok () ->
        let area = Pervcpu.area (Ksm.pervcpu t.ksm) vcpu in
        area.Pervcpu.exit_reason <- Some (Pervcpu.Exit_hypercall request);
        area.Pervcpu.saved_guest_context <- area.Pervcpu.saved_guest_context + 1;
        (* exit_to_host: CR3 to the host kernel, registers, IBRS. *)
        cpu.Hw.Cpu.cr3 <- t.host_cr3;
        cpu.Hw.Cpu.pcid <- t.host_pcid;
        Hw.Clock.charge_id t.clock id_cki_hypercall Hw.Cost.cki_hypercall;
        host_handler request;
        (* resume: restore guest context *)
        cpu.Hw.Cpu.cr3 <- guest_cr3;
        cpu.Hw.Cpu.pcid <- guest_pcid;
        area.Pervcpu.exit_reason <- None;
        (match switch_pks cpu ~target:guest_pkrs ?tamper:tamper_exit () with
        | Ok () ->
            trace_exit cpu Hw.Probe.Hypercall_gate ~entry_pkrs:guest_pkrs;
            Ok ()
        | Error e -> abort e)

(* Interrupt gate (Figure 8b, right).  [kind] is how control reached
   the gate: [Hardware] delivery applies extension E4 (PKRS saved and
   zeroed by the CPU); a guest jumping here directly is [Software] and
   must be caught. *)
let interrupt (t : t) (cpu : Hw.Cpu.t) ~vcpu ~vector ~(kind : Hw.Idt.delivery)
    (host_handler : int -> unit) : (unit, error) result =
  let entry = Hw.Idt.deliver (Ksm.idt t.ksm) cpu ~kind vector in
  ignore entry;
  (* The value the extended iret must restore on exit: the PKRS the
     hardware saved at delivery (top of the E4 stack), or — on a forged
     software entry, where nothing was saved — the current rights. *)
  let expected_pkrs =
    match cpu.Hw.Cpu.saved_pkrs with r :: _ -> r | [] -> cpu.Hw.Cpu.pkrs
  in
  trace_enter cpu Hw.Probe.Interrupt_gate ~pkrs:expected_pkrs;
  (* First gate action: save IRQ info into the per-vCPU area.  With
     PKRS still at PKRS_GUEST (forged entry) this access faults. *)
  if
    Hw.Mutation.knobs.Hw.Mutation.gate_forgery_check
    && not (Pervcpu.accessible_with ~pkrs:cpu.Hw.Cpu.pkrs)
  then begin
    t.forged_interrupts_blocked <- t.forged_interrupts_blocked + 1;
    trace_exit cpu Hw.Probe.Interrupt_gate ~entry_pkrs:expected_pkrs;
    Error Forgery_detected
  end
  else begin
    let area = Pervcpu.area (Ksm.pervcpu t.ksm) vcpu in
    area.Pervcpu.exit_reason <- Some (Pervcpu.Exit_interrupt vector);
    Hw.Clock.charge_id t.clock id_cki_irq_exit Hw.Cost.irq_delivery;
    host_handler vector;
    area.Pervcpu.exit_reason <- None;
    (* iret with PKRS = 0 (allowed), restoring the saved PKRS (E4). *)
    let r =
      match Hw.Cpu.exec_priv cpu Hw.Priv.Iret with
      | Ok () -> Ok ()
      | Error _ -> Error Not_kernel_mode
    in
    trace_exit cpu Hw.Probe.Interrupt_gate ~entry_pkrs:expected_pkrs;
    r
  end

let forged_blocked t = t.forged_interrupts_blocked
let tampers_blocked t = t.tampers_blocked
