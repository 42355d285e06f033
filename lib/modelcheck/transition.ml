(* The transition relation: execute one attacker action against the
   *real* simulator ([Hw.Cpu], [Hw.Idt], [Cki.Gates]) from a restored
   abstract state, and capture the resulting abstract state.  Nothing
   here re-implements enforcement — a bug (or seeded mutant) in the
   production gate/CPU code is visible to the checker precisely
   because the production code is what runs.

   Action semantics keep the non-CPU machine state invariant: gate
   bodies are no-op handlers, the hypercall gate restores CR3/PCID on
   every path, and the per-vCPU secure-stack pushes are balanced — so
   the abstract state is a faithful quotient and memoization is
   sound. *)

type config = {
  depth : int;  (** BFS bound, in transitions *)
  nest_bound : int;  (** max in-flight PKS-switch deliveries per vCPU *)
  pks_vectors : int list;  (** PKS-switching IDT vectors to enumerate *)
  fault_vector : int;  (** a guest-direct (non-switching) exception *)
  entry_tampers : Hw.Pks.rights list;  (** values tried at gate-entry wrpkrs *)
  exit_tampers : Hw.Pks.rights list;  (** values tried at gate-exit wrpkrs *)
  guest_wrpkrs : Hw.Pks.rights list;
      (** direct guest [wrpkrs] operands to enumerate.  Empty by
          default: per Section 4.3 (as in ERIM), guest kernel binaries
          are inspected so no wrpkrs occurs outside blessed gates; the
          [allow-guest-wrpkrs] mutant re-enables it. *)
}

let default_config =
  {
    depth = 14;
    nest_bound = 3;
    pks_vectors = [ Hw.Idt.vec_timer; Hw.Idt.vec_virtio_net; Hw.Idt.vec_ipi ];
    fault_vector = Hw.Idt.vec_page_fault;
    entry_tampers = [ Hw.Pks.pkrs_guest ];
    exit_tampers = [ Hw.Pks.all_access ];
    guest_wrpkrs = [];
  }

type outcome = Completed | Trapped of string

type step = {
  outcome : outcome;
  gate_body_ran : bool;  (** did a gate body execute during this edge? *)
  post : State.t;
}

type ctx = { cfg : config; cpus : Hw.Cpu.t array; gates : Cki.Gates.t; idt : Hw.Idt.t }

let make_ctx ?(config = default_config) (c : Cki.Container.t) =
  {
    cfg = config;
    cpus = c.Cki.Container.cpus;
    gates = Cki.Container.gates c;
    idt = Cki.Ksm.idt (Cki.Container.ksm c);
  }

(* ------------------------------------------------------------------ *)
(* Enabled actions                                                     *)
(* ------------------------------------------------------------------ *)

let exec_actions cfg =
  List.filter_map
    (fun i -> match i with Hw.Priv.Wrpkrs _ -> None | _ -> Some (Action.Exec i))
    Hw.Priv.all_examples
  @ List.map (fun v -> Action.Exec (Hw.Priv.Wrpkrs v)) cfg.guest_wrpkrs

let gate_call_actions cfg =
  let opts l = None :: List.map (fun v -> Some v) l in
  List.concat_map
    (fun tamper_entry ->
      List.concat_map
        (fun tamper_exit ->
          [ Action.Ksm_call { tamper_entry; tamper_exit }; Action.Hypercall { tamper_entry; tamper_exit } ])
        (opts cfg.exit_tampers))
    (opts cfg.entry_tampers)

(* Interrupt arrivals.  Hardware vectors are enumerated regardless of
   IF: exceptions ignore IF anyway, and for the PKS vectors this
   models NMIs plus the monitor's own interrupt-window re-enables, so
   nesting stays explorable.  Software [int] is only interesting from
   kernel mode (from ring 3 a DPL-0 vector is a plain #GP). *)
let delivery_actions cfg ~nested_ok ~software_ok =
  (if nested_ok then
     List.concat_map
       (fun vector ->
         [ Action.Int_gate { vector; software = false }; Action.Deliver { vector; software = false } ]
         @
         if software_ok then
           [ Action.Int_gate { vector; software = true }; Action.Deliver { vector; software = true } ]
         else [])
       cfg.pks_vectors
   else [])
  @ [ Action.Deliver { vector = cfg.fault_vector; software = false } ]

let enabled cfg (s : State.t) ~vcpu : Action.t list =
  let v = s.State.vcpus.(vcpu) in
  let nested_ok = List.length v.State.gate_ctx < cfg.nest_bound in
  if State.in_gate v then
    (* Monitor (gate) code is executing: the attacker controls nothing
       but hardware events until the gate's iret. *)
    (if nested_ok then
       List.map (fun vector -> Action.Deliver { vector; software = false }) cfg.pks_vectors
     else [])
    @ [ Action.Exec Hw.Priv.Iret ]
  else if v.State.mode = Hw.Cpu.User then
    Action.Syscall :: delivery_actions cfg ~nested_ok ~software_ok:false
  else
    exec_actions cfg @ gate_call_actions cfg
    @ delivery_actions cfg ~nested_ok ~software_ok:true

(* ------------------------------------------------------------------ *)
(* Executing one action                                                *)
(* ------------------------------------------------------------------ *)

let trap_of_exn = function
  | Hw.Cpu.Fault f -> Hw.Cpu.show_fault f
  | Assert_failure _ -> "per-vCPU area inaccessible (monitor rights missing)"
  | e -> Printexc.to_string e

let apply (c : ctx) (s : State.t) ~vcpu (a : Action.t) : step =
  State.restore s c.cpus;
  let cpu = c.cpus.(vcpu) in
  let v = s.State.vcpus.(vcpu) in
  let body_ran = ref false in
  let outcome, gate_ctx =
    match a with
    | Action.Exec inst -> (
        match Hw.Cpu.exec_priv cpu inst with
        | Ok () ->
            (* a gate's own iret closes the innermost context *)
            let ctx' =
              match (inst, v.State.gate_ctx) with
              | Hw.Priv.Iret, _ :: rest -> rest
              | _ -> v.State.gate_ctx
            in
            (Completed, ctx')
        | Error f -> (Trapped (Hw.Cpu.show_fault f), v.State.gate_ctx))
    | Action.Syscall ->
        Hw.Cpu.syscall_entry cpu;
        (Completed, v.State.gate_ctx)
    | Action.Ksm_call { tamper_entry; tamper_exit } -> (
        match
          Cki.Gates.ksm_call c.gates cpu ~vcpu ?tamper_entry ?tamper_exit (fun () ->
              body_ran := true)
        with
        | Ok () -> (Completed, v.State.gate_ctx)
        | Error e -> (Trapped (Cki.Gates.show_error e), v.State.gate_ctx)
        | exception e -> (Trapped (trap_of_exn e), v.State.gate_ctx))
    | Action.Hypercall { tamper_entry; tamper_exit } -> (
        match
          Cki.Gates.hypercall c.gates cpu ~vcpu ?tamper_entry ?tamper_exit
            ~request:Kernel_model.Platform.Timer (fun _ -> body_ran := true)
        with
        | Ok () -> (Completed, v.State.gate_ctx)
        | Error e -> (Trapped (Cki.Gates.show_error e), v.State.gate_ctx)
        | exception e -> (Trapped (trap_of_exn e), v.State.gate_ctx))
    | Action.Int_gate { vector; software } -> (
        let kind = if software then Hw.Idt.Software else Hw.Idt.Hardware in
        match
          Cki.Gates.interrupt c.gates cpu ~vcpu ~vector ~kind (fun _ -> body_ran := true)
        with
        | Ok () -> (Completed, v.State.gate_ctx)
        | Error e -> (Trapped (Cki.Gates.show_error e), v.State.gate_ctx)
        | exception e -> (Trapped (trap_of_exn e), v.State.gate_ctx))
    | Action.Deliver { vector; software } -> (
        let kind = if software then Hw.Idt.Software else Hw.Idt.Hardware in
        let pkrs_before = cpu.Hw.Cpu.pkrs in
        let saved_before = List.length v.State.saved_pkrs in
        match Hw.Idt.deliver c.idt cpu ~kind vector with
        | entry ->
            (* Did control actually enter a PKS-switching gate?  For
               hardware that is the entry's attribute; for software it
               only happens under the software-pks-switch mutant, which
               we detect from its effects. *)
            let entered_gate =
              entry.Hw.Idt.pks_switch
              && ((not software)
                 || List.length cpu.Hw.Cpu.saved_pkrs > saved_before
                 || cpu.Hw.Cpu.pkrs <> pkrs_before)
            in
            let outcome =
              if entry.Hw.Idt.pks_switch && software && not entered_gate then
                (* the first gate instruction touches the per-vCPU area
                   with guest rights and faults (Figure 8b) *)
                Trapped "software jump to gate entry: per-vCPU area inaccessible"
              else Completed
            in
            (outcome, if entered_gate then vector :: v.State.gate_ctx else v.State.gate_ctx)
        | exception Hw.Cpu.Fault f -> (Trapped (Hw.Cpu.show_fault f), v.State.gate_ctx))
  in
  let gate_ctxs =
    Array.mapi
      (fun i (vs : State.vcpu) -> if i = vcpu then gate_ctx else vs.State.gate_ctx)
      s.State.vcpus
  in
  let post = State.capture c.cpus ~gate_ctx:gate_ctxs in
  { outcome; gate_body_ran = !body_ran; post }
