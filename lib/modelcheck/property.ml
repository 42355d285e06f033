(* The safety properties checked on every reachable state and edge.

   State properties (checked on every state):
   - P1 guest-monitor-rights: outside any gate, kernel mode never
     holds a PKRS that can access KSM memory (Section 3.3);
   - P4 user-if-cleared: ring 3 is never entered with IF=0 (E3 — a
     guest kernel cannot monopolize the CPU past sysret).

   Edge properties (checked on every transition):
   - P2 destructive-executed: no Table-3-blocked instruction completes
     with PKRS != 0 (E2), judged against the *golden* table;
   - P3 gate-pkrs-leak: every gate traversal returns with the PKRS it
     was entered with (Figure 8's post-wrpkrs check / E4 restore);
   - P5 software-pks-switch: software vectoring never changes PKRS or
     the E4 stack (E4 is hardware-delivery-only);
   - P6 e4-save-missing: a delivery that enters a PKS-switching gate
     zeroes PKRS and pushes the interrupted value (E4);
   - P7 forged-entry-ran: a software jump to the gate entry never
     reaches the gate body (Figure 8b forgery detection). *)

type id =
  | Guest_monitor_rights
  | Destructive_executed
  | Gate_pkrs_leak
  | User_if_cleared
  | Software_pks_switch
  | E4_save_missing
  | Forged_entry_ran
[@@deriving eq]

let name = function
  | Guest_monitor_rights -> "P1-guest-monitor-rights"
  | Destructive_executed -> "P2-destructive-executed"
  | Gate_pkrs_leak -> "P3-gate-pkrs-leak"
  | User_if_cleared -> "P4-user-if-cleared"
  | Software_pks_switch -> "P5-software-pks-switch"
  | E4_save_missing -> "P6-e4-save-missing"
  | Forged_entry_ran -> "P7-forged-entry-ran"

type violation = { property : id; vcpu : int; detail : string }

let check_state (s : State.t) : violation list =
  let acc = ref [] in
  Array.iteri
    (fun i (v : State.vcpu) ->
      if
        (not (State.in_gate v))
        && v.State.mode = Hw.Cpu.Kernel
        && Cki.Pervcpu.accessible_with ~pkrs:v.State.pkrs
      then
        acc :=
          {
            property = Guest_monitor_rights;
            vcpu = i;
            detail =
              Printf.sprintf "kernel mode outside any gate with PKRS=%s (monitor-capable)"
                (State.show_pkrs v.State.pkrs);
          }
          :: !acc;
      if v.State.mode = Hw.Cpu.User && not v.State.if_flag then
        acc :=
          {
            property = User_if_cleared;
            vcpu = i;
            detail = "ring 3 entered with IF=0 (E3 pin bypassed)";
          }
          :: !acc)
    s.State.vcpus;
  List.rev !acc

let check_edge ~(pre : State.t) ~vcpu ~(action : Action.t) ~(step : Transition.step) :
    violation list =
  let v = pre.State.vcpus.(vcpu) in
  let p = step.Transition.post.State.vcpus.(vcpu) in
  let acc = ref [] in
  let add property detail = acc := { property; vcpu; detail } :: !acc in
  let pkrs_leaked () =
    if p.State.pkrs <> v.State.pkrs then
      add Gate_pkrs_leak
        (Printf.sprintf "gate returned with PKRS=%s (entered with %s)" (State.show_pkrs p.State.pkrs)
           (State.show_pkrs v.State.pkrs))
  in
  (match action with
  | Action.Exec inst -> (
      match step.Transition.outcome with
      | Transition.Completed ->
          if Policy.blocked inst && v.State.pkrs <> Hw.Pks.all_access then
            add Destructive_executed
              (Printf.sprintf "destructive '%s' completed with PKRS=%s (Table 3, E2)"
                 (Hw.Priv.mnemonic inst) (State.show_pkrs v.State.pkrs))
      | Transition.Trapped _ -> ())
  | Action.Ksm_call _ | Action.Hypercall _ -> pkrs_leaked ()
  | Action.Int_gate { vector; software } ->
      pkrs_leaked ();
      if software && step.Transition.gate_body_ran then
        add Forged_entry_ran
          (Printf.sprintf "software jump to gate vector %d reached the gate body" vector)
  | Action.Deliver { vector; software } ->
      if software then begin
        if
          p.State.pkrs <> v.State.pkrs
          || List.length p.State.saved_pkrs <> List.length v.State.saved_pkrs
        then
          add Software_pks_switch
            (Printf.sprintf "software int %d took the PKS switch (hardware-only, E4)" vector)
      end
      else if List.length p.State.gate_ctx > List.length v.State.gate_ctx then begin
        (* hardware delivery that entered a PKS-switching gate *)
        if p.State.pkrs <> Hw.Pks.all_access then
          add E4_save_missing
            (Printf.sprintf "delivery of vector %d entered the gate with PKRS=%s (not zeroed)"
               vector (State.show_pkrs p.State.pkrs));
        if p.State.saved_pkrs <> v.State.pkrs :: v.State.saved_pkrs then
          add E4_save_missing
            (Printf.sprintf "PKRS=%s not saved on delivery of vector %d"
               (State.show_pkrs v.State.pkrs) vector)
      end
  | Action.Syscall -> ());
  List.rev !acc
