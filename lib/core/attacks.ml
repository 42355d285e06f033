(* Executable attack scenarios against a CKI container (threat model of
   Section 3.4, defences of Sections 4.1-4.4 and 6).

   Each attack returns [Blocked mechanism] describing which defence
   stopped it, or [Succeeded] — tests assert every one is blocked. *)

type outcome = Blocked of string | Succeeded

let is_blocked = function Blocked _ -> true | Succeeded -> false

(* A compromised guest kernel context on vCPU 0. *)
let as_guest (c : Container.t) =
  let cpu = Container.cpu c 0 in
  Container.enter_guest_kernel cpu;
  cpu

(* A1. Execute a destructive privileged instruction (Table 3). *)
let attempt_priv_instruction c (inst : Hw.Priv.t) =
  let cpu = as_guest c in
  match Hw.Cpu.exec_priv cpu inst with
  | Error (Hw.Cpu.Blocked_instruction _) -> Blocked "PKS priv-instruction extension"
  | Error _ -> Blocked "CPU fault"
  | Ok () -> Succeeded

(* A2. Write a declared page-table page through the direct map. *)
let attempt_ptp_write c =
  let cpu = as_guest c in
  let ksm = Container.ksm c in
  (* Find any declared PTP in guest memory. *)
  let buddy = Container.buddy c in
  ignore buddy;
  let mem = Hw.Machine.mem (Host.machine c.Container.host) in
  let kernel_pt = Hw.Page_table.of_root mem (Ksm.kernel_root ksm) in
  let victim =
    (* Allocate + declare a fresh PTP to attack. *)
    let pfn = Kernel_model.Buddy.alloc (Container.buddy c) in
    (match Ksm.declare_ptp ksm ~pfn ~level:1 with
    | Ok () -> ()
    | Error e -> failwith (Ksm.show_error e));
    pfn
  in
  let va = Layout.direct_va_of_pa (Hw.Addr.pa_of_pfn victim) in
  match Hw.Cpu.access cpu kernel_pt ~va ~access_kind:Hw.Pks.Write () with
  | Error (Hw.Cpu.Pks_violation _) -> Blocked "pkey_ptp read-only domain"
  | Error _ -> Blocked "page-table permissions"
  | Ok _ -> Succeeded

(* A3. Ask the KSM to map monitor memory into guest space. *)
let attempt_map_ksm_memory c =
  let ksm = Container.ksm c in
  let mem = Hw.Machine.mem (Host.machine c.Container.host) in
  (* Pick a KSM-owned frame. *)
  let rec find pfn =
    if pfn >= Hw.Phys_mem.total_frames mem then None
    else
      match Hw.Phys_mem.owner mem pfn with
      | Hw.Phys_mem.Ksm _ -> Some pfn
      | _ -> find (pfn + 1)
  in
  match find 0 with
  | None -> failwith "no KSM frame found"
  | Some target -> (
      let root = Ksm.kernel_root ksm in
      match
        Ksm.guest_map ksm ~root ~va:0x4000_0000 ~pfn:target
          ~flags:{ Hw.Pte.default_flags with writable = true; user = true; nx = true }
          ~alloc_ptp:(fun () -> Kernel_model.Buddy.alloc (Container.buddy c))
      with
      | Error (Ksm.Targets_monitor_memory _) -> Blocked "KSM PTE validation (monitor memory)"
      | Error _ -> Blocked "KSM PTE validation"
      | Ok () -> Succeeded)

(* A4. Map a declared PTP as a writable data page (bypassing I2). *)
let attempt_map_ptp_writable c =
  let ksm = Container.ksm c in
  let pfn = Kernel_model.Buddy.alloc (Container.buddy c) in
  (match Ksm.declare_ptp ksm ~pfn ~level:1 with Ok () -> () | Error e -> failwith (Ksm.show_error e));
  match
    Ksm.guest_map ksm ~root:(Ksm.kernel_root ksm) ~va:0x5000_0000 ~pfn
      ~flags:{ Hw.Pte.default_flags with writable = true; user = false; nx = true }
      ~alloc_ptp:(fun () -> Kernel_model.Buddy.alloc (Container.buddy c))
  with
  | Error (Ksm.Maps_declared_ptp _) -> Blocked "KSM PTE validation (PTP aliasing)"
  | Error _ -> Blocked "KSM PTE validation"
  | Ok () -> Succeeded

(* A5. Create a new kernel-executable mapping (to forge wrpkrs code). *)
let attempt_kernel_exec_mapping c =
  let ksm = Container.ksm c in
  let pfn = Kernel_model.Buddy.alloc (Container.buddy c) in
  match
    Ksm.guest_map ksm ~root:(Ksm.kernel_root ksm) ~va:0x6000_0000 ~pfn
      ~flags:{ Hw.Pte.default_flags with writable = false; user = false; nx = false }
      ~alloc_ptp:(fun () -> Kernel_model.Buddy.alloc (Container.buddy c))
  with
  | Error (Ksm.Kernel_executable_mapping _) -> Blocked "KSM kernel-exec freeze"
  | Error _ -> Blocked "KSM PTE validation"
  | Ok () -> Succeeded

(* A6. Load CR3 with an arbitrary (undeclared) frame. *)
let attempt_cr3_hijack c =
  let ksm = Container.ksm c in
  let rogue = Kernel_model.Buddy.alloc (Container.buddy c) in
  match Ksm.load_cr3 ksm ~vcpu:0 ~root:rogue with
  | Error (Ksm.Undeclared_root _) -> Blocked "KSM CR3 validation (invariant I3)"
  | Error _ -> Blocked "KSM CR3 validation"
  | Ok _ -> Succeeded

(* A7. ROP to the wrpkrs at the gate's *exit* (which should restore
   PKRS_GUEST) with all-access rights in the register. *)
let attempt_gate_pkrs_tamper c =
  let cpu = as_guest c in
  let gates = Container.gates c in
  match Gates.ksm_call gates cpu ~vcpu:0 ~tamper_exit:Hw.Pks.all_access (fun () -> ()) with
  | Error Gates.Pkrs_tamper_detected ->
      if cpu.Hw.Cpu.pkrs = Hw.Pks.pkrs_guest then Blocked "switch_pks post-write check"
      else Succeeded (* detection fired but rights were left permissive *)
  | Error _ -> Blocked "gate abort"
  | Ok () -> Succeeded

(* A8. Forge an interrupt by jumping to the interrupt-gate entry. *)
let attempt_interrupt_forgery c =
  let cpu = as_guest c in
  let gates = Container.gates c in
  match
    Gates.interrupt gates cpu ~vcpu:0 ~vector:Hw.Idt.vec_timer ~kind:Hw.Idt.Software (fun _ ->
        ())
  with
  | Error Gates.Forgery_detected -> Blocked "hardware-only PKRS switch (E4)"
  | Error _ -> Blocked "gate abort"
  | Ok () -> Succeeded

(* A9. Disable interrupts and spin (DoS): cli is blocked and sysret
   pins IF back on. *)
let attempt_interrupt_monopolize c =
  let cpu = as_guest c in
  match Hw.Cpu.exec_priv cpu Hw.Priv.Cli with
  | Error (Hw.Cpu.Blocked_instruction _) -> (
      (* Second avenue: craft RFLAGS.IF=0 and sysret to user mode. *)
      cpu.Hw.Cpu.if_flag <- false;
      match Hw.Cpu.exec_priv cpu Hw.Priv.Sysret with
      | Ok () when cpu.Hw.Cpu.if_flag -> Blocked "cli blocked + sysret IF pinning (E3)"
      | Ok () -> Succeeded
      | Error _ -> Blocked "sysret fault")
  | Error _ -> Blocked "CPU fault"
  | Ok () -> Succeeded

(* A10. Rewrite the IDT: its pages live in KSM memory. *)
let attempt_idt_rewrite c =
  let cpu = as_guest c in
  let mem = Hw.Machine.mem (Host.machine c.Container.host) in
  let kernel_pt = Hw.Page_table.of_root mem (Ksm.kernel_root (Container.ksm c)) in
  (* The IDT lives somewhere in the KSM region; attack the first page. *)
  match Hw.Cpu.access cpu kernel_pt ~va:Layout.ksm_base ~access_kind:Hw.Pks.Write () with
  | Error (Hw.Cpu.Pks_violation _) -> Blocked "IDT in PKS-protected KSM memory"
  | Error _ -> Blocked "page-table permissions"
  | Ok _ -> Succeeded

(* A11. Flush another container's TLB entries with invlpg. *)
let attempt_cross_container_tlb_flush c ~victim_pcid =
  let cpu = as_guest c in
  let tlb = cpu.Hw.Cpu.tlb in
  (* Plant a victim translation, then invlpg the same VA from the
     attacker's PCID. *)
  let va = 0x1234000 in
  Hw.Tlb.insert tlb ~pcid:victim_pcid ~va
    { Hw.Tlb.pfn = 42; flags = Hw.Pte.default_flags; level = 1 };
  (match Hw.Cpu.exec_priv cpu (Hw.Priv.Invlpg va) with
  | Ok () -> ()
  | Error _ -> ());
  match Hw.Tlb.lookup tlb ~pcid:victim_pcid va with
  | Some _ -> Blocked "PCID-confined invlpg"
  | None -> Succeeded

(* A12. Touch the per-vCPU area (secure stacks / saved contexts). *)
let attempt_pervcpu_read c =
  let cpu = as_guest c in
  let ksm = Container.ksm c in
  match Ksm.load_cr3 ksm ~vcpu:0 ~root:(Ksm.kernel_root ksm) with
  | Error e -> failwith (Ksm.show_error e)
  | Ok copy -> (
      let mem = Hw.Machine.mem (Host.machine c.Container.host) in
      let pt = Hw.Page_table.of_root mem copy in
      match Hw.Cpu.access cpu pt ~va:Layout.pervcpu_base ~access_kind:Hw.Pks.Read () with
      | Error (Hw.Cpu.Pks_violation _) -> Blocked "per-vCPU area in pkey_ksm domain"
      | Error _ -> Blocked "page-table permissions"
      | Ok _ -> Succeeded)

(* The full suite, with labels, for tests and the security example. *)
let all c =
  [
    ("priv: lidt", attempt_priv_instruction c Hw.Priv.Lidt);
    ("priv: wrmsr", attempt_priv_instruction c (Hw.Priv.Wrmsr 0x10));
    ("priv: mov-to-cr3", attempt_priv_instruction c Hw.Priv.Mov_to_cr3);
    ("priv: cli", attempt_priv_instruction c Hw.Priv.Cli);
    ("priv: out", attempt_priv_instruction c (Hw.Priv.Out_port 0x60));
    ("priv: invpcid", attempt_priv_instruction c Hw.Priv.Invpcid);
    ("ptp direct write", attempt_ptp_write c);
    ("map KSM memory", attempt_map_ksm_memory c);
    ("map PTP writable", attempt_map_ptp_writable c);
    ("new kernel-exec mapping", attempt_kernel_exec_mapping c);
    ("CR3 hijack", attempt_cr3_hijack c);
    ("gate PKRS tamper (ROP)", attempt_gate_pkrs_tamper c);
    ("interrupt forgery", attempt_interrupt_forgery c);
    ("interrupt monopolize", attempt_interrupt_monopolize c);
    ("IDT rewrite", attempt_idt_rewrite c);
    ("cross-container TLB flush", attempt_cross_container_tlb_flush c ~victim_pcid:99);
    ("per-vCPU area read", attempt_pervcpu_read c);
  ]
