(* A CKI secure container: guest kernel + KSM + gates on a delegated
   hPA segment, exposed through the common [Virt.Backend.t] interface.

   The platform wiring is where the paper's performance structure
   lives:
     - page faults: handled by the guest kernel natively; the only
       extra cost is two KSM calls (PTE update + iret) — 77 ns;
     - syscalls: fully native (OPT1 no redirection, OPT2 no page-table
       switch, OPT3 native sysret/swapgs);
     - address-space switches: a KSM call validating CR3 against the
       declared roots, loading the per-vCPU copy;
     - I/O and timers: hypercalls through the hypercall gate (390 ns),
       with no L0 intervention even in nested clouds;
     - single-stage translation: the guest buddy allocator hands out
       host-physical frames directly. *)

type t = {
  backend : Virt.Backend.t;
  host : Host.t;
  ksm : Ksm.t;
  gates : Gates.t;
  cpus : Hw.Cpu.t array;
  buddy : Kernel_model.Buddy.t;
  cfg : Config.t;
  container_id : int;
  pcid : int;
  mutable current_vcpu : int;
  aspaces : (int, Hw.Addr.pfn) Hashtbl.t;  (** aspace id -> guest root PTP *)
  next_as : int ref;  (** next aspace id (snapshotted, so ids are stable) *)
}

let backend t = t.backend
let ksm t = t.ksm
let gates t = t.gates
let cpu t i = t.cpus.(i)
let buddy t = t.buddy
let container_id t = t.container_id
let pcid t = t.pcid

(* Run the guest kernel's vCPU state: kernel mode with guest rights. *)
let enter_guest_kernel (cpu : Hw.Cpu.t) =
  cpu.Hw.Cpu.mode <- Hw.Cpu.Kernel;
  cpu.Hw.Cpu.pkrs <- Hw.Pks.pkrs_guest

(* Wire a container from already-constructed parts.  [create] calls
   this after trusted KSM boot; snapshot restore/clone call it with a
   KSM, buddy and address-space table rebuilt from an image (so the
   platform closures, gates and vCPUs are identical either way). *)
let assemble ?(env = Virt.Env.Bare_metal) ~cfg (host : Host.t) ~container_id ~pcid ~ksm ~buddy
    ~aspaces ~next_as () : t =
  let machine = Host.machine host in
  let clock = Hw.Machine.clock machine in
  let gates =
    Gates.create ~ksm ~clock ~host_cr3:(Host.host_root host) ~host_pcid:(Host.host_pcid host)
  in
  let cpus =
    Array.init cfg.Config.vcpus (fun id ->
        let cpu = Hw.Cpu.create ~id clock in
        cpu.Hw.Cpu.cr3 <- Ksm.kernel_root ksm;
        cpu.Hw.Cpu.pcid <- pcid;
        enter_guest_kernel cpu;
        cpu)
  in
  let vcpu0 () = cpus.(0) in
  let hypercall kind =
    match
      Gates.hypercall gates (vcpu0 ()) ~vcpu:0 ~request:kind (Host.handle_hypercall host)
    with
    | Ok () -> ()
    | Error e -> failwith ("CKI hypercall gate error: " ^ Gates.show_error e)
  in
  let ksm_exn label = function
    | Ok v -> v
    | Error e -> failwith (Printf.sprintf "KSM %s rejected: %s" label (Ksm.show_error e))
  in
  let root_of id =
    match Hashtbl.find_opt aspaces id with
    | Some r -> r
    | None -> invalid_arg "cki: unknown address space"
  in
  let platform =
    {
      Kernel_model.Platform.name = "cki";
      clock;
      (* Single-stage translation: the buddy hands out hPA frames. *)
      alloc_frame = (fun () -> Kernel_model.Buddy.alloc buddy);
      free_frame = (fun pfn -> Kernel_model.Buddy.free buddy pfn);
      as_create =
        (fun () ->
          let id = !next_as in
          incr next_as;
          let root = Kernel_model.Buddy.alloc buddy in
          ksm_exn "declare_root" (Ksm.declare_root ksm ~pfn:root);
          Hashtbl.replace aspaces id root;
          id);
      as_destroy =
        (fun id ->
          let root = root_of id in
          ksm_exn "release_root"
            (Ksm.release_root ksm ~root ~free_ptp:(fun pfn -> Kernel_model.Buddy.free buddy pfn));
          Kernel_model.Buddy.free buddy root;
          Hashtbl.remove aspaces id);
      as_switch =
        (fun id ->
          let root = root_of id in
          let copy = ksm_exn "load_cr3" (Ksm.load_cr3 ksm ~vcpu:0 ~root) in
          Hw.Cpu.load_cr3 (vcpu0 ()) ~root:copy ~pcid);
      pte_install =
        (fun id ~va ~pfn ~writable ~user ->
          let root = root_of id in
          ksm_exn "guest_map"
            (Ksm.guest_map ksm ~root ~va ~pfn
               ~flags:{ Hw.Pte.default_flags with writable; user; nx = true }
               ~alloc_ptp:(fun () -> Kernel_model.Buddy.alloc buddy)));
      pte_remove =
        (fun id ~va -> ksm_exn "guest_unmap" (Ksm.guest_unmap ksm ~root:(root_of id) ~va));
      pte_protect =
        (fun id ~va ~writable ->
          ksm_exn "guest_protect" (Ksm.guest_protect ksm ~root:(root_of id) ~va ~writable));
      fault_round_trip =
        (fun () ->
          (* The guest kernel fields the fault itself; returning to the
             interrupted context needs iret via the KSM. *)
          Ksm.iret ksm;
          if cfg.Config.design_pku then
            (* Design-PKU ablation (Section 3.1): the guest kernel sits
               in ring 3, so the host must inject the fault across the
               ring boundary. *)
            Hw.Clock.charge clock "pku_fault_injection" 750.0);
      fault_service_ns = Hw.Cost.pf_handler_cki;
      syscall_round_trip =
        (fun () ->
          Hw.Clock.charge_id clock Kernel_model.Platform.id_syscall Hw.Cost.syscall_entry_exit;
          if not cfg.Config.opt2 then
            (* ablation: page-table switch to/from the guest kernel *)
            Hw.Clock.charge clock "cki_wo_opt2" (2.0 *. Hw.Cost.cr3_switch);
          if not cfg.Config.opt3 then
            (* ablation: sysret/swapgs via KSM -> two PKS switches *)
            Hw.Clock.charge clock "cki_wo_opt3" (2.0 *. Hw.Cost.pks_switch);
          if cfg.Config.emulate_pvm_syscall then begin
            Hw.Clock.charge clock "pvm_sys_emul_mode" (2.0 *. Hw.Cost.extra_mode_switch);
            Hw.Clock.charge clock "pvm_sys_emul_cr3" (2.0 *. Hw.Cost.cr3_switch)
          end);
      hypercall;
      deliver_irq =
        (fun () ->
          (* Hardware interrupt during guest execution: interrupt gate
             -> host handler -> virtual interrupt on resume. *)
          match
            Gates.interrupt gates (vcpu0 ()) ~vcpu:0 ~vector:Hw.Idt.vec_virtio_net
              ~kind:Hw.Idt.Hardware (fun v -> Host.handle_hw_interrupt host ~vector:v)
          with
          | Ok () ->
              Host.inject_virq host;
              if Virt.Env.is_nested env then
                Hw.Clock.charge clock "nested_irq_extra" Hw.Cost.nested_irq_extra
          | Error e -> failwith ("CKI interrupt gate error: " ^ Gates.show_error e));
      virtualized_io = true;
      (* Single-stage: the buddy hands out real hPA frames inside the
         delegated segment, so ring bytes are directly addressable (and
         the Analysis sanitizer audits them like any guest page). *)
      mem = Hw.Machine.mem machine;
      guest_frame = Fun.id;
    }
  in
  let kernel = Kernel_model.Kernel.create platform in
  let label =
    match Config.label cfg with
    | "CKI" -> "CKI-" ^ Virt.Env.suffix env
    | other -> other
  in
  let backend =
    {
      Virt.Backend.label;
      backend_name = "cki";
      env;
      kernel;
      platform;
      clock;
      walk_refs = Hw.Cost.walk_refs_native;
      walk_refs_huge = Hw.Cost.walk_refs_native_huge;
      supports_hypercall = true;
      empty_hypercall = (fun () -> hypercall Kernel_model.Platform.Console);
      guest_user_kernel_isolated = true;
    }
  in
  let t =
    {
      backend;
      host;
      ksm;
      gates;
      cpus;
      buddy;
      cfg;
      container_id;
      pcid;
      current_vcpu = 0;
      aspaces;
      next_as;
    }
  in
  if Hw.Probe.active () then Hw.Probe.emit (Hw.Probe.Container_boot { container = container_id; pcid });
  t

let create ?(env = Virt.Env.Bare_metal) ?(cfg = Config.default) (host : Host.t) : t =
  let machine = Host.machine host in
  let mem = Hw.Machine.mem machine in
  let clock = Hw.Machine.clock machine in
  let container_id = Host.fresh_container_id host in
  let pcid = Hw.Machine.fresh_pcid machine in
  (* Policy-dispatching delegation: one contiguous segment under
     first-fit, possibly several chunks under scatter.  The KSM's
     direct map and the buddy's zones both take the same list. *)
  let segments = Host.delegate host ~container:container_id ~frames:cfg.Config.segment_frames in
  let ksm = Ksm.create mem clock ~container_id ~cfg ~segments in
  let buddy = Kernel_model.Buddy.create_zones ~segments in
  let aspaces = Hashtbl.create 16 in
  let next_as = ref 0 in
  (* Cold boot pays the guest kernel's own boot sequence on top of the
     KSM construction — the cost snapshot restore and warm clones
     amortize away. *)
  Hw.Clock.charge clock "guest_kernel_boot" Hw.Cost.guest_kernel_boot;
  assemble ~env ~cfg host ~container_id ~pcid ~ksm ~buddy ~aspaces ~next_as ()

(* Shared read-only frames this container (or its KSM) owns that still
   carry a reference are exactly the frames live CoW clones point at. *)
let has_live_clone_refs t =
  let mem = Hw.Machine.mem (Host.machine t.host) in
  let live = ref false in
  Hw.Phys_mem.iter_owned mem ~id:t.container_id (fun pfn ->
      if Hw.Phys_mem.is_shared_ro mem pfn && Hw.Phys_mem.refcount mem pfn > 0 then live := true);
  !live

(* Tear a container down completely, returning every frame to the host.

   The inverse of [create]/restore/clone, and the operation the fleet's
   scale-in and churn lean on.  Order matters:

   1. drop the CoW references this container holds on *other*
      containers' frozen template frames — found by walking its live
      page tables (every present leaf whose target is a shared
      read-only frame the container does not own took exactly one
      reference at clone time; CoW breaks already released theirs);
   2. reclaim the delegated segments;
   3. sweep every remaining frame the container or its KSM owns
      (KSM-private state, page tables, a private kernel image).

   A frozen template cannot be destroyed while clones still reference
   its frames — [has_live_clone_refs] refuses first, so a mistake
   cannot strand clones over freed memory. *)
let destroy t =
  let machine = Host.machine t.host in
  let mem = Hw.Machine.mem machine in
  let id = t.container_id in
  if has_live_clone_refs t then
    invalid_arg
      (Printf.sprintf "Container.destroy: container %d is a frozen template with live clones" id);
  (* 1. Release CoW references on foreign shared frames. *)
  let visited : (Hw.Addr.pfn, unit) Hashtbl.t = Hashtbl.create 256 in
  let rec walk lvl pfn =
    if not (Hashtbl.mem visited pfn) then begin
      Hashtbl.replace visited pfn ();
      for idx = 0 to Hw.Addr.entries_per_table - 1 do
        let e = Hw.Phys_mem.read_entry mem ~pfn ~index:idx in
        if Hw.Pte.is_present e then begin
          let target = Hw.Pte.pfn e in
          let leaf = lvl = 1 || (lvl = 2 && Hw.Pte.is_huge e) in
          if leaf then begin
            let foreign =
              match Hw.Phys_mem.owner mem target with
              | Hw.Phys_mem.Container k | Hw.Phys_mem.Ksm k -> k <> id
              | _ -> false
            in
            if foreign && Hw.Phys_mem.is_shared_ro mem target then
              Hw.Phys_mem.decr_ref mem target
          end
          else walk (lvl - 1) target
        end
      done
    end
  in
  List.iter
    (fun (root, copies) ->
      walk Hw.Addr.levels root;
      Array.iter (fun copy -> walk Hw.Addr.levels copy) copies)
    (Ksm.roots t.ksm);
  (* 2 + 3. Reclaim the segments, then let the KSM sweep stragglers
     (KSM state, page tables, kernel image) — stripping a template's
     shared_ro tag is a TCB operation. *)
  Host.reclaim_segment t.host ~container:id;
  Ksm.scrub_owned t.ksm

(* Convenience: build a host + container in one step (examples). *)
let create_standalone ?(env = Virt.Env.Bare_metal) ?(cfg = Config.default) ?(mem_mib = 512) () =
  let machine = Hw.Machine.create ~mem_mib () in
  let host = Host.create machine in
  create ~env ~cfg host
