(* PVM: software-based virtualization (SOSP'23), the state-of-the-art
   secure container design that needs no virtualization hardware.

   The guest kernel is deprivileged to *user mode* in its own address
   space.  Consequences the model reproduces:
     - syscall redirection: user -> host kernel -> (CR3 switch) ->
       guest kernel in user mode -> handle -> host -> (CR3 switch) ->
       user.  Two extra mode switches + two extra page-table switches
       on every syscall (93 -> 336 ns).
     - shadow paging: the guest keeps gVA->gPA tables, the host keeps a
       shadow gVA->hPA table per guest process.  Guest PTE writes trap
       to the host ("VM exit"); a user page fault is intercepted by the
       host, injected into the guest, handled, and the resulting PTE
       write is folded into the shadow table — at least 6 context
       switches plus emulation work per fault.
     - process switches require a hypercall (the guest cannot load CR3
       itself), making context switching and IPC slow (Figure 11). *)

type state = {
  (* Guest page tables (gVA -> gPA) and host shadow tables (gVA -> hPA),
     one pair per guest address space. *)
  guest_pts : (int, Hw.Page_table.t) Hashtbl.t;
  shadow_pts : (int, Hw.Page_table.t) Hashtbl.t;
  gpa_to_hpa : (int, int) Hashtbl.t;  (** gfn -> hfn, the VMA-backed map *)
  mutable next_gfn : int;
  mutable free_gfns : int list;
  mutable next_as : int;
  mutable shadow_syncs : int;
  mutable in_fault : bool;
      (** the next pte_install is part of a demand fault whose trap
          costs were already bundled into fault_round_trip *)
}

(* Process-wide id allocator.  [Atomic.t] so backends created from
   different domains (the planned container-sharding engine) never mint
   the same id; single-domain behaviour is unchanged. *)
let next_container_id = Atomic.make 0

let create ?(env = Env.Bare_metal) (machine : Hw.Machine.t) : Backend.t =
  let clock = Hw.Machine.clock machine in
  let nested = Env.is_nested env in
  let container_id = Atomic.fetch_and_add next_container_id 1 + 1 in
  let st =
    {
      guest_pts = Hashtbl.create 8;
      shadow_pts = Hashtbl.create 8;
      gpa_to_hpa = Hashtbl.create 1024;
      next_gfn = 0;
      free_gfns = [];
      next_as = 0;
      shadow_syncs = 0;
      in_fault = false;
    }
  in
  let mem = Hw.Machine.mem machine in
  let hypercall_cost = if nested then Hw.Cost.pvm_hypercall_nst else Hw.Cost.pvm_hypercall_bm in
  let charge_hypercall () =
    Hw.Clock.charge clock (if nested then "pvm_hypercall_nst" else "pvm_hypercall") hypercall_cost
  in
  let alloc_gfn () =
    match st.free_gfns with
    | g :: rest ->
        st.free_gfns <- rest;
        g
    | [] ->
        let g = st.next_gfn in
        st.next_gfn <- g + 1;
        g
  in
  (* Back [gfn] with a host frame if it is not yet associated. *)
  let hfn_of_gfn gfn =
    match Hashtbl.find_opt st.gpa_to_hpa gfn with
    | Some h -> h
    | None ->
        let h =
          Hw.Phys_mem.alloc mem ~owner:(Hw.Phys_mem.Container container_id) ~kind:Hw.Phys_mem.Data
        in
        Hashtbl.replace st.gpa_to_hpa gfn h;
        h
  in
  let guest_pt id = Hashtbl.find st.guest_pts id in
  let shadow_pt id = Hashtbl.find st.shadow_pts id in
  let alloc_guest_table ~level =
    Hw.Phys_mem.alloc mem ~owner:(Hw.Phys_mem.Container container_id)
      ~kind:(Hw.Phys_mem.Page_table level)
  in
  let alloc_shadow_table ~level =
    Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table level)
  in
  (* Fold one guest PTE write into the shadow table: the host walks the
     guest table, translates gPA->hPA through the VMA map, and writes
     the shadow entry. *)
  let shadow_sync id ~va ~gfn ~writable ~user =
    st.shadow_syncs <- st.shadow_syncs + 1;
    Hw.Clock.count clock "shadow_sync";
    let hfn = hfn_of_gfn gfn in
    ignore
      (Hw.Page_table.map (shadow_pt id) ~alloc_table:alloc_shadow_table ~va ~pfn:hfn
         ~flags:{ Hw.Pte.default_flags with writable; user }
         ())
  in
  let platform =
    {
      Kernel_model.Platform.name = "pvm";
      clock;
      alloc_frame = (fun () -> alloc_gfn ());
      free_frame = (fun gfn -> st.free_gfns <- gfn :: st.free_gfns);
      as_create =
        (fun () ->
          let id = st.next_as in
          st.next_as <- id + 1;
          Hashtbl.replace st.guest_pts id
            (Hw.Page_table.of_root mem (alloc_guest_table ~level:4));
          Hashtbl.replace st.shadow_pts id
            (Hw.Page_table.of_root mem (alloc_shadow_table ~level:4));
          id);
      as_destroy =
        (fun id ->
          Hashtbl.remove st.guest_pts id;
          Hashtbl.remove st.shadow_pts id);
      as_switch =
        (fun _ ->
          (* The guest cannot load CR3: a hypercall asks the host to
             switch to the process's shadow table. *)
          charge_hypercall ();
          Hw.Clock.charge clock "cr3_switch" Hw.Cost.cr3_switch);
      pte_install =
        (fun id ~va ~pfn ~writable ~user ->
          (* Guest writes its own PTE (gVA->gPA): traps to the host,
             which emulates the write and syncs the shadow entry.  On
             the demand-fault path the trap costs were bundled into
             fault_round_trip; standalone updates (fork, mremap...)
             pay their own exit + emulation. *)
          if st.in_fault then st.in_fault <- false
          else begin
            charge_hypercall ();
            Hw.Clock.charge clock "shadow_emulation" 300.0
          end;
          ignore
            (Hw.Page_table.map (guest_pt id) ~alloc_table:alloc_guest_table ~va ~pfn
               ~flags:{ Hw.Pte.default_flags with writable; user }
               ());
          shadow_sync id ~va ~gfn:pfn ~writable ~user);
      pte_remove =
        (fun id ~va ->
          ignore (Hw.Page_table.unmap (guest_pt id) va);
          charge_hypercall ();
          ignore (Hw.Page_table.unmap (shadow_pt id) va));
      pte_protect =
        (fun id ~va ~writable ->
          Hw.Page_table.update (guest_pt id) va (fun e -> Hw.Pte.with_writable e writable);
          charge_hypercall ();
          Hw.Clock.charge clock "shadow_emulation" 300.0;
          match Hw.Page_table.walk (shadow_pt id) va with
          | exception Hw.Page_table.Translation_fault _ -> ()
          | _ ->
              Hw.Page_table.update (shadow_pt id) va (fun e -> Hw.Pte.with_writable e writable));
      fault_round_trip =
        (fun () ->
          (* Host intercepts the user fault, injects it into the guest
             kernel, guest handles and updates its PTE (trap), host
             emulates + syncs the shadow entry, returns: >= 6 context
             switches, bundled as the paper's two measured components. *)
          st.in_fault <- true;
          for _ = 1 to 6 do
            Hw.Clock.count clock "pvm_fault_ctx_switch"
          done;
          Hw.Clock.charge clock "pvm_fault_vmexits" Hw.Cost.pvm_fault_vmexits;
          Hw.Clock.charge clock "pvm_fault_spt" Hw.Cost.pvm_fault_spt_emulation;
          if nested then Hw.Clock.charge clock "pvm_fault_nst_extra" Hw.Cost.pvm_fault_nst_extra);
      fault_service_ns = Hw.Cost.pf_handler_pvm;
      syscall_round_trip =
        (fun () ->
          (* user -> host -> guest kernel (user mode) -> host -> user:
             native pair + 2 extra mode switches + 2 CR3 switches. *)
          Hw.Clock.charge_id clock Kernel_model.Platform.id_syscall Hw.Cost.syscall_entry_exit;
          Hw.Clock.charge clock "pvm_mode_switch" (2.0 *. Hw.Cost.extra_mode_switch);
          Hw.Clock.charge clock "cr3_switch" (2.0 *. Hw.Cost.cr3_switch);
          Hw.Clock.count clock "pvm_syscall_redirect");
      hypercall =
        (fun kind ->
          charge_hypercall ();
          (* PVM runs unmodified virtio frontends: device doorbells are
             MMIO writes the host must decode and emulate. *)
          match kind with
          | Kernel_model.Platform.Net_tx | Kernel_model.Platform.Net_rx_ack
          | Kernel_model.Platform.Blk_read | Kernel_model.Platform.Blk_write ->
              Hw.Clock.charge clock "pvm_mmio_emulation" Hw.Cost.pvm_mmio_emulation
          | Kernel_model.Platform.Timer | Kernel_model.Platform.Ipi
          | Kernel_model.Platform.Console ->
              ());
      deliver_irq =
        (fun () ->
          Hw.Clock.charge clock "irq" Hw.Cost.irq_delivery;
          Hw.Clock.charge clock "virq_inject" Hw.Cost.virq_inject;
          (* EOI is a (cheap) hypercall back to the host. *)
          charge_hypercall ();
          if nested then Hw.Clock.charge clock "nested_irq_extra" Hw.Cost.nested_irq_extra);
      virtualized_io = true;
      (* VirtIO rings live at gPAs; the host reaches them through the
         gPA->hPA association (backing lazily, like any guest frame). *)
      mem;
      guest_frame = hfn_of_gfn;
    }
  in
  let kernel = Kernel_model.Kernel.create platform in
  {
    Backend.label = "PVM-" ^ Env.suffix env;
    backend_name = "pvm";
    env;
    kernel;
    platform;
    clock;
    (* Shadow paging translates gVA->hPA in one dimension. *)
    walk_refs = Hw.Cost.walk_refs_native;
    walk_refs_huge = Hw.Cost.walk_refs_native_huge;
    supports_hypercall = true;
    empty_hypercall = charge_hypercall;
    guest_user_kernel_isolated = true;
  }
