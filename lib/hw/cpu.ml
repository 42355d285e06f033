(* A simulated CPU (vCPU) with the paper's PKS hardware extensions:

   E1. `wrpkrs` — a fast, unprivileged-operand instruction writing PKRS
       (kernel mode only), replacing the MSR interface.
   E2. Destructive privileged instructions fault when executed in
       kernel mode with PKRS != 0 (Section 4.1, Table 3).
   E3. `sysret` keeps IF pinned on when PKRS != 0, so a guest kernel
       cannot return to user mode with interrupts disabled.
   E4. Hardware-interrupt delivery saves PKRS and switches it to 0 when
       the IDT entry requests it; the extended `iret` restores it
       (Section 4.4). *)

type mode = User | Kernel [@@deriving eq]

type fault =
  | Blocked_instruction of Priv.t  (** PKS extension E2 trap *)
  | Not_kernel_mode of Priv.t  (** classic #GP: priv insn in ring 3 *)
  | Pks_violation of { va : Addr.va; key : int; access : Pks.access }
  | Smap_violation of Addr.va  (** supervisor touched user page *)
  | Priv_page_violation of Addr.va  (** user touched supervisor page *)
  | Write_violation of Addr.va
  | Nx_violation of Addr.va
  | Not_present of Addr.va
[@@deriving show { with_path = false }]

exception Fault of fault

(* Memoized translation fast path: a per-CPU direct-mapped software
   cache in front of the TLB + 4-level walk.  Slots hold the packed
   (pcid, vpn) key (+1 so 0 means empty), the target pfn, and an int of
   permission metadata, so a repeated guest access skips the TLB
   hashtable, [Pte.make] and the boxed-int64 permission checks entirely
   — while still charging the structural [tlb_hit] price and counting a
   TLB hit.  The TLB's invalidate hook keeps the cache a strict subset
   of the TLB (same invalidation events + FIFO eviction), so enabling
   it is observationally invisible to cost accounting and the
   invariant scanner. *)
let tc_size = 1024 (* slots; power of two *)

(* Packed permission metadata: bit 0 writable, bit 1 user, bit 2 nx,
   bit 3 level-2 (2 MiB leaf), bits 4..7 protection key. *)
let tc_meta_pack ~writable ~user ~nx ~level ~pkey =
  (if writable then 1 else 0)
  lor (if user then 2 else 0)
  lor (if nx then 4 else 0)
  lor (if level = 2 then 8 else 0)
  lor (pkey lsl 4)

type t = {
  id : int;
  mutable mode : mode;
  mutable cr3 : Addr.pfn;
  mutable pcid : int;
  mutable pkrs : Pks.rights;
  mutable pkru : Pks.rights;
  mutable gs_base : int;
  mutable kernel_gs_base : int;
  mutable if_flag : bool;  (** RFLAGS.IF *)
  mutable halted : bool;
  mutable saved_pkrs : Pks.rights list;  (** E4: stack of interrupt-saved PKRS *)
  tlb : Tlb.t;
  clock : Clock.t;
  tc_key : int array;  (** (vpn << 14 | pcid) + 1; 0 = empty *)
  tc_pfn : int array;
  tc_meta : int array;
  mutable tc_enabled : bool;
}

let tc_index ~pcid vpn = (vpn lxor (pcid lsl 4)) land (tc_size - 1)
let tc_pack_key ~pcid vpn = ((vpn lsl 14) lor (pcid land 0x3FFF)) + 1

let tc_invalidate t pcid vpn =
  if pcid < 0 then Array.fill t.tc_key 0 tc_size 0
  else if vpn < 0 then
    for i = 0 to tc_size - 1 do
      if t.tc_key.(i) <> 0 && (t.tc_key.(i) - 1) land 0x3FFF = pcid land 0x3FFF then
        t.tc_key.(i) <- 0
    done
  else begin
    let i = tc_index ~pcid vpn in
    if t.tc_key.(i) = tc_pack_key ~pcid vpn then t.tc_key.(i) <- 0
  end

let tc_fill t ~pcid ~vpn ~pfn ~meta =
  let i = tc_index ~pcid vpn in
  t.tc_key.(i) <- tc_pack_key ~pcid vpn;
  t.tc_pfn.(i) <- pfn;
  t.tc_meta.(i) <- meta

let set_tcache t on =
  t.tc_enabled <- on;
  if not on then Array.fill t.tc_key 0 tc_size 0

let create ?(id = 0) ?(tlb_capacity = 1536) clock =
  let t =
    {
      id;
      mode = Kernel;
      cr3 = 0;
      pcid = 0;
      pkrs = Pks.all_access;
      pkru = Pks.all_access;
      gs_base = 0;
      kernel_gs_base = 0;
      if_flag = true;
      halted = false;
      saved_pkrs = [];
      tlb = Tlb.create ~capacity:tlb_capacity ();
      clock;
      tc_key = Array.make tc_size 0;
      tc_pfn = Array.make tc_size 0;
      tc_meta = Array.make tc_size 0;
      tc_enabled = true;
    }
  in
  Tlb.set_invalidate_hook t.tlb (fun pcid vpn -> tc_invalidate t pcid vpn);
  t

let id_cr3_switch = Clock.intern "cr3_switch"
let id_invlpg = Clock.intern "invlpg"
let id_syscall_entry_exit = Clock.intern "syscall_entry_exit"

(* Load CR3 (+PCID) without flushing other PCIDs' TLB entries. *)
let load_cr3 t ~root ~pcid =
  t.cr3 <- root;
  t.pcid <- pcid;
  if Probe.active () then Probe.emit (Probe.Cr3_load { cpu = t.id; pcid; root });
  Clock.charge_id t.clock id_cr3_switch Cost.cr3_switch

(* ------------------------------------------------------------------ *)
(* Privileged-instruction execution (extension E2)                     *)
(* ------------------------------------------------------------------ *)

let exec_priv t (inst : Priv.t) : (unit, fault) result =
  let trace ~blocked =
    if Probe.active () then
      Probe.emit
        (Probe.Priv_exec
           {
             cpu = t.id;
             mnemonic = Priv.mnemonic inst;
             destructive = Priv.blocked_in_guest inst;
             pkrs = t.pkrs;
             blocked;
           })
  in
  if t.mode <> Kernel then Error (Not_kernel_mode inst)
  else if
    t.pkrs <> Pks.all_access
    && Mutation.e2_blocks ~mnemonic:(Priv.mnemonic inst)
         ~policy_blocked:(Priv.blocked_in_guest inst)
  then begin
    trace ~blocked:true;
    Clock.count t.clock "priv_inst_blocked";
    Error (Blocked_instruction inst)
  end
  else begin
    trace ~blocked:false;
    (match inst with
    | Priv.Wrpkrs r ->
        t.pkrs <- r;
        if Probe.active () then Probe.emit (Probe.Wrpkrs { cpu = t.id; value = r })
    | Priv.Rdpkrs -> ()
    | Priv.Swapgs ->
        let g = t.gs_base in
        t.gs_base <- t.kernel_gs_base;
        t.kernel_gs_base <- g
    | Priv.Sysret ->
        t.mode <- User;
        (* E3: IF stays on when a deprivileged kernel returns. *)
        if t.pkrs <> Pks.all_access && Mutation.knobs.Mutation.e3_pin_if then t.if_flag <- true;
        if Probe.active () then
          Probe.emit (Probe.Sysret { cpu = t.id; pkrs = t.pkrs; if_after = t.if_flag })
    | Priv.Sti -> t.if_flag <- true
    | Priv.Cli -> t.if_flag <- false
    | Priv.Popf -> ()
    | Priv.Hlt -> t.halted <- true
    | Priv.Invlpg va ->
        Tlb.invlpg t.tlb ~pcid:t.pcid va;
        if Probe.active () then
          Probe.emit (Probe.Tlb_invlpg { cpu = t.id; pcid = t.pcid; vpn = Addr.vpn_of_va va });
        Clock.charge_id t.clock id_invlpg Cost.invlpg
    | Priv.Invpcid ->
        Tlb.flush_pcid t.tlb ~pcid:t.pcid;
        if Probe.active () then Probe.emit (Probe.Tlb_flush_pcid { cpu = t.id; pcid = t.pcid })
    | Priv.Iret -> (
        t.if_flag <- true;
        (* E4: extended iret restores the interrupt-saved PKRS. *)
        let before = t.pkrs in
        (match t.saved_pkrs with
        | [] -> ()
        | r :: rest ->
            if Mutation.knobs.Mutation.e4_restore_on_iret then t.pkrs <- r;
            t.saved_pkrs <- rest);
        if Probe.active () then
          Probe.emit (Probe.Iret { cpu = t.id; pkrs_before = before; pkrs_after = t.pkrs }))
    | Priv.Lidt | Priv.Sidt | Priv.Lgdt | Priv.Ltr | Priv.Rdmsr _ | Priv.Wrmsr _
    | Priv.Mov_from_cr _ | Priv.Mov_to_cr0 | Priv.Mov_to_cr4 | Priv.Clac | Priv.Stac
    | Priv.Smsw | Priv.In_port _ | Priv.Out_port _ ->
        ()
    | Priv.Mov_to_cr3 -> ());
    Ok ()
  end

let exec_priv_exn t inst =
  match exec_priv t inst with Ok () -> () | Error f -> raise (Fault f)

(* ------------------------------------------------------------------ *)
(* Memory access with full permission checking                         *)
(* ------------------------------------------------------------------ *)

(* Check one leaf PTE against the CPU's current mode and protection-key
   rights; returns the fault, if any. *)
let check_pte t ~va ~(access : Pks.access) ~exec (pte : Pte.t) : fault option =
  if not (Pte.is_present pte) then Some (Not_present va)
  else if t.mode = User && not (Pte.is_user pte) then Some (Priv_page_violation va)
  else if exec && Pte.is_nx pte then Some (Nx_violation va)
  else if access = Pks.Write && not (Pte.is_writable pte) && t.mode = User then Some (Write_violation va)
  else begin
    (* Protection keys apply per the page's U/K bit: PKRU governs user
       pages, PKRS governs supervisor pages.  Instruction fetches are
       not blocked by protection keys (matching real MPK). *)
    let key = Pte.pkey pte in
    let rights = if Pte.is_user pte then t.pkru else t.pkrs in
    if (not exec) && not (Pks.allows rights ~key access) then
      Some (Pks_violation { va; key; access })
    else if access = Pks.Write && not (Pte.is_writable pte) then Some (Write_violation va)
    else None
  end

(* Translate + permission-check an access through [pt], consulting this
   CPU's TLB.  Charges walk costs on TLB miss.  Returns the physical
   address. *)
(* Fast-path permission check over the packed [tc_meta] bits, mirroring
   [check_pte] decision-for-decision (cache entries are always present,
   so the present test is implied by the key match). *)
let tc_check t ~va ~(access : Pks.access) ~exec meta : fault option =
  let user = meta land 2 <> 0 in
  let writable = meta land 1 <> 0 in
  if t.mode = User && not user then Some (Priv_page_violation va)
  else if exec && meta land 4 <> 0 then Some (Nx_violation va)
  else if access = Pks.Write && not writable && t.mode = User then Some (Write_violation va)
  else begin
    let key = meta lsr 4 in
    let rights = if user then t.pkru else t.pkrs in
    if (not exec) && not (Pks.allows rights ~key access) then
      Some (Pks_violation { va; key; access })
    else if access = Pks.Write && not writable then Some (Write_violation va)
    else None
  end

let access t (pt : Page_table.t) ~va ~(access_kind : Pks.access) ?(exec = false) () : (Addr.pa, fault) result =
  let vpn = Addr.vpn_of_va va in
  (* Memoized fast path: a direct-mapped probe (exact vpn, then the
     2 MiB-aligned vpn for huge leaves) replaces the TLB hashtable
     lookup and the boxed PTE rebuild on the hot repeat-access case.
     Cost accounting and hit statistics are charged exactly as a TLB
     hit would be. *)
  let slot =
    if not t.tc_enabled then -1
    else begin
      let i = tc_index ~pcid:t.pcid vpn in
      if t.tc_key.(i) = tc_pack_key ~pcid:t.pcid vpn then i
      else begin
        let b = vpn land lnot 511 in
        let j = tc_index ~pcid:t.pcid b in
        if t.tc_key.(j) = tc_pack_key ~pcid:t.pcid b && t.tc_meta.(j) land 8 <> 0 then j
        else -1
      end
    end
  in
  if slot >= 0 then begin
    Tlb.note_hit t.tlb;
    Clock.charge_id t.clock Clock.id_tlb_hit Cost.tlb_hit;
    let meta = t.tc_meta.(slot) in
    match tc_check t ~va ~access:access_kind ~exec meta with
    | Some f -> Error f
    | None ->
        let base = Addr.pa_of_pfn t.tc_pfn.(slot) in
        let pa =
          if meta land 8 <> 0 then base lor (va land ((1 lsl 21) - 1))
          else base lor Addr.page_offset va
        in
        Ok pa
  end
  else begin
    let finish (pte : Pte.t) (level : int) =
      match check_pte t ~va ~access:access_kind ~exec pte with
      | Some f -> Error f
      | None ->
          let base = Addr.pa_of_pfn (Pte.pfn pte) in
          let pa =
            if level = 2 then base lor (va land ((1 lsl 21) - 1)) else base lor Addr.page_offset va
          in
          Ok pa
    in
    let fill_tc ~pfn ~(flags : Pte.flags) ~level =
      if t.tc_enabled then begin
        let svpn = if level = 2 then vpn land lnot 511 else vpn in
        tc_fill t ~pcid:t.pcid ~vpn:svpn ~pfn
          ~meta:
            (tc_meta_pack ~writable:flags.Pte.writable ~user:flags.Pte.user ~nx:flags.Pte.nx
               ~level ~pkey:flags.Pte.pkey)
      end
    in
    match Tlb.lookup t.tlb ~pcid:t.pcid va with
    | Some e ->
        Clock.charge_id t.clock Clock.id_tlb_hit Cost.tlb_hit;
        fill_tc ~pfn:e.Tlb.pfn ~flags:e.Tlb.flags ~level:e.Tlb.level;
        let pte = Pte.make ~pfn:e.Tlb.pfn ~flags:e.Tlb.flags in
        finish pte e.Tlb.level
    | None -> (
        match Page_table.walk pt va with
        | exception Page_table.Translation_fault _ ->
            Clock.charge_id t.clock Clock.id_tlb_miss_walk
              (float_of_int Cost.walk_refs_native *. Cost.walk_mem_ref);
            Error (Not_present va)
        | w ->
            let refs = w.Page_table.refs in
            Clock.charge_id t.clock Clock.id_tlb_miss_walk (float_of_int refs *. Cost.walk_mem_ref);
            let flags = Pte.flags_of w.pte in
            let pfn = Pte.pfn w.pte in
            Tlb.insert t.tlb ~pcid:t.pcid ~va { Tlb.pfn; flags; level = w.leaf_level };
            (* Fill after the TLB insert so a capacity eviction (or a
               replace of this very key) fired by the insert hook cannot
               clear the fresh cache line. *)
            fill_tc ~pfn ~flags ~level:w.leaf_level;
            let fvpn = if w.leaf_level = 2 then vpn land lnot 511 else vpn in
            Probe.emit_tlb_fill ~cpu:t.id ~pcid:t.pcid ~vpn:fvpn ~level:w.leaf_level ~pfn;
            finish w.pte w.leaf_level)
  end

(* ------------------------------------------------------------------ *)
(* Mode transitions                                                    *)
(* ------------------------------------------------------------------ *)

let enter_user t = t.mode <- User

(* A `syscall` instruction: ring3 -> ring0 at the IA32_STAR entry. *)
let syscall_entry t =
  assert (t.mode = User);
  t.mode <- Kernel;
  Clock.charge_id t.clock id_syscall_entry_exit Cost.syscall_entry_exit

(* Hardware interrupt arrival (extension E4): saves PKRS and zeroes it
   when the vectoring IDT entry carries the pks_switch attribute. *)
let hw_interrupt_entry t ~pks_switch =
  if pks_switch then begin
    if Mutation.knobs.Mutation.e4_save_on_delivery then t.saved_pkrs <- t.pkrs :: t.saved_pkrs;
    t.pkrs <- Pks.all_access
  end;
  t.mode <- Kernel;
  t.if_flag <- false
