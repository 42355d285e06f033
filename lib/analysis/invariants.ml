(* Whole-machine invariant scanner.

   Everything here is derived from first principles: the walker starts
   at each declared root and follows raw physical-memory entry reads
   (Hw.Phys_mem.read_entry), reconstructing the virtual address of
   every mapping as it goes.  The monitor's own claimed state
   (Ksm.declared_ptps, Ksm.roots, Ksm.segments...) is used purely as
   the reference to cross-check against — none of the KSM's validation
   paths run. *)

type violation =
  | Undeclared_ptp of {
      container : int;
      table : Hw.Addr.pfn;
      index : int;
      level : int;
      child : Hw.Addr.pfn;
    }
  | Ptp_level_mismatch of { container : int; ptp : Hw.Addr.pfn; claimed : int; used_at : int }
  | Ptp_kind_mismatch of { container : int; ptp : Hw.Addr.pfn; kind : string }
  | Guest_writable_ptp of { container : int; ptp : Hw.Addr.pfn; va : Hw.Addr.va }
  | Maps_declared_ptp of { container : int; va : Hw.Addr.va; ptp : Hw.Addr.pfn }
  | Targets_monitor of { container : int; va : Hw.Addr.va; pfn : Hw.Addr.pfn; owner : string }
  | Outside_delegation of { container : int; va : Hw.Addr.va; pfn : Hw.Addr.pfn; owner : string }
  | Kernel_exec_leaf of { container : int; va : Hw.Addr.va; pfn : Hw.Addr.pfn }
  | Wx_leaf of { container : int; va : Hw.Addr.va; pfn : Hw.Addr.pfn }
  | Missing_splice of { container : int; copy : Hw.Addr.pfn; slot : int }
  | Copy_divergence of { container : int; root : Hw.Addr.pfn; copy : Hw.Addr.pfn; slot : int }
  | Stale_tlb of { container : int; cpu : int; pcid : int; vpn : int; reason : string }
  | Segment_overlap of { container : int; other : int; base : Hw.Addr.pfn; frames : int }
  | Segment_owner of { container : int; pfn : Hw.Addr.pfn; owner : string }
  | Cow_writable of { container : int; va : Hw.Addr.va; pfn : Hw.Addr.pfn }
[@@deriving show { with_path = false }]

let rule_name = function
  | Undeclared_ptp _ -> "I1-undeclared-ptp"
  | Ptp_level_mismatch _ -> "I1-level-mismatch"
  | Ptp_kind_mismatch _ -> "I1-kind-mismatch"
  | Guest_writable_ptp _ -> "I2-writable-ptp"
  | Maps_declared_ptp _ -> "I2-maps-ptp"
  | Targets_monitor _ -> "pte-targets-monitor"
  | Outside_delegation _ -> "pte-outside-delegation"
  | Kernel_exec_leaf _ -> "kernel-exec-leaf"
  | Wx_leaf _ -> "wx-leaf"
  | Missing_splice _ -> "I3-missing-splice"
  | Copy_divergence _ -> "I3-copy-divergence"
  | Stale_tlb _ -> "stale-tlb"
  | Segment_overlap _ -> "segment-overlap"
  | Segment_owner _ -> "segment-owner"
  | Cow_writable _ -> "cow-writable-leaf"

let subject = function
  | Stale_tlb { container; cpu; _ } -> Printf.sprintf "container %d cpu %d" container cpu
  | Undeclared_ptp { container; _ }
  | Ptp_level_mismatch { container; _ }
  | Ptp_kind_mismatch { container; _ }
  | Guest_writable_ptp { container; _ }
  | Maps_declared_ptp { container; _ }
  | Targets_monitor { container; _ }
  | Outside_delegation { container; _ }
  | Kernel_exec_leaf { container; _ }
  | Wx_leaf { container; _ }
  | Missing_splice { container; _ }
  | Copy_divergence { container; _ }
  | Segment_overlap { container; _ }
  | Segment_owner { container; _ }
  | Cow_writable { container; _ } ->
      Printf.sprintf "container %d" container

(* Bytes of virtual address space one entry covers at [lvl]. *)
let span lvl = Hw.Addr.page_size * (1 lsl (9 * (lvl - 1)))

let check_container (c : Cki.Container.t) : violation list =
  let ksm = c.Cki.Container.ksm in
  let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  let id = c.Cki.Container.container_id in
  let total = Hw.Phys_mem.total_frames mem in
  let out = ref [] in
  let add v = out := v :: !out in
  let oname o = Hw.Phys_mem.show_owner o in
  let read ~pfn ~index = Hw.Phys_mem.read_entry mem ~pfn ~index in
  let in_kernel_image va = va >= Cki.Layout.kernel_image_base && va < Cki.Layout.ksm_base in
  let frozen = Cki.Ksm.kernel_exec_frozen ksm in
  let is_table pfn =
    pfn >= 0 && pfn < total
    && match Hw.Phys_mem.kind mem pfn with Hw.Phys_mem.Page_table _ -> true | _ -> false
  in

  (* -------------------------------------------------------------- *)
  (* Leaf rules                                                      *)
  (* -------------------------------------------------------------- *)
  let check_leaf ~va e =
    let pfn = Hw.Pte.pfn e in
    let pkey = Hw.Pte.pkey e in
    let writable = Hw.Pte.is_writable e in
    let nx = Hw.Pte.is_nx e in
    let user = Hw.Pte.is_user e in
    if pfn < 0 || pfn >= total then
      add (Outside_delegation { container = id; va; pfn; owner = "out-of-range" })
    else begin
      (match Hw.Phys_mem.owner mem pfn with
      | Hw.Phys_mem.Ksm k when k = id ->
          (* The monitor's own regions (KSM code/data, per-vCPU areas)
             are the only legitimate mappings of monitor frames, and
             they carry pkey_ksm so guest rights exclude them. *)
          if not ((Cki.Layout.in_ksm va || Cki.Layout.in_pervcpu va) && pkey = Hw.Pks.pkey_ksm)
          then add (Targets_monitor { container = id; va; pfn; owner = oname (Hw.Phys_mem.Ksm k) })
      | Hw.Phys_mem.Container k when k = id ->
          if not (Cki.Ksm.owns_frame ksm pfn) then begin
            (* The guest kernel image is boot-allocated outside the
               delegated segments: Kernel_code frames are legitimate
               only read-only inside the image window. *)
            let image_frame =
              match Hw.Phys_mem.kind mem pfn with
              | Hw.Phys_mem.Kernel_code -> in_kernel_image va && not writable
              | _ -> false
            in
            if not image_frame then
              add
                (Outside_delegation
                   { container = id; va; pfn; owner = oname (Hw.Phys_mem.Container k) })
          end
          else begin
            match Cki.Ksm.page_state_of ksm pfn with
            | Cki.Ksm.Ksm_private ->
                add
                  (Targets_monitor
                     { container = id; va; pfn; owner = oname (Hw.Phys_mem.Container k) })
            | Cki.Ksm.Guest_ptp _ when pkey <> Hw.Pks.pkey_ptp ->
                (* I2: outside the pkey_ptp read-only view, any mapping
                   of a declared PTP is suspect; a writable one is the
                   classic nested-kernel break. *)
                if writable then add (Guest_writable_ptp { container = id; ptp = pfn; va })
                else add (Maps_declared_ptp { container = id; va; ptp = pfn })
            | Cki.Ksm.Guest_ptp _ | Cki.Ksm.Guest_data -> ()
          end
      | Hw.Phys_mem.Container _ when Hw.Phys_mem.is_shared_ro mem pfn ->
          (* CoW-shared template frame: another container's frame is
             legitimately visible here, but only read-only — the
             blanket check below flags any writable mapping. *)
          ()
      | (Hw.Phys_mem.Host | Hw.Phys_mem.Ksm _) as o ->
          add (Targets_monitor { container = id; va; pfn; owner = oname o })
      | o -> add (Outside_delegation { container = id; va; pfn; owner = oname o }));
      (* A CoW-shared frame (template pages referenced by warm clones,
         and the template's own frozen pages) must never be writable
         through any container's tables — a writable alias would let
         one clone corrupt every sibling. *)
      if Hw.Phys_mem.is_shared_ro mem pfn && writable then
        add (Cow_writable { container = id; va; pfn });
      (* The monitor's own leaves (pkey_ksm) are TCB and exempt; for
         everything guest-reachable: W^X, and no kernel-executable
         mappings outside the frozen image. *)
      if pkey <> Hw.Pks.pkey_ksm then begin
        if writable && not nx then add (Wx_leaf { container = id; va; pfn });
        if frozen && (not user) && (not nx) && not (in_kernel_image va) then
          add (Kernel_exec_leaf { container = id; va; pfn })
      end
    end
  in

  (* -------------------------------------------------------------- *)
  (* The walk                                                        *)
  (* -------------------------------------------------------------- *)
  let visited : (Hw.Addr.pfn * int * Hw.Addr.va, unit) Hashtbl.t = Hashtbl.create 1024 in
  let rec walk_table ~lvl ~table ~va_base =
    if not (Hashtbl.mem visited (table, lvl, va_base)) then begin
      Hashtbl.add visited (table, lvl, va_base) ();
      for idx = 0 to Hw.Addr.entries_per_table - 1 do
        let e = read ~pfn:table ~index:idx in
        if Hw.Pte.is_present e then begin
          let va = va_base + (idx * span lvl) in
          if lvl = 1 || (lvl = 2 && Hw.Pte.is_huge e) then check_leaf ~va e
          else begin
            let child = Hw.Pte.pfn e in
            let clvl = lvl - 1 in
            (* I1: anything used as a page-table page must be declared
               (guest frames) or monitor-built (KSM frames). *)
            if child < 0 || child >= total then
              add (Undeclared_ptp { container = id; table; index = idx; level = clvl; child })
            else begin
              (match Hw.Phys_mem.owner mem child with
              | Hw.Phys_mem.Ksm k when k = id -> (
                  match Hw.Phys_mem.kind mem child with
                  | Hw.Phys_mem.Page_table l ->
                      if l <> clvl then
                        add
                          (Ptp_level_mismatch
                             { container = id; ptp = child; claimed = l; used_at = clvl })
                  | k ->
                      add
                        (Ptp_kind_mismatch
                           { container = id; ptp = child; kind = Hw.Phys_mem.show_kind k }))
              | Hw.Phys_mem.Container k when k = id -> (
                  match Cki.Ksm.page_state_of ksm child with
                  | Cki.Ksm.Guest_ptp l ->
                      if l <> clvl then
                        add
                          (Ptp_level_mismatch
                             { container = id; ptp = child; claimed = l; used_at = clvl })
                  | Cki.Ksm.Guest_data | Cki.Ksm.Ksm_private ->
                      add
                        (Undeclared_ptp
                           { container = id; table; index = idx; level = clvl; child }))
              | _ ->
                  add (Undeclared_ptp { container = id; table; index = idx; level = clvl; child }));
              (* Descend only through frames whose metadata says they
                 hold a table: reading "entries" of a data frame would
                 fabricate an empty table and hide the corruption. *)
              if is_table child then walk_table ~lvl:clvl ~table:child ~va_base:va
            end
          end
        end
      done
    end
  in

  (* -------------------------------------------------------------- *)
  (* Roots, template splices, per-vCPU copy coherence                *)
  (* -------------------------------------------------------------- *)
  let strip = Hw.Pte.clear_accessed_dirty in
  let tslots = Cki.Ksm.template_slots ksm in
  let pervcpu = Cki.Ksm.pervcpu ksm in
  List.iter
    (fun (root, copies) ->
      walk_table ~lvl:4 ~table:root ~va_base:0;
      List.iter
        (fun slot ->
          if not (Hw.Pte.is_present (read ~pfn:root ~index:slot)) then
            add (Missing_splice { container = id; copy = root; slot }))
        tslots;
      Array.iteri
        (fun v copy ->
          walk_table ~lvl:4 ~table:copy ~va_base:0;
          List.iter
            (fun slot ->
              if not (Int64.equal (strip (read ~pfn:copy ~index:slot)) (strip (read ~pfn:root ~index:slot)))
              then add (Missing_splice { container = id; copy; slot }))
            tslots;
          let expect = Cki.Pervcpu.l4_entry pervcpu v in
          if
            not
              (Int64.equal
                 (strip (read ~pfn:copy ~index:Cki.Layout.l4_pervcpu))
                 (strip expect))
          then add (Missing_splice { container = id; copy; slot = Cki.Layout.l4_pervcpu });
          (* A/D bits propagate from the copies, so compare modulo
             accessed/dirty. *)
          for slot = 0 to Cki.Layout.l4_user_max do
            if
              not
                (Int64.equal (strip (read ~pfn:copy ~index:slot)) (strip (read ~pfn:root ~index:slot)))
            then add (Copy_divergence { container = id; root; copy; slot })
          done)
        copies)
    (Cki.Ksm.roots ksm);

  (* Declared-PTP metadata: the frame tables must agree with the
     monitor's level claims. *)
  List.iter
    (fun (ptp, lvl) ->
      match Hw.Phys_mem.kind mem ptp with
      | Hw.Phys_mem.Page_table l when l = lvl -> ()
      | k -> add (Ptp_kind_mismatch { container = id; ptp; kind = Hw.Phys_mem.show_kind k }))
    (Cki.Ksm.declared_ptps ksm);

  (* -------------------------------------------------------------- *)
  (* TLB coherence: every cached translation of this container's PCID *)
  (* must still be derivable from the vCPU's current root.            *)
  (* -------------------------------------------------------------- *)
  let rewalk ~root va =
    let rec go lvl table =
      if not (is_table table) then None
      else
        let e = read ~pfn:table ~index:(Hw.Addr.index_at_level ~lvl va) in
        if not (Hw.Pte.is_present e) then None
        else if lvl = 1 || (lvl = 2 && Hw.Pte.is_huge e) then Some e
        else go (lvl - 1) (Hw.Pte.pfn e)
    in
    go 4 root
  in
  (* Under PCID, translations cached while a per-vCPU copy was loaded
     legitimately persist after cr3 returns to another root of the
     same container (PKS, not the walk, guards e.g. the per-vCPU
     area).  A cached entry is stale only if NO declared root of the
     container still derives it. *)
  let all_roots =
    List.concat_map (fun (root, copies) -> root :: Array.to_list copies) (Cki.Ksm.roots ksm)
  in
  Array.iter
    (fun (cpu : Hw.Cpu.t) ->
      let candidates =
        if List.mem cpu.Hw.Cpu.cr3 all_roots then all_roots else cpu.Hw.Cpu.cr3 :: all_roots
      in
      Hw.Tlb.fold cpu.Hw.Cpu.tlb
        (fun () ~pcid ~vpn (entry : Hw.Tlb.entry) ->
          if pcid = c.Cki.Container.pcid then
            let stale reason =
              add (Stale_tlb { container = id; cpu = cpu.Hw.Cpu.id; pcid; vpn; reason })
            in
            let verdicts =
              List.map
                (fun root ->
                  match rewalk ~root (Hw.Addr.va_of_vpn vpn) with
                  | None -> Some "no live translation"
                  | Some e ->
                      if Hw.Pte.pfn e <> entry.Hw.Tlb.pfn then Some "maps a different frame"
                      else if entry.Hw.Tlb.flags.Hw.Pte.writable && not (Hw.Pte.is_writable e)
                      then Some "stale write permission"
                      else None)
                candidates
            in
            if not (List.mem None verdicts) then
              stale (Option.value (List.hd verdicts) ~default:"no live translation"))
        ())
    c.Cki.Container.cpus;
  List.rev !out

let check_segments (containers : Cki.Container.t list) : violation list =
  let out = ref [] in
  let add v = out := v :: !out in
  let info =
    List.map (fun c -> (c.Cki.Container.container_id, Cki.Ksm.segments c.Cki.Container.ksm, c)) containers
  in
  (* Delegations can only collide within one physical memory: compare
     only containers hosted on the same machine. *)
  let mem_of (c : Cki.Container.t) = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  let rec pairs = function
    | [] -> ()
    | (ida, segs_a, ca) :: rest ->
        List.iter
          (fun (idb, segs_b, cb) ->
            if mem_of ca == mem_of cb then
              List.iter
                (fun (ba, na) ->
                  List.iter
                    (fun (bb, nb) ->
                      let lo = max ba bb and hi = min (ba + na) (bb + nb) in
                      if lo < hi then
                        add
                          (Segment_overlap
                             { container = ida; other = idb; base = lo; frames = hi - lo }))
                    segs_b)
                segs_a)
          rest;
        pairs rest
  in
  pairs info;
  List.iter
    (fun (id, segs, c) ->
      let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
      List.iter
        (fun (base, n) ->
          for pfn = base to base + n - 1 do
            match Hw.Phys_mem.owner mem pfn with
            | Hw.Phys_mem.Container k when k = id -> ()
            | o -> add (Segment_owner { container = id; pfn; owner = Hw.Phys_mem.show_owner o })
          done)
        segs)
    info;
  List.rev !out

let check_machine ~containers =
  List.concat_map check_container containers @ check_segments containers
