(* Per-vCPU areas and their page-table subtrees.

   Each vCPU owns a small KSM-private area (secure stack + saved vCPU
   context + exit-reason mailbox).  Every per-vCPU page-table copy maps
   *its* vCPU's area at the constant virtual address
   [Layout.pervcpu_base], so gate code locates it without trusting the
   guest-controlled kernel_gs register (Figure 8c). *)

type area = {
  vcpu : int;
  frames : Hw.Addr.pfn array;  (** physical frames of this vCPU's area *)
  l3_root : Hw.Addr.pfn;  (** subtree to splice into L4 copies *)
  mutable saved_guest_context : int;  (** opaque register-file stamp *)
  mutable saved_host_context : int;
  mutable exit_reason : exit_reason option;
  mutable stack_depth : int;  (** secure-stack usage, for overflow checks *)
}

and exit_reason =
  | Exit_hypercall of Kernel_model.Platform.io_kind
  | Exit_interrupt of int
  | Exit_fault of string

type t = { areas : area array }

(* Build per-vCPU subtrees.  Frames come from KSM-owned memory; the
   subtree maps the area at [Layout.pervcpu_base] with pkey_ksm, so a
   guest kernel (PKRS = pkrs_guest) can never read or write it. *)
let create mem ~container_id ~vcpus =
  let alloc_ksm kind = Hw.Phys_mem.alloc mem ~owner:(Hw.Phys_mem.Ksm container_id) ~kind in
  let make_area vcpu =
    let frames =
      Array.init Layout.pervcpu_pages (fun _ -> alloc_ksm Hw.Phys_mem.Ksm_data)
    in
    (* Build l3 -> l2 -> l1 chain covering the area. *)
    let l3 = alloc_ksm (Hw.Phys_mem.Page_table 3) in
    let l2 = alloc_ksm (Hw.Phys_mem.Page_table 2) in
    let l1 = alloc_ksm (Hw.Phys_mem.Page_table 1) in
    let link ~pfn ~index ~target =
      Hw.Phys_mem.write_entry mem ~pfn ~index
        (Hw.Pte.make ~pfn:target ~flags:{ Hw.Pte.default_flags with writable = true })
    in
    let base = Layout.pervcpu_base in
    link ~pfn:l3 ~index:(Hw.Addr.index_at_level ~lvl:3 base) ~target:l2;
    link ~pfn:l2 ~index:(Hw.Addr.index_at_level ~lvl:2 base) ~target:l1;
    Array.iteri
      (fun i frame ->
        let va = base + (i * Hw.Addr.page_size) in
        Hw.Phys_mem.write_entry mem ~pfn:l1 ~index:(Hw.Addr.index_at_level ~lvl:1 va)
          (Hw.Pte.make ~pfn:frame
             ~flags:{ Hw.Pte.default_flags with writable = true; pkey = Hw.Pks.pkey_ksm }))
      frames;
    {
      vcpu;
      frames;
      l3_root = l3;
      saved_guest_context = 0;
      saved_host_context = 0;
      exit_reason = None;
      stack_depth = 0;
    }
  in
  { areas = Array.init vcpus make_area }

(* Snapshot support: the physical layout of each area (frames + l3
   subtree root), in vCPU order.  Transient gate state (saved contexts,
   exit reason, stack depth) is deliberately excluded — a captured
   container is quiesced, so restore re-zeroes it. *)
let export t = Array.map (fun a -> (Array.copy a.frames, a.l3_root)) t.areas

(* Rebuild a [t] from already-allocated frames.  The l3/l2/l1 table
   *contents* are restored separately by the snapshot's generic table
   import; this only reconstructs the descriptor records. *)
let import specs =
  {
    areas =
      Array.mapi
        (fun vcpu (frames, l3_root) ->
          {
            vcpu;
            frames = Array.copy frames;
            l3_root;
            saved_guest_context = 0;
            saved_host_context = 0;
            exit_reason = None;
            stack_depth = 0;
          })
        specs;
  }

let vcpus t = Array.length t.areas

let area t vcpu =
  if vcpu < 0 || vcpu >= Array.length t.areas then invalid_arg "Pervcpu.area";
  t.areas.(vcpu)

(* The L4 entry value splicing [vcpu]'s subtree into a top-level copy. *)
let l4_entry t vcpu =
  Hw.Pte.make ~pfn:(area t vcpu).l3_root ~flags:{ Hw.Pte.default_flags with writable = true }

(* Gate-side access check: touching the area at the constant VA must be
   performed with PKRS = 0.  Returns false (forgery detected / fault)
   when the executing context still holds guest rights — this is what
   defeats a guest jumping into the middle of an interrupt gate. *)
let accessible_with ~pkrs = Hw.Pks.allows pkrs ~key:Hw.Pks.pkey_ksm Hw.Pks.Write

let push_stack a =
  a.stack_depth <- a.stack_depth + 1;
  if a.stack_depth > 64 then failwith "Pervcpu: secure stack overflow"

let pop_stack a =
  if a.stack_depth <= 0 then failwith "Pervcpu: secure stack underflow";
  a.stack_depth <- a.stack_depth - 1
