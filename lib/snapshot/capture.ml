(* Capture: walk a quiesced container into an Image.t.

   The walk starts from the monitor's registered roots (kernel root
   first, then aspace roots in id order, each followed by its per-vCPU
   copies) and records every reachable page table in discovery order —
   a canonical order, so re-capturing a restored container yields a
   byte-identical image.  A completeness sweep over the whole frame
   array then proves the image is closed: every frame the container
   owns outside its segments must have been reached. *)

type error =
  | Cow_pending of int  (** task pid with un-broken CoW pages *)
  | Unsupported_fd of { pid : int; fd : int }
  | Device_active of { queue : string; unreclaimed : int }
  | Foreign_frame of Hw.Addr.pfn
  | Unreachable_frame of Hw.Addr.pfn
  | Unregistered_root of Hw.Addr.pfn

let show_error = function
  | Cow_pending pid ->
      Printf.sprintf "task %d has un-broken CoW pages (capture a cold or fully-materialized container)" pid
  | Unsupported_fd { pid; fd } ->
      Printf.sprintf "task %d holds fd %d of an unsupported kind (pipe/socket)" pid fd
  | Device_active { queue; unreclaimed } ->
      Printf.sprintf "virtio queue %s has %d unreclaimed descriptor chains (quiesce I/O before capture)"
        queue unreclaimed
  | Foreign_frame pfn -> Printf.sprintf "page tables reference foreign frame %d" pfn
  | Unreachable_frame pfn -> Printf.sprintf "container-owned frame %d is unreachable from any root" pfn
  | Unregistered_root pfn -> Printf.sprintf "declared root %d is not an aspace or kernel root" pfn

type map = { m_seg_bases : Hw.Addr.pfn array; m_aux : Hw.Addr.pfn array }

exception Fail of error

let id_capture_table = Hw.Clock.intern "snapshot_capture_table"

(* Span of one entry at a level: 4 KiB at L1, 2 MiB at L2, ... *)
let span lvl = 1 lsl (Hw.Addr.page_shift + (9 * (lvl - 1)))

let capture_full (c : Cki.Container.t) : (Image.t * map, error) result =
  let ksm = c.ksm in
  let id = c.container_id in
  let machine = Cki.Host.machine c.host in
  let mem = Hw.Machine.mem machine in
  let clock = Hw.Machine.clock machine in
  let kernel = c.backend.Virt.Backend.kernel in
  let segs = Cki.Ksm.segments ksm in
  let seg_bases = Array.of_list (List.map fst segs) in
  let seg_sizes = Array.of_list (List.map snd segs) in
  let seg_of pfn =
    let found = ref None in
    Array.iteri
      (fun i base -> if pfn >= base && pfn < base + seg_sizes.(i) then found := Some (i, pfn - base))
      seg_bases;
    !found
  in
  (* Auxiliary frames, numbered in first-reference order. *)
  let aux_ids : (Hw.Addr.pfn, int) Hashtbl.t = Hashtbl.create 64 in
  let aux_rev = ref [] in
  let aux_count = ref 0 in
  let register_aux pfn =
    match Hashtbl.find_opt aux_ids pfn with
    | Some i -> i
    | None ->
        let kind =
          match (Hw.Phys_mem.owner mem pfn, Hw.Phys_mem.kind mem pfn) with
          | Hw.Phys_mem.Ksm k, Hw.Phys_mem.Page_table l when k = id -> Image.Pt l
          | Hw.Phys_mem.Ksm k, Hw.Phys_mem.Ksm_code when k = id -> Image.Ksm_code
          | Hw.Phys_mem.Ksm k, Hw.Phys_mem.Ksm_data when k = id -> Image.Ksm_data
          | Hw.Phys_mem.Container k, Hw.Phys_mem.Kernel_code when k = id -> Image.Kernel_code
          | _ -> raise (Fail (Foreign_frame pfn))
        in
        let i = !aux_count in
        incr aux_count;
        Hashtbl.replace aux_ids pfn i;
        aux_rev := (pfn, kind) :: !aux_rev;
        i
  in
  let ref_of pfn =
    match seg_of pfn with
    | Some (seg, off) -> Image.Seg { seg; off }
    | None -> Image.Aux (register_aux pfn)
  in
  (* Table walk. *)
  let visited : (Hw.Addr.pfn, unit) Hashtbl.t = Hashtbl.create 256 in
  let tables_rev = ref [] in
  let rec emit_table lvl pfn va_base =
    if not (Hashtbl.mem visited pfn) then begin
      Hashtbl.replace visited pfn ();
      let frame_ref = ref_of pfn in
      let entries = ref [] in
      let children = ref [] in
      for idx = 0 to Hw.Addr.entries_per_table - 1 do
        (* The direct-map subtree is deliberately not captured: its VA
           layout keys on this machine's physical addresses
           (va = direct_map_base + pa), so Ksm.restore rebuilds it from
           the new segment bases instead of relocating stale keys. *)
        let skip = lvl = Hw.Addr.levels && idx = Cki.Layout.l4_direct in
        let e = Hw.Phys_mem.read_entry mem ~pfn ~index:idx in
        if (not skip) && Hw.Pte.is_present e then begin
          let target = Hw.Pte.pfn e in
          entries :=
            { Image.e_index = idx; e_bits = Image.strip_pfn e; e_target = ref_of target } :: !entries;
          let leaf = lvl = 1 || (lvl = 2 && Hw.Pte.is_huge e) in
          if not leaf then children := (target, va_base + (idx * span lvl)) :: !children
        end
      done;
      Hw.Clock.charge_id clock id_capture_table Hw.Cost.restore_frame;
      tables_rev :=
        { Image.t_frame = frame_ref; t_level = lvl; t_va = va_base; t_entries = List.rev !entries }
        :: !tables_rev;
      List.iter (fun (child, va) -> emit_table (lvl - 1) child va) (List.rev !children)
    end
  in
  let copies_of root =
    match Cki.Ksm.root_copies ksm root with
    | Some a -> a
    | None -> raise (Fail (Unregistered_root root))
  in
  try
    (* Quiescence: no task may still share template frames. *)
    List.iter
      (fun (task : Kernel_model.Task.t) ->
        if Kernel_model.Mm.cow_count task.Kernel_model.Task.mm > 0 then
          raise (Fail (Cow_pending task.Kernel_model.Task.pid)))
      (Kernel_model.Kernel.tasks kernel);
    (* ...and no VirtIO queue may hold in-flight or unreclaimed chains:
       capturing mid-I/O would freeze descriptors the host backend still
       owns. *)
    (match Kernel_model.Kernel.io_unreclaimed kernel with
    | [] -> ()
    | (queue, unreclaimed) :: _ -> raise (Fail (Device_active { queue; unreclaimed })));
    let kroot = Cki.Ksm.kernel_root ksm in
    let aspace_list =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.aspaces [] |> List.sort compare
    in
    (* Seed the walk in canonical order: root, its copies, next root... *)
    let roots =
      List.map
        (fun root ->
          let copies = copies_of root in
          let r = { Image.r_frame = ref_of root; r_copies = Array.map ref_of copies } in
          emit_table Hw.Addr.levels root 0;
          Array.iter (fun copy -> emit_table Hw.Addr.levels copy 0) copies;
          r)
        (kroot :: List.map snd aspace_list)
    in
    (* Every monitor-registered root must have been seeded. *)
    List.iter
      (fun (root, _) -> if not (Hashtbl.mem visited root) then raise (Fail (Unregistered_root root)))
      (Cki.Ksm.roots ksm);
    (* The direct-map interior tables are KSM-owned but excluded from
       the image (restore rebuilds them); exempt them from the closure
       sweep below. *)
    let direct_tables : (Hw.Addr.pfn, unit) Hashtbl.t = Hashtbl.create 64 in
    let rec collect_direct lvl pfn =
      if not (Hashtbl.mem direct_tables pfn) then begin
        Hashtbl.replace direct_tables pfn ();
        if lvl > 1 then
          for idx = 0 to Hw.Addr.entries_per_table - 1 do
            let e = Hw.Phys_mem.read_entry mem ~pfn ~index:idx in
            if Hw.Pte.is_present e then collect_direct (lvl - 1) (Hw.Pte.pfn e)
          done
      end
    in
    let direct_link = Hw.Phys_mem.read_entry mem ~pfn:kroot ~index:Cki.Layout.l4_direct in
    if Hw.Pte.is_present direct_link then collect_direct 3 (Hw.Pte.pfn direct_link);
    (* Completeness: every frame this container owns outside its
       segments must be in the auxiliary table by now. *)
    for pfn = 0 to Hw.Phys_mem.total_frames mem - 1 do
      match Hw.Phys_mem.owner mem pfn with
      | Hw.Phys_mem.Ksm k when k = id ->
          if not (Hashtbl.mem aux_ids pfn || Hashtbl.mem direct_tables pfn) then
            raise (Fail (Unreachable_frame pfn))
      | Hw.Phys_mem.Container k when k = id && not (Cki.Ksm.owns_frame ksm pfn) ->
          if not (Hashtbl.mem aux_ids pfn) then raise (Fail (Unreachable_frame pfn))
      | _ -> ()
    done;
    (* Monitor metadata.  The direct-map template slot is omitted along
       with its subtree. *)
    let ptps =
      Cki.Ksm.declared_ptps ksm |> List.map (fun (pfn, lvl) -> (ref_of pfn, lvl)) |> List.sort compare
    in
    let template =
      Cki.Ksm.template_slots ksm
      |> List.filter (fun slot -> slot <> Cki.Layout.l4_direct)
      |> List.map (fun slot ->
             let e = Hw.Phys_mem.read_entry mem ~pfn:kroot ~index:slot in
             (slot, Image.strip_pfn e, ref_of (Hw.Pte.pfn e)))
    in
    let pervcpu =
      Array.map
        (fun (frames, l3) -> { Image.a_l3 = ref_of l3; a_frames = Array.map ref_of frames })
        (Cki.Pervcpu.export (Cki.Ksm.pervcpu ksm))
    in
    let cpus =
      Array.map
        (fun (cpu : Hw.Cpu.t) ->
          {
            Image.c_kernel = (cpu.Hw.Cpu.mode = Hw.Cpu.Kernel);
            c_pkrs = cpu.Hw.Cpu.pkrs;
            c_if = cpu.Hw.Cpu.if_flag;
            c_gs = cpu.Hw.Cpu.gs_base;
            c_kgs = cpu.Hw.Cpu.kernel_gs_base;
            c_cr3 = ref_of cpu.Hw.Cpu.cr3;
          })
        c.cpus
    in
    (* Guest kernel state.  Buddy blocks are recorded as *linearized*
       offsets — segment sizes summed in order, plus the offset inside
       the owning segment — so a scatter-delegated (multi-zone) buddy
       round-trips without changing the image format: with a single
       segment the linear offset is exactly [pfn - base].  Blocks never
       span zones, so each block lives in exactly one segment. *)
    let seg_starts =
      let acc = Array.make (Array.length seg_sizes) 0 in
      for i = 1 to Array.length seg_sizes - 1 do
        acc.(i) <- acc.(i - 1) + seg_sizes.(i - 1)
      done;
      acc
    in
    let buddy_blocks =
      Kernel_model.Buddy.allocated_blocks c.buddy
      |> List.map (fun (pfn, order) ->
             match seg_of pfn with
             | Some (seg, off) -> (seg_starts.(seg) + off, order)
             | None -> raise (Fail (Foreign_frame pfn)))
    in
    let fs = Kernel_model.Kernel.fs kernel in
    let ino_path : (int, string) Hashtbl.t = Hashtbl.create 64 in
    let dirs_rev = ref [] in
    let files_rev = ref [] in
    let rec walk path inode =
      Hashtbl.replace ino_path (Kernel_model.Tmpfs.ino inode) (if path = "" then "/" else path);
      if Kernel_model.Tmpfs.is_dir inode then begin
        if path <> "" then dirs_rev := path :: !dirs_rev;
        List.iter
          (fun name ->
            let child = path ^ "/" ^ name in
            walk child (Kernel_model.Tmpfs.resolve fs child))
          (List.sort compare (Kernel_model.Tmpfs.readdir inode))
      end
      else
        let n = Kernel_model.Tmpfs.size inode in
        files_rev := (path, Bytes.to_string (Kernel_model.Tmpfs.read fs inode ~off:0 ~n)) :: !files_rev
    in
    walk "" (Kernel_model.Tmpfs.resolve fs "/");
    let tasks =
      List.map
        (fun (task : Kernel_model.Task.t) ->
          let mm = task.Kernel_model.Task.mm in
          let vmas = ref [] in
          Kernel_model.Mm.iter_vmas mm (fun (a : Kernel_model.Vma.area) ->
              vmas :=
                {
                  Image.v_start = a.Kernel_model.Vma.start;
                  v_stop = a.Kernel_model.Vma.stop;
                  v_prot =
                    ( a.Kernel_model.Vma.prot.Kernel_model.Vma.read,
                      a.Kernel_model.Vma.prot.Kernel_model.Vma.write,
                      a.Kernel_model.Vma.prot.Kernel_model.Vma.exec );
                  v_backing = a.Kernel_model.Vma.backing;
                }
                :: !vmas);
          let pages = ref [] in
          Kernel_model.Mm.iter_pages mm (fun vpn pfn -> pages := (vpn, ref_of pfn) :: !pages);
          let fds =
            Hashtbl.fold (fun fd obj acc -> (fd, obj) :: acc) task.Kernel_model.Task.fds []
            |> List.sort compare
            |> List.map (fun (fd, obj) ->
                   match obj with
                   | Kernel_model.Task.File f -> (
                       match Hashtbl.find_opt ino_path (Kernel_model.Tmpfs.ino f.Kernel_model.Task.inode) with
                       | Some path ->
                           { Image.f_fd = fd; f_pos = f.Kernel_model.Task.pos; f_path = path }
                       | None ->
                           raise (Fail (Unsupported_fd { pid = task.Kernel_model.Task.pid; fd })))
                   | Kernel_model.Task.Pipe_read _ | Kernel_model.Task.Pipe_write _
                   | Kernel_model.Task.Socket _ ->
                       raise (Fail (Unsupported_fd { pid = task.Kernel_model.Task.pid; fd })))
          in
          {
            Image.tk_pid = task.Kernel_model.Task.pid;
            tk_parent = task.Kernel_model.Task.parent;
            tk_next_fd = task.Kernel_model.Task.next_fd;
            tk_aspace = Kernel_model.Mm.aspace mm;
            tk_brk = Kernel_model.Mm.brk_now mm;
            tk_cursor = Kernel_model.Mm.mmap_cursor_now mm;
            tk_vmas = List.sort (fun a b -> compare a.Image.v_start b.Image.v_start) !vmas;
            tk_pages = List.sort compare !pages;
            tk_fds = fds;
          })
        (Kernel_model.Kernel.tasks kernel)
    in
    let aux = Array.of_list (List.rev_map snd !aux_rev) in
    let m_aux = Array.of_list (List.rev_map fst !aux_rev) in
    let image =
      {
        Image.cfg = c.cfg;
        segments = seg_sizes;
        aux;
        ptps;
        kernel_root = ref_of kroot;
        template;
        roots;
        tables = List.rev !tables_rev;
        pervcpu;
        cpus;
        next_pid = Kernel_model.Kernel.next_pid kernel;
        next_as = !(c.next_as);
        buddy_blocks = List.sort compare buddy_blocks;
        aspaces = List.map (fun (aid, root) -> (aid, ref_of root)) aspace_list;
        tasks;
        dirs = List.rev !dirs_rev;
        files = List.rev !files_rev;
      }
    in
    Ok (image, { m_seg_bases = seg_bases; m_aux })
  with Fail e -> Error e

let capture c = Result.map fst (capture_full c)
