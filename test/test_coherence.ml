(* TLB coherence owned by Mm: every PTE the guest memory manager
   removes, write-protects or retargets is flushed from vCPU 0's TLB
   before its frame can be reused.

   Two attacks on a stale translation, the template freeze, and a churn
   property that runs the invariant scanner after every mm operation. *)

open Alcotest

let cfg = { Cki.Config.default with Cki.Config.segment_frames = 4096 }
let page = Hw.Addr.page_size

let boot () =
  let c = Cki.Container.create ~cfg (Cki.Host.create (Hw.Machine.create ~mem_mib:64 ())) in
  (c, Virt.Backend.spawn (Cki.Container.backend c))

let mmap c task pages =
  match
    Virt.Backend.syscall_exn (Cki.Container.backend c) task
      (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw })
  with
  | Kernel_model.Syscall.Rint va -> va
  | _ -> fail "mmap"

let frame_of (task : Kernel_model.Task.t) va =
  let vpn = Hw.Addr.vpn_of_va va in
  let pfn = ref (-1) in
  Kernel_model.Mm.iter_pages task.Kernel_model.Task.mm (fun v p -> if v = vpn then pfn := p);
  !pfn

(* A freshly mapped and written page: its address and frame. *)
let resident c (task : Kernel_model.Task.t) =
  let va = mmap c task 1 in
  Kernel_model.Mm.touch task.Kernel_model.Task.mm va ~write:true;
  (va, frame_of task va)

(* A user-mode read of [va] on vCPU 0 through [task]'s page table. *)
let read c (task : Kernel_model.Task.t) va =
  let cpu = Cki.Container.cpu c 0 in
  let aspace = Kernel_model.Mm.aspace task.Kernel_model.Task.mm in
  let root = Hashtbl.find c.Cki.Container.aspaces aspace in
  let pt = Hw.Page_table.of_root (Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host)) root in
  Hw.Cpu.enter_user cpu;
  let r = Hw.Cpu.access cpu pt ~va ~access_kind:Hw.Pks.Read () in
  cpu.Hw.Cpu.mode <- Hw.Cpu.Kernel;
  r

let reaches c task va pfn =
  match read c task va with Ok pa -> Hw.Addr.pfn_of_pa pa = pfn | Error _ -> false

let stale_tlb c =
  List.filter
    (fun v -> Analysis.Invariants.rule_name v = "stale-tlb")
    (Analysis.check_machine ~containers:[ c ])

let no_stale what c = check int what 0 (List.length (stale_tlb c))

(* Read through a translation cached before munmap, after the buddy
   has handed the frame to another mapping. *)
let test_read_after_munmap_and_reuse () =
  let c, task = boot () in
  let va, old = resident c task in
  check bool "first read reaches the page" true (reaches c task va old);
  ignore
    (Virt.Backend.syscall_exn (Cki.Container.backend c) task
       (Kernel_model.Syscall.Munmap { addr = va; pages = 1 }));
  check int "the buddy reallocated the frame" old (snd (resident c task));
  check bool "the unmapped address no longer reaches it" false (reaches c task va old);
  no_stale "no stale translation" c

(* Read, from a live task, an address an exited task had mapped: all
   tasks of a container share one PCID. *)
let test_read_after_exit () =
  let c, task = boot () in
  let b = Cki.Container.backend c in
  let va, old = resident c task in
  check bool "first read reaches the page" true (reaches c task va old);
  let other = Virt.Backend.spawn b in
  ignore (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Exit 0));
  check int "same address in the other task" va (mmap c other 1);
  check bool "the exited task's frame is unreachable" false (reaches c other va old);
  no_stale "no stale translation" c

(* Template.freeze write-protects every resident page through the KSM
   and flushes it: a writable translation cached before the freeze must
   not survive it. *)
let test_freeze_flushes () =
  let c, task = boot () in
  let va, pfn = resident c task in
  check bool "read caches the page" true (reaches c task va pfn);
  (match Snapshot.Template.create c with
  | Ok _ -> ()
  | Error e -> fail (Snapshot.Template.show_error e));
  no_stale "no stale write permission" c

(* Churn on a warm clone: its first region is CoW over the template's
   frames.  Ops: 0 mmap, 1 touch, 2 vCPU read, 3 munmap, 4 mprotect
   read-only, 5 CoW write, 6 a dirty-tracking round. *)
let churn ops =
  let c, task = boot () in
  let heap = mmap c task 8 in
  ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:heap ~pages:8 ~write:true);
  let ok = function Ok v -> v | Error e -> fail (Snapshot.Template.show_error e) in
  let k = ok (Snapshot.Template.clone (ok (Snapshot.Template.create c))) in
  let b = Cki.Container.backend k in
  let task = List.hd (Kernel_model.Kernel.tasks b.Virt.Backend.kernel) in
  let mm = task.Kernel_model.Task.mm in
  let regions = ref [ heap ] in
  let pick i = List.nth !regions (i mod List.length !regions) in
  let touch va ~write =
    try Kernel_model.Mm.touch mm va ~write with Kernel_model.Mm.Segfault _ -> ()
  in
  List.for_all
    (fun (op, i, p) ->
      let va = pick i + (p mod 8 * page) in
      (match op with
      | 0 ->
          let prot = Kernel_model.Vma.prot_rw and backing = Kernel_model.Vma.Anon in
          regions := !regions @ [ Kernel_model.Mm.mmap mm ~pages:8 ~prot ~backing ]
      | 1 -> touch va ~write:(p land 1 = 0)
      | 2 -> ignore (read k task va)
      | 3 when List.length !regions > 1 ->
          let r = pick i in
          Kernel_model.Mm.munmap mm ~start:r ~pages:8;
          regions := List.filter (( <> ) r) !regions
      | 3 -> ()
      | 4 -> Kernel_model.Mm.mprotect mm ~start:(pick i) ~pages:8 ~prot:Kernel_model.Vma.prot_ro
      | 5 -> touch (heap + (p mod 8 * page)) ~write:true
      | _ when Kernel_model.Mm.tracking mm -> ignore (Kernel_model.Mm.dirty_track_round mm)
      | _ -> ignore (Kernel_model.Mm.dirty_track_start mm));
      stale_tlb k = [])
    ops

let prop_churn_stays_coherent =
  QCheck.Test.make ~name:"mm churn leaves no stale translation" ~count:50
    QCheck.(small_list (triple (int_bound 6) (int_bound 7) (int_bound 7)))
    churn

let suite =
  [
    ( "coherence",
      [
        test_case "read after munmap and reallocation" `Quick test_read_after_munmap_and_reuse;
        test_case "read after task exit" `Quick test_read_after_exit;
        test_case "template freeze flushes" `Quick test_freeze_flushes;
        QCheck_alcotest.to_alcotest prop_churn_stays_coherent;
      ] );
  ]
