(* Second-wave tests: edge cases, error paths, property tests, and the
   vCPU scheduler. *)

open Alcotest

let check_int = check int
let check_bool = check bool

(* ------------------------- hw edge cases --------------------------- *)

let test_pte_huge_flag_roundtrip () =
  let e = Hw.Pte.make ~pfn:1024 ~flags:{ Hw.Pte.default_flags with huge = true; pkey = 3 } in
  check_bool "huge" true (Hw.Pte.is_huge e);
  check_int "pkey survives" 3 (Hw.Pte.pkey e);
  let f = Hw.Pte.flags_of e in
  check_bool "flags roundtrip" true f.Hw.Pte.huge

let test_cpu_nx_and_write_violations () =
  let clock = Hw.Clock.create () in
  let cpu = Hw.Cpu.create clock in
  let m = Hw.Phys_mem.create ~frames:2048 in
  let pt = Hw.Page_table.create m ~owner:Hw.Phys_mem.Host in
  ignore
    (Hw.Page_table.map pt ~va:0x1000 ~pfn:1
       ~flags:{ Hw.Pte.default_flags with user = true; nx = true } ());
  ignore
    (Hw.Page_table.map pt ~va:0x2000 ~pfn:2
       ~flags:{ Hw.Pte.default_flags with user = true; writable = false } ());
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  (match Hw.Cpu.access cpu pt ~va:0x1000 ~access_kind:Hw.Pks.Read ~exec:true () with
  | Error (Hw.Cpu.Nx_violation _) -> ()
  | _ -> fail "expected NX violation");
  (match Hw.Cpu.access cpu pt ~va:0x2000 ~access_kind:Hw.Pks.Write () with
  | Error (Hw.Cpu.Write_violation _) -> ()
  | _ -> fail "expected write violation");
  match Hw.Cpu.access cpu pt ~va:0x2000 ~access_kind:Hw.Pks.Read () with
  | Ok _ -> ()
  | Error e -> fail (Hw.Cpu.show_fault e)

let test_cpu_pkru_governs_user_pages () =
  let clock = Hw.Clock.create () in
  let cpu = Hw.Cpu.create clock in
  let m = Hw.Phys_mem.create ~frames:2048 in
  let pt = Hw.Page_table.create m ~owner:Hw.Phys_mem.Host in
  ignore
    (Hw.Page_table.map pt ~va:0x3000 ~pfn:3
       ~flags:{ Hw.Pte.default_flags with user = true; pkey = 5 } ());
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  cpu.Hw.Cpu.pkru <- Hw.Pks.make [ (5, Hw.Pks.No_access) ];
  (match Hw.Cpu.access cpu pt ~va:0x3000 ~access_kind:Hw.Pks.Read () with
  | Error (Hw.Cpu.Pks_violation { key = 5; _ }) -> ()
  | _ -> fail "PKRU must govern user pages");
  (* PKRS does not apply to user pages *)
  cpu.Hw.Cpu.pkru <- Hw.Pks.all_access;
  cpu.Hw.Cpu.pkrs <- Hw.Pks.make [ (5, Hw.Pks.No_access) ];
  match Hw.Cpu.access cpu pt ~va:0x3000 ~access_kind:Hw.Pks.Read () with
  | Ok _ -> ()
  | Error e -> fail (Hw.Cpu.show_fault e)

let test_nested_interrupts_pkrs_stack () =
  let cpu = Hw.Cpu.create (Hw.Clock.create ()) in
  cpu.Hw.Cpu.pkrs <- Hw.Pks.pkrs_guest;
  Hw.Cpu.hw_interrupt_entry cpu ~pks_switch:true;
  (* nested interrupt while handling the first *)
  Hw.Cpu.hw_interrupt_entry cpu ~pks_switch:true;
  check_int "two saved" 2 (List.length cpu.Hw.Cpu.saved_pkrs);
  Hw.Cpu.exec_priv_exn cpu Hw.Priv.Iret;
  check_int "inner restores to 0" Hw.Pks.all_access cpu.Hw.Cpu.pkrs;
  Hw.Cpu.exec_priv_exn cpu Hw.Priv.Iret;
  check_int "outer restores guest" Hw.Pks.pkrs_guest cpu.Hw.Cpu.pkrs

let prop_tlb_never_exceeds_capacity =
  QCheck.Test.make ~name:"tlb stays within capacity" ~count:50
    QCheck.(small_list (pair (int_bound 3) (int_bound 500)))
    (fun ops ->
      let t = Hw.Tlb.create ~capacity:16 () in
      List.iter
        (fun (pcid, vpn) ->
          Hw.Tlb.insert t ~pcid ~va:(vpn * 4096)
            { Hw.Tlb.pfn = vpn; flags = Hw.Pte.default_flags; level = 1 })
        ops;
      Hw.Tlb.size t <= 16)

let prop_index_at_level_reconstructs =
  QCheck.Test.make ~name:"page-table indices reconstruct the vpn" ~count:300
    QCheck.(int_bound ((1 lsl 36) - 1))
    (fun vpn ->
      let va = vpn * 4096 in
      let i4 = Hw.Addr.index_at_level ~lvl:4 va in
      let i3 = Hw.Addr.index_at_level ~lvl:3 va in
      let i2 = Hw.Addr.index_at_level ~lvl:2 va in
      let i1 = Hw.Addr.index_at_level ~lvl:1 va in
      (((((i4 * 512) + i3) * 512) + i2) * 512) + i1 = vpn)

(* ---------------------- kernel error paths ------------------------- *)

let mk_kernel () =
  Kernel_model.Kernel.create (Kernel_model.Platform.bare (Hw.Machine.create ~mem_mib:64 ()))

let test_syscall_error_paths () =
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  let expect_err name sc =
    match Kernel_model.Kernel.syscall k t sc with
    | Kernel_model.Syscall.Rerr _ -> ()
    | _ -> fail (name ^ ": expected error")
  in
  expect_err "read bad fd" (Kernel_model.Syscall.Read { fd = 99; n = 1 });
  expect_err "write bad fd" (Kernel_model.Syscall.Write { fd = 99; data = Bytes.empty });
  expect_err "open missing" (Kernel_model.Syscall.Open { path = "/missing"; create = false });
  expect_err "stat missing" (Kernel_model.Syscall.Stat "/missing");
  expect_err "unlink missing" (Kernel_model.Syscall.Unlink "/missing");
  expect_err "fstat bad fd" (Kernel_model.Syscall.Fstat 99);
  expect_err "lseek bad fd" (Kernel_model.Syscall.Lseek { fd = 99; pos = 0 });
  (* mkdir twice *)
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Mkdir "/d"));
  expect_err "mkdir exists" (Kernel_model.Syscall.Mkdir "/d")

let test_read_write_positions () =
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  let fd =
    match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Open { path = "/f"; create = true }) with
    | Kernel_model.Syscall.Rint fd -> fd
    | _ -> fail "open"
  in
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Write { fd; data = Bytes.of_string "abcdef" }));
  (* position advanced: read at EOF is empty *)
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Read { fd; n = 3 }) with
  | Kernel_model.Syscall.Rbytes b -> check_int "eof" 0 (Bytes.length b)
  | _ -> fail "read");
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Lseek { fd; pos = 2 }));
  match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Read { fd; n = 2 }) with
  | Kernel_model.Syscall.Rbytes b -> check_bool "mid read" true (Bytes.to_string b = "cd")
  | _ -> fail "read"

let test_vfs_lookup_cost_per_component () =
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  let clock = Kernel_model.Kernel.clock k in
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Mkdir "/a"));
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Mkdir "/a/b"));
  let before = Hw.Clock.occurrences clock "vfs_lookup" in
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Mkdir "/a/b/c"));
  (* resolving "/a/b" for the parent = 2 components *)
  check_int "2 lookups" (before + 2) (Hw.Clock.occurrences clock "vfs_lookup")

let prop_vma_no_overlap_after_ops =
  QCheck.Test.make ~name:"vma areas never overlap" ~count:60
    QCheck.(small_list (pair (int_bound 60) (pair (int_range 1 8) (int_bound 2))))
    (fun ops ->
      let v = Kernel_model.Vma.create () in
      List.iter
        (fun (slot, (pages, kind)) ->
          let start = 0x100000 + (slot * 16 * 4096) in
          let stop = start + (pages * 4096) in
          match kind with
          | 0 -> (
              try ignore (Kernel_model.Vma.add v ~start ~stop ~prot:Kernel_model.Vma.prot_rw ~backing:Kernel_model.Vma.Anon)
              with Kernel_model.Vma.Overlap -> ())
          | 1 -> ignore (Kernel_model.Vma.remove v ~start ~stop)
          | _ -> ignore (Kernel_model.Vma.protect v ~start ~stop ~prot:Kernel_model.Vma.prot_ro))
        ops;
      (* collect and check pairwise disjointness *)
      let areas = ref [] in
      Kernel_model.Vma.iter v (fun a -> areas := (a.Kernel_model.Vma.start, a.Kernel_model.Vma.stop) :: !areas);
      let sorted = List.sort compare !areas in
      let rec ok = function
        | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && ok rest
        | [ _ ] | [] -> true
      in
      ok sorted)

(* ------------------------ cki depth -------------------------------- *)

let test_config_labels () =
  check (string) "default" "CKI" (Cki.Config.label Cki.Config.default);
  check (string) "wo2" "CKI-wo-OPT2" (Cki.Config.label Cki.Config.wo_opt2);
  check (string) "wo3" "CKI-wo-OPT3" (Cki.Config.label Cki.Config.wo_opt3);
  check (string) "pku" "Design-PKU" (Cki.Config.label Cki.Config.pku_design);
  check (string) "2M" "CKI-2M" (Cki.Config.label { Cki.Config.default with Cki.Config.hugepages = true })

let test_layout_regions_disjoint () =
  let l4s = [ Cki.Layout.l4_direct; Cki.Layout.l4_kernel_image; Cki.Layout.l4_ksm; Cki.Layout.l4_pervcpu ] in
  check_int "distinct L4 slots" 4 (List.length (List.sort_uniq compare l4s));
  check_bool "above user space" true (List.for_all (fun i -> i > Cki.Layout.l4_user_max) l4s);
  check_int "direct map roundtrip" 0x1234000
    (Cki.Layout.pa_of_direct_va (Cki.Layout.direct_va_of_pa 0x1234000));
  check_bool "classifiers" true
    (Cki.Layout.in_user 0x1000
    && Cki.Layout.in_direct_map (Cki.Layout.direct_va_of_pa 0)
    && Cki.Layout.in_ksm Cki.Layout.ksm_base
    && Cki.Layout.in_pervcpu Cki.Layout.pervcpu_base)

let test_ksm_read_top_pte_unknown_root () =
  let c = Cki.Container.create_standalone ~mem_mib:128 () in
  let ksm = Cki.Container.ksm c in
  match Cki.Ksm.read_top_pte ksm ~root:12345 ~idx:0 with
  | Error (Cki.Ksm.Undeclared_root _) -> ()
  | _ -> fail "unknown root must be rejected"

let test_gates_reject_user_mode () =
  let c = Cki.Container.create_standalone ~mem_mib:128 () in
  let cpu = Cki.Container.cpu c 0 in
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  (match Cki.Gates.ksm_call (Cki.Container.gates c) cpu ~vcpu:0 (fun () -> ()) with
  | Error Cki.Gates.Not_kernel_mode -> ()
  | _ -> fail "user-mode KSM call must fail");
  match
    Cki.Gates.hypercall (Cki.Container.gates c) cpu ~vcpu:0 ~request:Kernel_model.Platform.Timer
      (fun _ -> ())
  with
  | Error Cki.Gates.Not_kernel_mode -> ()
  | _ -> fail "user-mode hypercall must fail"

let test_emulate_pvm_syscall_config () =
  let cfg = { Cki.Config.default with Cki.Config.emulate_pvm_syscall = true } in
  let b = Cki.Container.backend (Cki.Container.create_standalone ~cfg ~mem_mib:128 ()) in
  let task = Virt.Backend.spawn b in
  let l =
    Virt.Backend.mean_latency b ~n:100 (fun () ->
        ignore (Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid))
  in
  (* 90 + 2x49 + 2x74 = 336: exactly PVM's syscall latency *)
  check_bool "emulated PVM syscall = 336ns" true (Float.abs (l -. 336.0) < 2.0)

(* ------------------------- vCPU scheduler -------------------------- *)

let test_vcpu_sched_fair_progress () =
  let machine = Hw.Machine.create ~cpus:4 ~mem_mib:256 () in
  let host = Cki.Host.create machine in
  let cfg = { Cki.Config.default with Cki.Config.segment_frames = 2048; vcpus = 1 } in
  let a = Cki.Container.create ~cfg host in
  let b = Cki.Container.create ~cfg host in
  let sched = Cki.Vcpu_sched.create ~slice_ns:100_000.0 host in
  let ea = Cki.Vcpu_sched.add_vcpu sched a ~vcpu:0 in
  let eb = Cki.Vcpu_sched.add_vcpu sched b ~vcpu:0 in
  for _ = 1 to 50 do
    Cki.Vcpu_sched.submit_work ea (fun () -> ());
    Cki.Vcpu_sched.submit_work eb (fun () -> ())
  done;
  Cki.Vcpu_sched.run sched ~slices:10;
  check_int "A got 5 slices" 5 ea.Cki.Vcpu_sched.slices;
  check_int "B got 5 slices" 5 eb.Cki.Vcpu_sched.slices;
  check_int "10 preemptions" 10 (Cki.Vcpu_sched.preemptions sched)

let test_vcpu_sched_spinner_contained () =
  let machine = Hw.Machine.create ~cpus:4 ~mem_mib:256 () in
  let host = Cki.Host.create machine in
  let cfg = { Cki.Config.default with Cki.Config.segment_frames = 2048; vcpus = 1 } in
  let attacker = Cki.Container.create ~cfg host in
  let victim = Cki.Container.create ~cfg host in
  let sched = Cki.Vcpu_sched.create host in
  let ea = Cki.Vcpu_sched.add_vcpu sched attacker ~vcpu:0 in
  let ev = Cki.Vcpu_sched.add_vcpu sched victim ~vcpu:0 in
  Cki.Vcpu_sched.mark_spinning ea;
  for _ = 1 to 20 do
    Cki.Vcpu_sched.submit_work ev (fun () -> ())
  done;
  Cki.Vcpu_sched.run sched ~slices:8;
  (* Despite the attacker deadlooping, the victim ran its work. *)
  check_int "victim executed all work" 20 ev.Cki.Vcpu_sched.executed;
  check_int "attacker preempted every slice" 4 ea.Cki.Vcpu_sched.slices;
  check_bool "timer got through the spinner" true (Cki.Vcpu_sched.preemptions sched = 8)

(* ------------------------- workloads depth ------------------------- *)

let runc () = Virt.Runc.create (Hw.Machine.create ~mem_mib:128 ())

let test_xsbench_phase_structure () =
  (* more particles -> more compute, identical faults *)
  let b1 = runc () in
  let t1 = Workloads.Xsbench.run b1 ~gridpoints:20_000 ~particles:100 in
  let b2 = runc () in
  let t2 = Workloads.Xsbench.run b2 ~gridpoints:20_000 ~particles:10_000 in
  check_bool "calc phase grows" true (t2 > t1 *. 2.0)

let test_sqlite_overwrite_needs_prefill () =
  let r = Workloads.Sqlite.run_pattern (runc ()) Workloads.Sqlite.Overwritebatch ~ops:300 in
  check_bool "overwrite runs" true (r.Workloads.Sqlite.ops_per_sec > 0.0)

let test_netperf_tx_faster_than_rr () =
  let btx = runc () in
  let tx = Workloads.Netperf.run_tx btx ~sends:300 in
  check_bool "tx positive" true (tx > 0.0);
  let brr = runc () in
  let rr = Workloads.Netperf.run_rr brr ~transactions:300 in
  check_bool "rr positive" true (rr > 0.0)

let test_webserver_httpd_heavier_than_nginx () =
  let t_nginx = Workloads.Webserver.run (runc ()) Workloads.Webserver.Nginx_static ~requests:200 in
  let t_httpd = Workloads.Webserver.run (runc ()) Workloads.Webserver.Httpd ~requests:200 in
  check_bool "httpd slower" true (t_httpd < t_nginx)

let test_kv_redis_slower_per_request_than_memcached () =
  let m = Workloads.Kv.run_memtier (runc ()) ~flavor:Workloads.Kv.Memcached ~clients:32 ~requests:300 in
  let r = Workloads.Kv.run_memtier (runc ()) ~flavor:Workloads.Kv.Redis ~clients:32 ~requests:300 in
  check_bool "memcached scales past redis" true (m > r)

let prop_arena_faults_match_bytes =
  QCheck.Test.make ~name:"arena: faults = ceil(bytes/page)" ~count:20
    QCheck.(int_range 1 200)
    (fun allocs ->
      let b = runc () in
      let task = Virt.Backend.spawn b in
      let arena = Workloads.Profile.Arena.create b task in
      let f0 = Kernel_model.Mm.fault_count task.Kernel_model.Task.mm in
      for _ = 1 to allocs do
        Workloads.Profile.Arena.alloc arena 1000
      done;
      let faults = Kernel_model.Mm.fault_count task.Kernel_model.Task.mm - f0 in
      faults = (allocs * 1000 + 4095) / 4096)

let suite =
  [
    ( "depth/hw",
      [
        test_case "pte huge roundtrip" `Quick test_pte_huge_flag_roundtrip;
        test_case "nx + write violations" `Quick test_cpu_nx_and_write_violations;
        test_case "PKRU governs user pages" `Quick test_cpu_pkru_governs_user_pages;
        test_case "nested interrupts: PKRS stack" `Quick test_nested_interrupts_pkrs_stack;
        QCheck_alcotest.to_alcotest prop_tlb_never_exceeds_capacity;
        QCheck_alcotest.to_alcotest prop_index_at_level_reconstructs;
      ] );
    ( "depth/kernel",
      [
        test_case "syscall error paths" `Quick test_syscall_error_paths;
        test_case "file positions" `Quick test_read_write_positions;
        test_case "vfs lookup cost per component" `Quick test_vfs_lookup_cost_per_component;
        QCheck_alcotest.to_alcotest prop_vma_no_overlap_after_ops;
      ] );
    ( "depth/cki",
      [
        test_case "config labels" `Quick test_config_labels;
        test_case "layout regions disjoint" `Quick test_layout_regions_disjoint;
        test_case "read_top_pte unknown root" `Quick test_ksm_read_top_pte_unknown_root;
        test_case "gates reject user mode" `Quick test_gates_reject_user_mode;
        test_case "emulate-PVM-syscall config = 336ns" `Quick test_emulate_pvm_syscall_config;
      ] );
    ( "depth/vcpu_sched",
      [
        test_case "fair round-robin progress" `Quick test_vcpu_sched_fair_progress;
        test_case "spinner contained (S9)" `Quick test_vcpu_sched_spinner_contained;
      ] );
    ( "depth/workloads",
      [
        test_case "xsbench phase structure" `Quick test_xsbench_phase_structure;
        test_case "sqlite overwrite prefill" `Quick test_sqlite_overwrite_needs_prefill;
        test_case "netperf tx + rr" `Quick test_netperf_tx_faster_than_rr;
        test_case "httpd heavier than nginx" `Quick test_webserver_httpd_heavier_than_nginx;
        test_case "redis vs memcached scaling" `Quick test_kv_redis_slower_per_request_than_memcached;
        QCheck_alcotest.to_alcotest prop_arena_faults_match_bytes;
      ] );
  ]
