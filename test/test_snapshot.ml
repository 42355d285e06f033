(* The snapshot/restore/warm-clone subsystem.

   The anchor test is determinism: capture -> restore -> capture must
   be byte-identical even though every frame moved.  Around it: CoW
   divergence on clones, cross-machine relocation, corrupted-image
   rejection, the Cow_writable invariant rule, warm-pool accounting,
   Buddy.reserve, and the ISSUE's acceptance ratios. *)

open Alcotest

let cfg = { Cki.Config.default with Cki.Config.segment_frames = 8192 (* 32 MiB *) }

let mk_host ?(mem_mib = 256) () = Cki.Host.create (Hw.Machine.create ~mem_mib ())

(* Boot a container with real state: a task with dirty heap pages and
   a tmpfs config file held open. *)
let boot_ready ?(pages = 64) host =
  let c = Cki.Container.create ~cfg host in
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  (match
     Virt.Backend.syscall_exn b task
       (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw })
   with
  | Kernel_model.Syscall.Rint base ->
      ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages ~write:true)
  | _ -> fail "mmap");
  (match
     Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/app.conf"; create = true })
   with
  | Kernel_model.Syscall.Rint fd ->
      ignore
        (Virt.Backend.syscall_exn b task
           (Kernel_model.Syscall.Write { fd; data = Bytes.of_string "threads=4\ncache=64M\n" }))
  | _ -> fail "open");
  c

let capture_exn c =
  match Snapshot.Capture.capture c with
  | Ok image -> image
  | Error e -> fail ("capture: " ^ Snapshot.Capture.show_error e)

let restore_exn host image =
  match Snapshot.Restore.restore host image with
  | Ok c -> c
  | Error e -> fail ("restore: " ^ Snapshot.Restore.show_error e)

let template_exn c =
  match Snapshot.Template.create c with
  | Ok t -> t
  | Error e -> fail ("template: " ^ Snapshot.Template.show_error e)

let clone_exn tpl =
  match Snapshot.Template.clone tpl with
  | Ok c -> c
  | Error e -> fail ("clone: " ^ Snapshot.Template.show_error e)

let first_task (c : Cki.Container.t) =
  match Kernel_model.Kernel.tasks c.Cki.Container.backend.Virt.Backend.kernel with
  | t :: _ -> t
  | [] -> fail "no tasks"

(* ------------------------------------------------------------------ *)

(* capture∘restore∘capture is byte-identical: every frame relocated,
   nothing else changed. *)
let test_roundtrip_byte_identical () =
  let host = mk_host () in
  let c0 = boot_ready host in
  let img0 = capture_exn c0 in
  let enc0 = Snapshot.Image.encode img0 in
  (match Snapshot.Image.decode enc0 with
  | Ok img -> check string "decode∘encode is the identity" enc0 (Snapshot.Image.encode img)
  | Error e -> fail (Snapshot.Image.show_decode_error e));
  let c1 = restore_exn host img0 in
  (* Different segment: the restore really relocated. *)
  check bool "restored into a different segment" false
    (Cki.Ksm.segments (Cki.Container.ksm c0) = Cki.Ksm.segments (Cki.Container.ksm c1));
  let enc1 = Snapshot.Image.encode (capture_exn c1) in
  check string "re-capture after restore is byte-identical" enc0 enc1

(* Clone-then-write: CoW pages diverge one at a time; the template is
   untouched; both stay clean under the scanner. *)
let test_clone_cow_divergence () =
  let host = mk_host () in
  let c0 = boot_ready host in
  let mem = Hw.Machine.mem (Cki.Host.machine host) in
  let tpl = template_exn c0 in
  let clone = clone_exn tpl in
  let mm = (first_task clone).Kernel_model.Task.mm in
  let tpl_mm = (first_task (Snapshot.Template.container tpl)).Kernel_model.Task.mm in
  let cow0 = Kernel_model.Mm.cow_count mm in
  check bool "clone starts with CoW pages" true (cow0 = 64);
  check int "resident pages all CoW-shared" (Kernel_model.Mm.resident_pages mm) cow0;
  (* Capturing a clone with pending CoW is refused. *)
  (match Snapshot.Capture.capture clone with
  | Error (Snapshot.Capture.Cow_pending _) -> ()
  | Ok _ -> fail "capture of CoW-pending clone must fail"
  | Error e -> fail ("unexpected capture error: " ^ Snapshot.Capture.show_error e));
  let va = Kernel_model.Mm.user_mmap_base in
  let vpn = Hw.Addr.vpn_of_va va in
  check bool "first page is CoW before the write" true (Kernel_model.Mm.is_cow mm vpn);
  let shared_before = ref (-1) in
  Kernel_model.Mm.iter_pages mm (fun v p -> if v = vpn then shared_before := p);
  Kernel_model.Mm.touch mm va ~write:true;
  check int "one CoW page broken" (cow0 - 1) (Kernel_model.Mm.cow_count mm);
  check bool "page no longer CoW" false (Kernel_model.Mm.is_cow mm vpn);
  let own = ref (-1) in
  Kernel_model.Mm.iter_pages mm (fun v p -> if v = vpn then own := p);
  check bool "write materialized a private frame" false (!own = !shared_before);
  check bool "template frame still pinned shared" true (Hw.Phys_mem.is_shared_ro mem !shared_before);
  (* Template's own page table still references its own frame. *)
  let tpl_pfn = ref (-1) in
  Kernel_model.Mm.iter_pages tpl_mm (fun v p -> if v = vpn then tpl_pfn := p);
  check int "template mapping untouched" !shared_before !tpl_pfn;
  check int "clone clean after divergence" 0
    (List.length (Analysis.check_machine ~containers:[ clone ]));
  check int "template clean after divergence" 0
    (List.length (Analysis.check_machine ~containers:[ Snapshot.Template.container tpl ]))

(* Restore onto a different machine whose free memory starts elsewhere:
   every hPA is relocated, state survives. *)
let test_cross_machine_restore () =
  let host1 = mk_host () in
  let c0 = boot_ready host1 in
  let base0 = List.hd (Cki.Ksm.segments (Cki.Container.ksm c0)) |> fst in
  let image = capture_exn c0 in
  let host2 = mk_host ~mem_mib:512 () in
  (* Shift host2's first-fit cursor so the segment cannot land at the
     same base. *)
  ignore
    (Cki.Host.delegate_segment host2 ~container:(Cki.Host.fresh_container_id host2) ~frames:160);
  let c1 = restore_exn host2 image in
  let base1 = List.hd (Cki.Ksm.segments (Cki.Container.ksm c1)) |> fst in
  check bool "segment relocated" false (base0 = base1);
  let task = first_task c1 in
  check int "heap pages resident" 64 (Kernel_model.Mm.resident_pages task.Kernel_model.Task.mm);
  (* File contents and the open descriptor survived. *)
  let fs = Kernel_model.Kernel.fs c1.Cki.Container.backend.Virt.Backend.kernel in
  let inode = Kernel_model.Tmpfs.resolve fs "/app.conf" in
  check string "tmpfs contents survive relocation" "threads=4\ncache=64M\n"
    (Bytes.to_string (Kernel_model.Tmpfs.read fs inode ~off:0 ~n:(Kernel_model.Tmpfs.size inode)));
  (match Kernel_model.Task.fd task 3 with
  | Some (Kernel_model.Task.File f) ->
      check int "fd position survives" (String.length "threads=4\ncache=64M\n")
        f.Kernel_model.Task.pos
  | _ -> fail "captured fd missing");
  (* The restored guest still works: grow the heap through the full
     KSM-mediated fault path. *)
  let grown =
    Kernel_model.Mm.touch_range task.Kernel_model.Task.mm
      ~start:(Kernel_model.Mm.user_mmap_base + (64 * Hw.Addr.page_size))
      ~pages:0 ~write:false
  in
  check int "restored mm usable" 0 grown;
  check int "cross-machine restore clean" 0 (List.length (Analysis.check_machine ~containers:[ c1 ]))

let test_corrupted_image_rejected () =
  let host = mk_host () in
  let image = capture_exn (boot_ready host) in
  let enc = Snapshot.Image.encode image in
  let expect name want s =
    match Snapshot.Image.decode s with
    | Error e ->
        check string name want (Snapshot.Image.show_decode_error e |> String.split_on_char ' ' |> List.hd)
    | Ok _ -> fail (name ^ ": corrupted image accepted")
  in
  (* Flip one payload byte: checksum catches it. *)
  let flipped = Bytes.of_string enc in
  let i = String.length enc - 2 in
  Bytes.set flipped i (if Bytes.get flipped i = '0' then '1' else '0');
  expect "bit flip" "checksum" (Bytes.to_string flipped);
  (* Truncate mid-payload but with a matching checksum: structural
     parse must still refuse. *)
  let lines = String.split_on_char '\n' enc in
  let header = List.filteri (fun i _ -> i < 1) lines in
  let payload = List.filteri (fun i _ -> i >= 2) lines in
  let cut =
    List.filteri (fun i _ -> i < List.length payload / 2) payload |> String.concat "\n"
  in
  let rebuilt =
    String.concat "\n"
      (header @ [ Printf.sprintf "checksum %016Lx" (Snapshot.Image.fnv1a64 cut); cut ])
  in
  expect "truncation" "truncated" rebuilt;
  (* Version skew and bad magic. *)
  let swap_first_line repl =
    match String.index_opt enc '\n' with
    | Some i -> repl ^ String.sub enc i (String.length enc - i)
    | None -> fail "no newline"
  in
  expect "version skew" "unsupported" (swap_first_line "CKI-SNAPSHOT v99");
  expect "bad magic" "bad" (swap_first_line "NOT-A-SNAPSHOT v1");
  (* And the file loader surfaces missing files as Truncated. *)
  match Snapshot.Image.read_file "/nonexistent/image.ckisnap" with
  | Error _ -> ()
  | Ok _ -> fail "read_file of missing path succeeded"

(* Seeded decoder fuzz over the checked-in fixture: payload bit flips,
   digit swaps and truncations, each resealed with a recomputed
   checksum so the structural parser (not just the checksum) sees the
   damage.  Every mutant must come back [Ok] or [Error], never raise. *)
let test_decode_fuzz_never_raises () =
  let enc = In_channel.with_open_bin "fixtures/golden_v2.ckisnap" In_channel.input_all in
  let header, payload =
    match String.split_on_char '\n' enc with
    | magic :: _checksum :: rest -> (magic, String.concat "\n" rest)
    | _ -> fail "fixture has no header"
  in
  let reseal p = Printf.sprintf "%s\nchecksum %016Lx\n%s" header (Snapshot.Image.fnv1a64 p) p in
  check bool "resealed fixture decodes" true
    (Result.is_ok (Snapshot.Image.decode (reseal payload)));
  let rng = Random.State.make [| 16 |] in
  let n = String.length payload in
  let digits =
    List.init n Fun.id
    |> List.filter (fun i -> payload.[i] >= '0' && payload.[i] <= '9')
    |> Array.of_list
  in
  let mutate kind =
    let b = Bytes.of_string payload in
    match kind with
    | `Flip ->
        let i = Random.State.int rng n in
        Bytes.set b i (Char.chr (Char.code payload.[i] lxor (1 lsl Random.State.int rng 8)));
        Bytes.to_string b
    | `Digit ->
        let i = digits.(Random.State.int rng (Array.length digits)) in
        Bytes.set b i (Char.chr (Char.code '0' + Random.State.int rng 10));
        Bytes.to_string b
    | `Truncate -> String.sub payload 0 (Random.State.int rng n)
  in
  let rejected = ref 0 and checksum = ref 0 in
  List.iter
    (fun kind ->
      for _ = 1 to 400 do
        let mutant = reseal (mutate kind) in
        match Snapshot.Image.decode mutant with
        | Ok _ -> ()
        | Error Snapshot.Image.Bad_checksum -> incr checksum
        | Error _ -> incr rejected
        | exception e -> fail ("decode raised " ^ Printexc.to_string e)
      done)
    [ `Flip; `Digit; `Truncate ];
  check int "resealed mutants all pass the checksum" 0 !checksum;
  check bool "the structural parser rejected some" true (!rejected > 0)

(* Fault injection: forge a writable PTE onto a CoW-shared frame behind
   the monitor's back; the scanner must name it. *)
let test_cow_writable_detected () =
  let host = mk_host () in
  let c0 = boot_ready host in
  let mem = Hw.Machine.mem (Cki.Host.machine host) in
  let tpl = template_exn c0 in
  let clone = clone_exn tpl in
  let mm = (first_task clone).Kernel_model.Task.mm in
  let va = Kernel_model.Mm.user_mmap_base in
  let root =
    match Hashtbl.find_opt clone.Cki.Container.aspaces (Kernel_model.Mm.aspace mm) with
    | Some r -> r
    | None -> fail "clone aspace root"
  in
  (* Walk to the leaf by hand and set the write bit raw. *)
  let rec walk pfn lvl =
    let e = Hw.Phys_mem.read_entry mem ~pfn ~index:(Hw.Addr.index_at_level ~lvl va) in
    if lvl = 1 then (pfn, e) else walk (Hw.Pte.pfn e) (lvl - 1)
  in
  let l1, leaf = walk root 4 in
  check bool "leaf is CoW-shared and read-only" false (Hw.Pte.is_writable leaf);
  Hw.Phys_mem.write_entry mem ~pfn:l1 ~index:(Hw.Addr.index_at_level ~lvl:1 va)
    (Hw.Pte.with_writable leaf true);
  let violations = Analysis.check_machine ~containers:[ clone ] in
  check bool "scanner flags the forged writable CoW mapping" true
    (List.exists
       (fun v -> Analysis.Invariants.rule_name v = "cow-writable-leaf")
       violations)

let test_warm_pool_counts () =
  let host = mk_host ~mem_mib:512 () in
  let boots = ref 0 in
  let make () =
    incr boots;
    template_exn (boot_ready host)
  in
  let pool = Snapshot.Pool.create ~target:2 ~make () in
  check int "pool pre-boots to target" 2 (Snapshot.Pool.prebooted pool);
  check int "pool size" 2 (Snapshot.Pool.size pool);
  check int "no clones served yet" 0 (Snapshot.Pool.served pool);
  for _ = 1 to 3 do
    match Snapshot.Pool.spawn_fast pool with
    | Ok _ -> ()
    | Error e -> fail (Snapshot.Template.show_error e)
  done;
  check int "three clones served" 3 (Snapshot.Pool.served pool);
  check int "templates are rotated, not consumed" 2 (Snapshot.Pool.size pool);
  check int "no extra boots beyond the target" 2 !boots

let test_buddy_reserve () =
  let b = Kernel_model.Buddy.create ~base:1000 ~frames:64 in
  Kernel_model.Buddy.reserve b 1008 3;
  Kernel_model.Buddy.reserve b 1000 0;
  check bool "reserved blocks recorded" true
    (List.mem (1008, 3) (Kernel_model.Buddy.allocated_blocks b)
    && List.mem (1000, 0) (Kernel_model.Buddy.allocated_blocks b));
  check int "free count reflects reservations" (64 - 8 - 1) (Kernel_model.Buddy.free_frames b);
  (* The allocator never hands out a reserved frame. *)
  for _ = 1 to 64 - 8 - 1 do
    let pfn = Kernel_model.Buddy.alloc b in
    check bool "alloc avoids reserved ranges" false ((pfn >= 1008 && pfn < 1016) || pfn = 1000)
  done;
  check_raises "double reserve refused" (Invalid_argument "Buddy.reserve: block not free")
    (fun () -> Kernel_model.Buddy.reserve b 1008 3);
  check_raises "misaligned reserve refused" (Invalid_argument "Buddy.reserve: misaligned block")
    (fun () ->
      ignore (Kernel_model.Buddy.reserve (Kernel_model.Buddy.create ~base:1000 ~frames:64) 1003 2));
  (* Reserved blocks free like allocated ones (everything else is
     still held by the alloc loop above). *)
  Kernel_model.Buddy.free b 1008;
  check int "reserved block freed" 8 (Kernel_model.Buddy.free_frames b)

(* The ISSUE's acceptance criteria, asserted (the bench prints them). *)
let test_acceptance_ratios () =
  let host = mk_host ~mem_mib:512 () in
  let clock = Hw.Machine.clock (Cki.Host.machine host) in
  (* A realistically-sized init (512 dirty pages): the clone's fixed
     metadata footprint must be small relative to real state. *)
  let c0, cold_ns = Hw.Clock.timed clock (fun () -> boot_ready ~pages:512 host) in
  let tpl = template_exn c0 in
  let image = Snapshot.Template.image tpl in
  let restored, restore_ns = Hw.Clock.timed clock (fun () -> restore_exn host image) in
  let clone, clone_ns = Hw.Clock.timed clock (fun () -> clone_exn tpl) in
  check bool
    (Printf.sprintf "restore >= 10x faster than cold boot (%.0f vs %.0f ns)" restore_ns cold_ns)
    true
    (cold_ns >= 10.0 *. restore_ns);
  check bool
    (Printf.sprintf "clone >= 10x faster than cold boot (%.0f vs %.0f ns)" clone_ns cold_ns)
    true
    (cold_ns >= 10.0 *. clone_ns);
  let tpl_frames =
    Snapshot.Restore.materialized_frames (Snapshot.Template.container tpl)
  in
  let clone_frames = Snapshot.Restore.materialized_frames clone in
  check bool
    (Printf.sprintf "clone materializes < 25%% of template (%d vs %d frames)" clone_frames
       tpl_frames)
    true
    (float_of_int clone_frames < 0.25 *. float_of_int tpl_frames);
  check bool "restored container materializes the full image" true
    (Snapshot.Restore.materialized_frames restored >= tpl_frames);
  check int "all three clean" 0
    (List.length (Analysis.check_machine ~containers:[ c0; restored; clone ]))

(* Regression for the direct-map relocation bug: the direct map's VA
   layout keys on physical addresses, so a restored container must get
   one rebuilt from its *new* segment bases — otherwise the first
   post-restore PTP declaration retags the wrong direct-map leaf (or
   none at all) and leaves a guest-writable alias of a page-table page.
   600 fresh pages cross a 512-entry L1 boundary, forcing the guest
   kernel to declare a brand-new page-table page through the KSM. *)
let grow_fresh_ptp c =
  let b = Cki.Container.backend c in
  let task = first_task c in
  match
    Virt.Backend.syscall_exn b task
      (Kernel_model.Syscall.Mmap { pages = 600; prot = Kernel_model.Vma.prot_rw })
  with
  | Kernel_model.Syscall.Rint base ->
      ignore
        (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:600 ~write:true)
  | _ -> fail "mmap"

let test_restored_ptp_declaration () =
  let host = mk_host ~mem_mib:512 () in
  let c0 = boot_ready host in
  let tpl = template_exn c0 in
  let image = Snapshot.Template.image tpl in
  let restored = restore_exn host image in
  grow_fresh_ptp restored;
  check int "restored container clean after fresh PTP" 0
    (List.length (Analysis.check_machine ~containers:[ restored ]));
  let clone = clone_exn tpl in
  grow_fresh_ptp clone;
  check int "clone clean after fresh PTP" 0
    (List.length (Analysis.check_machine ~containers:[ clone ]));
  (* Cross-machine: the segment lands at a different hPA, so a stale
     (relocated-but-not-rekeyed) direct map could not be correct. *)
  let host2 = mk_host ~mem_mib:512 () in
  ignore
    (Cki.Host.delegate_segment host2 ~container:(Cki.Host.fresh_container_id host2) ~frames:160);
  let restored2 = restore_exn host2 image in
  grow_fresh_ptp restored2;
  check int "cross-machine restore clean after fresh PTP" 0
    (List.length (Analysis.check_machine ~containers:[ restored2 ]));
  (* Template.freeze walks the direct map of the container it freezes:
     freezing a *restored* container exercises the rebuilt map end to
     end, and its clones must still be able to grow. *)
  let tpl2 = template_exn restored2 in
  let clone2 = clone_exn tpl2 in
  grow_fresh_ptp clone2;
  check int "clone of a restored-then-frozen template clean" 0
    (List.length (Analysis.check_machine ~containers:[ restored2; clone2 ]))

(* A frozen template's pages are read-only to the template itself: the
   hardware PTEs were downgraded, so the mm model must fault on writes
   too instead of silently mutating frames that live clones share. *)
let test_template_write_faults () =
  let host = mk_host () in
  let c0 = boot_ready host in
  let tpl = template_exn c0 in
  let mm = (first_task (Snapshot.Template.container tpl)).Kernel_model.Task.mm in
  let va = Kernel_model.Mm.user_mmap_base in
  check bool "resident pages are frozen" true
    (Kernel_model.Mm.frozen_count mm >= 64
    && Kernel_model.Mm.is_frozen mm (Hw.Addr.vpn_of_va va));
  (* Reads still work; writes fault like the downgraded PTE would. *)
  Kernel_model.Mm.touch mm va ~write:false;
  check_raises "template write faults" (Kernel_model.Mm.Segfault va) (fun () ->
      Kernel_model.Mm.touch mm va ~write:true);
  check_raises "mprotect-to-writable refused" (Kernel_model.Mm.Segfault va) (fun () ->
      Kernel_model.Mm.mprotect mm ~start:va ~pages:1 ~prot:Kernel_model.Vma.prot_rw)

(* A restore that fails verification must roll back completely: no
   leaked frames, no inflated template refcounts — a host that keeps
   receiving bad images must not bleed memory. *)
let test_failed_restore_rollback () =
  let host = mk_host ~mem_mib:512 () in
  let c0 = boot_ready host in
  let mem = Hw.Machine.mem (Cki.Host.machine host) in
  let tpl = template_exn c0 in
  let image = Snapshot.Template.image tpl in
  let map = Snapshot.Template.map tpl in
  (* An image claiming no PTPs rebuilds into a container the scanner
     rejects: its page tables are all undeclared. *)
  let bad = { image with Snapshot.Image.ptps = [] } in
  let vpn0 = Hw.Addr.vpn_of_va Kernel_model.Mm.user_mmap_base in
  let shared = ref (-1) in
  Kernel_model.Mm.iter_pages (first_task c0).Kernel_model.Task.mm (fun v p ->
      if v = vpn0 then shared := p);
  let free0 = Hw.Phys_mem.free_frames mem in
  let rc0 = Hw.Phys_mem.refcount mem !shared in
  for _ = 1 to 3 do
    (match Snapshot.Restore.restore host bad with
    | Error (Snapshot.Restore.Verify_failed _) -> ()
    | Ok _ -> fail "restore of an image with no declared PTPs must fail verification"
    | Error e -> fail ("unexpected restore error: " ^ Snapshot.Restore.show_error e));
    match
      Snapshot.Restore.clone_of host bad ~orig_seg_bases:map.Snapshot.Capture.m_seg_bases
        ~orig_aux:map.Snapshot.Capture.m_aux
    with
    | Error (Snapshot.Restore.Verify_failed _) -> ()
    | Ok _ -> fail "clone of an image with no declared PTPs must fail verification"
    | Error e -> fail ("unexpected clone error: " ^ Snapshot.Restore.show_error e)
  done;
  check int "repeated failed restores leak no frames" free0 (Hw.Phys_mem.free_frames mem);
  check int "failed clones release template references" rc0 (Hw.Phys_mem.refcount mem !shared);
  (* The host is still healthy: a good restore succeeds afterwards. *)
  check int "subsequent good restore clean" 0
    (List.length (Analysis.check_machine ~containers:[ restore_exn host image ]))

(* Declared element counts are enforced: a root or per-vCPU line whose
   count disagrees with its actual list is malformed, even with a valid
   checksum. *)
let test_decode_count_mismatch () =
  let host = mk_host () in
  let image = capture_exn (boot_ready host) in
  let enc = Snapshot.Image.encode image in
  let tamper prefix f =
    let lines = String.split_on_char '\n' enc in
    let magic = List.hd lines in
    let payload = List.filteri (fun i _ -> i >= 2) lines in
    let hit = ref false in
    let payload =
      List.map
        (fun l ->
          if (not !hit) && String.length l > 2 && String.sub l 0 2 = prefix then begin
            hit := true;
            f l
          end
          else l)
        payload
    in
    if not !hit then fail ("no line with prefix " ^ prefix);
    let body = String.concat "\n" payload in
    String.concat "\n"
      [ magic; Printf.sprintf "checksum %016Lx" (Snapshot.Image.fnv1a64 body); body ]
  in
  let bump_count l =
    match String.split_on_char ' ' l with
    | tag :: frame :: n :: rest ->
        String.concat " " (tag :: frame :: string_of_int (int_of_string n + 1) :: rest)
    | _ -> fail ("unexpected line: " ^ l)
  in
  let expect_malformed name s =
    match Snapshot.Image.decode s with
    | Error (Snapshot.Image.Malformed _) -> ()
    | Error e -> fail (name ^ ": wrong error: " ^ Snapshot.Image.show_decode_error e)
    | Ok _ -> fail (name ^ ": mismatched count accepted")
  in
  expect_malformed "root copy count" (tamper "r " bump_count);
  expect_malformed "pervcpu frame count" (tamper "v " bump_count)

(* ------------------------------------------------------------------ *)
(* The v2 encoder against a Printf reference                           *)
(* ------------------------------------------------------------------ *)

let test_fnv1a64_vectors () =
  List.iter
    (fun (input, want) ->
      check string (Printf.sprintf "fnv1a64 %S" input) want
        (Printf.sprintf "%016Lx" (Snapshot.Image.fnv1a64 input)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ]

(* The CKI-SNAPSHOT v2 wire format written line by line with Printf,
   exactly as the format was first specified. *)
let reference_encode (t : Snapshot.Image.t) =
  let open Snapshot.Image in
  let hex s =
    String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
  in
  let fref = function
    | Seg { seg; off } -> Printf.sprintf "S%d.%d" seg off
    | Aux i -> Printf.sprintf "A%d" i
  in
  let aux_kind = function
    | Pt l -> "pt" ^ string_of_int l
    | Ksm_code -> "ksm_code"
    | Ksm_data -> "ksm_data"
    | Kernel_code -> "kernel_code"
  in
  let backing = function
    | Kernel_model.Vma.Anon -> "anon"
    | Kernel_model.Vma.File { inode; offset } -> Printf.sprintf "file:%d:%d" inode offset
    | Kernel_model.Vma.Stack -> "stack"
    | Kernel_model.Vma.Heap -> "heap"
  in
  let b01 b = if b then "1" else "0" in
  let frefs a = String.concat "" (Array.to_list (Array.map (fun f -> " " ^ fref f) a)) in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let c = t.cfg in
  line "cfg %s %s %s %s %s %s %d %d" (b01 c.Cki.Config.opt2) (b01 c.Cki.Config.opt3)
    (b01 c.Cki.Config.hugepages) (b01 c.Cki.Config.pti_in_gates)
    (b01 c.Cki.Config.emulate_pvm_syscall) (b01 c.Cki.Config.design_pku) c.Cki.Config.vcpus
    c.Cki.Config.segment_frames;
  line "segments %d%s" (Array.length t.segments)
    (String.concat "" (Array.to_list (Array.map (fun n -> " " ^ string_of_int n) t.segments)));
  line "aux %d" (Array.length t.aux);
  Array.iteri (fun i k -> line "k %d %s" i (aux_kind k)) t.aux;
  line "ptps %d" (List.length t.ptps);
  List.iter (fun (r, lvl) -> line "p %s %d" (fref r) lvl) t.ptps;
  line "kernel_root %s" (fref t.kernel_root);
  line "template %d" (List.length t.template);
  List.iter (fun (slot, bits, r) -> line "s %d %Lx %s" slot bits (fref r)) t.template;
  line "roots %d" (List.length t.roots);
  List.iter
    (fun r -> line "r %s %d%s" (fref r.r_frame) (Array.length r.r_copies) (frefs r.r_copies))
    t.roots;
  line "tables %d" (List.length t.tables);
  List.iter
    (fun tb ->
      line "t %s %d %d %d" (fref tb.t_frame) tb.t_level tb.t_va (List.length tb.t_entries);
      List.iter (fun e -> line "e %d %Lx %s" e.e_index e.e_bits (fref e.e_target)) tb.t_entries)
    t.tables;
  line "pervcpu %d" (Array.length t.pervcpu);
  Array.iter
    (fun a -> line "v %s %d%s" (fref a.a_l3) (Array.length a.a_frames) (frefs a.a_frames))
    t.pervcpu;
  line "cpus %d" (Array.length t.cpus);
  Array.iter
    (fun c ->
      line "c %s %d %s %d %d %s" (b01 c.c_kernel) c.c_pkrs (b01 c.c_if) c.c_gs c.c_kgs
        (fref c.c_cr3))
    t.cpus;
  line "kernel %d %d" t.next_pid t.next_as;
  line "buddy %d" (List.length t.buddy_blocks);
  List.iter (fun (off, order) -> line "b %d %d" off order) t.buddy_blocks;
  line "aspaces %d" (List.length t.aspaces);
  List.iter (fun (id, r) -> line "a %d %s" id (fref r)) t.aspaces;
  line "tasks %d" (List.length t.tasks);
  List.iter
    (fun tk ->
      line "task %d %d %d %d %d %d %d %d %d" tk.tk_pid tk.tk_parent tk.tk_next_fd tk.tk_aspace
        tk.tk_brk tk.tk_cursor (List.length tk.tk_vmas) (List.length tk.tk_pages)
        (List.length tk.tk_fds);
      List.iter
        (fun v ->
          let r, w, x = v.v_prot in
          line "m %d %d %s%s%s %s" v.v_start v.v_stop (b01 r) (b01 w) (b01 x) (backing v.v_backing))
        tk.tk_vmas;
      List.iter (fun (vpn, r) -> line "g %d %s" vpn (fref r)) tk.tk_pages;
      List.iter (fun f -> line "f %d %d %s" f.f_fd f.f_pos (hex f.f_path)) tk.tk_fds)
    t.tasks;
  line "dirs %d" (List.length t.dirs);
  List.iter (fun d -> line "d %s" (hex d)) t.dirs;
  line "files %d" (List.length t.files);
  List.iter (fun (p, data) -> line "F %s %s" (hex p) (hex data)) t.files;
  let p = Buffer.contents b in
  Printf.sprintf "%s v%d\nchecksum %016Lx\n%s" magic version (fnv1a64 p) p

(* A booted container plus a binary tmpfs file holding every byte
   value, 0x80..0xff included. *)
let boot_binary ?(cfg = cfg) host =
  let c = Cki.Container.create ~cfg host in
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  (match
     Virt.Backend.syscall_exn b task
       (Kernel_model.Syscall.Mmap { pages = 8; prot = Kernel_model.Vma.prot_rw })
   with
  | Kernel_model.Syscall.Rint base ->
      ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:8 ~write:true)
  | _ -> fail "mmap");
  (match
     Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/blob"; create = true })
   with
  | Kernel_model.Syscall.Rint fd ->
      ignore
        (Virt.Backend.syscall_exn b task
           (Kernel_model.Syscall.Write { fd; data = Bytes.init 256 Char.chr }))
  | _ -> fail "open");
  c

let test_encode_matches_reference () =
  let host = mk_host ~mem_mib:512 () in
  let ready = capture_exn (boot_ready host) in
  let binary = capture_exn (boot_binary host) in
  let single =
    capture_exn
      (boot_binary ~cfg:{ cfg with Cki.Config.vcpus = 1; opt2 = false; opt3 = false } host)
  in
  let frozen = Snapshot.Template.image (template_exn (boot_ready ~pages:16 host)) in
  (* Field values no capture produces: zero and all-ones PTE bits,
     negative and extreme ints, every fref shape. *)
  let edge =
    {
      ready with
      Snapshot.Image.tables =
        [
          {
            Snapshot.Image.t_frame = Snapshot.Image.Aux 0;
            t_level = 1;
            t_va = 0;
            t_entries =
              List.mapi
                (fun i e_bits ->
                  {
                    Snapshot.Image.e_index = i;
                    e_bits;
                    e_target = Snapshot.Image.Seg { seg = i; off = 4095 - i };
                  })
                [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x8000_0000_0000_0001L; 0xfL; 0x10L ];
          };
        ];
      buddy_blocks = [ (0, 0); (-1, 7); (min_int, max_int); (max_int, -10); (10, 9) ];
    }
  in
  let images = [ ready; binary; single; frozen; edge ] in
  List.iteri
    (fun i img ->
      check string (Printf.sprintf "image %d: encode = Printf reference" i) (reference_encode img)
        (Snapshot.Image.encode img))
    images;
  (* The captured images cover what the bulk writers must get right. *)
  let captured = [ ready; binary; single; frozen ] in
  let entries =
    List.concat_map
      (fun img -> List.concat_map (fun tb -> tb.Snapshot.Image.t_entries) img.Snapshot.Image.tables)
      captured
  in
  check bool "an NX leaf (16 hex digits)" true
    (List.exists (fun e -> Int64.compare e.Snapshot.Image.e_bits 0L < 0) entries);
  check bool "an Aux frame ref" true
    (List.exists
       (fun e -> match e.Snapshot.Image.e_target with Snapshot.Image.Aux _ -> true | _ -> false)
       entries);
  check bool "2 vCPUs" true (Array.length ready.Snapshot.Image.cpus = 2);
  check bool "a tmpfs byte >= 0x80" true
    (List.exists
       (fun (_, data) -> String.exists (fun c -> Char.code c >= 0x80) data)
       binary.Snapshot.Image.files)

let suite =
  [
    ( "snapshot",
      [
        test_case "capture-restore-capture is byte-identical" `Quick test_roundtrip_byte_identical;
        test_case "clone-then-write CoW divergence" `Quick test_clone_cow_divergence;
        test_case "cross-machine restore relocates hPAs" `Quick test_cross_machine_restore;
        test_case "corrupted images are rejected" `Quick test_corrupted_image_rejected;
        test_case "decoder fuzz never raises" `Quick test_decode_fuzz_never_raises;
        test_case "forged writable CoW mapping is flagged" `Quick test_cow_writable_detected;
        test_case "warm pool pre-boots and rotates" `Quick test_warm_pool_counts;
        test_case "buddy reserve replays allocations" `Quick test_buddy_reserve;
        test_case "acceptance: speedups and memory ratio" `Quick test_acceptance_ratios;
        test_case "post-restore PTP declaration hits the rebuilt direct map" `Quick
          test_restored_ptp_declaration;
        test_case "frozen template writes fault" `Quick test_template_write_faults;
        test_case "failed restores roll back cleanly" `Quick test_failed_restore_rollback;
        test_case "declared counts are enforced in decode" `Quick test_decode_count_mismatch;
        test_case "fnv1a64 matches the published vectors" `Quick test_fnv1a64_vectors;
        test_case "encode matches the Printf reference" `Quick test_encode_matches_reference;
      ] );
  ]
