(* The raw-speed engine overhaul: representation changes that must be
   observationally invisible.

   The anchor test is the golden snapshot fixture: an image captured
   with the pre-overhaul boxed-record [Phys_mem] (frame metadata in a
   record array, PTEs in per-frame [int64 array]s) checked in at
   test/fixtures/golden_v2.ckisnap.  A fresh capture with today's
   packed-array + Bigarray-arena representation must be byte-for-byte
   identical, proving the swap changed raw speed only.  Around it:
   allocator free-count bookkeeping, allocation-order preservation,
   arena slot recycling, and the translation fast path's
   subset-of-the-TLB invalidation discipline. *)

open Alcotest

let golden_path = "fixtures/golden_v2.ckisnap"

(* Same workload the fixture generator ran (kept in sync by the bytes
   comparison itself: any drift shows up as a mismatch). *)
let init_workload (c : Cki.Container.t) =
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  (match
     Virt.Backend.syscall_exn b task
       (Kernel_model.Syscall.Mmap { pages = 256; prot = Kernel_model.Vma.prot_rw })
   with
  | Kernel_model.Syscall.Rint base ->
      ignore
        (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:256 ~write:true)
  | _ -> fail "mmap");
  match
    Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/app.conf"; create = true })
  with
  | Kernel_model.Syscall.Rint fd ->
      ignore
        (Virt.Backend.syscall_exn b task
           (Kernel_model.Syscall.Write { fd; data = Bytes.of_string "threads=4\n" }))
  | _ -> fail "open"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let capture_exn c =
  match Snapshot.Capture.capture c with
  | Ok image -> image
  | Error e -> fail ("capture: " ^ Snapshot.Capture.show_error e)

(* A capture under the packed representation must reproduce the
   fixture captured under the boxed representation, byte for byte. *)
let test_golden_capture_identical () =
  let c = Cki.Container.create_standalone ~mem_mib:256 () in
  init_workload c;
  let image = capture_exn c in
  let fresh = Snapshot.Image.encode image in
  let golden = read_file golden_path in
  check int "image length" (String.length golden) (String.length fresh);
  check bool "capture is byte-identical to the pre-overhaul fixture" true (golden = fresh)

(* The fixture itself must decode, restore into a fresh host, and
   re-capture to the identical bytes (capture -> restore -> capture
   determinism across the representation swap). *)
let test_golden_restore_recapture () =
  let golden = read_file golden_path in
  let image =
    match Snapshot.Image.decode golden with
    | Ok i -> i
    | Error e -> fail ("decode: " ^ Snapshot.Image.show_decode_error e)
  in
  let host = Cki.Host.create (Hw.Machine.create ~mem_mib:256 ()) in
  let c =
    match Snapshot.Restore.restore host image with
    | Ok c -> c
    | Error e -> fail ("restore: " ^ Snapshot.Restore.show_error e)
  in
  let again = Snapshot.Image.encode (capture_exn c) in
  check bool "restore -> recapture is byte-identical" true (golden = again)

(* ------------------------------------------------------------------ *)
(* Allocator                                                           *)
(* ------------------------------------------------------------------ *)

(* free_frames is a maintained counter now; it must agree with the
   O(n) ownership scan through arbitrary alloc/free churn. *)
let test_free_count_agrees_with_scan () =
  let m = Hw.Phys_mem.create ~frames:500 in
  let rng = ref 123456789 in
  let rand n =
    rng := (!rng * 1103515245) + 12345;
    (!rng lsr 7) mod n
  in
  let live = ref [] in
  for _ = 1 to 2000 do
    if rand 3 > 0 || !live = [] then begin
      match Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data with
      | pfn -> live := pfn :: !live
      | exception Hw.Phys_mem.Out_of_memory -> ()
    end
    else begin
      match !live with
      | pfn :: rest ->
          Hw.Phys_mem.free m pfn;
          live := rest
      | [] -> ()
    end;
    let scanned = Hw.Phys_mem.count_owned m (fun o -> o = Hw.Phys_mem.Free) in
    if Hw.Phys_mem.free_frames m <> scanned then
      failf "free_frames drifted: counter=%d scan=%d" (Hw.Phys_mem.free_frames m) scanned
  done

(* The bitmap allocator must preserve the old next-fit order: alloc
   rotates a hint; free does not move it; contiguous runs are first-fit
   from frame 0. *)
let test_allocation_order_preserved () =
  let m = Hw.Phys_mem.create ~frames:200 in
  let a () = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
  check int "first" 0 (a ());
  check int "second" 1 (a ());
  check int "third" 2 (a ());
  Hw.Phys_mem.free m 0;
  (* next-fit: the hint is past 0, so the hole is NOT reused yet *)
  check int "hole skipped" 3 (a ());
  (* contiguous is first-fit from 0 and must skip the single hole *)
  let base =
    Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:4
  in
  check int "contiguous first-fit" 4 base;
  (* exhaust, then wrap back to the hole at 0 *)
  for _ = 8 to 199 do
    ignore (a ())
  done;
  check int "wraps to the hole" 0 (a ());
  check_raises "oom" Hw.Phys_mem.Out_of_memory (fun () -> ignore (a ()))

(* Crossing word boundaries (62 frames/word): a contiguous run that
   spans several bitmap words, with scattered holes, lands on the first
   window exactly like the per-frame scan did. *)
let test_contiguous_across_words () =
  let m = Hw.Phys_mem.create ~frames:1000 in
  let base =
    Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:1000
  in
  check int "full span" 0 base;
  (* punch a 130-frame hole crossing word boundaries at 61..190 *)
  Hw.Phys_mem.free_range m ~base:61 ~count:130;
  check_raises "131 does not fit" Hw.Phys_mem.Out_of_memory (fun () ->
      ignore
        (Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:131));
  let b =
    Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:130
  in
  check int "refills the exact hole" 61 b

(* A freed table frame's arena slot is recycled: churn through many
   table-frame lifetimes and confirm reads stay isolated (a recycled
   slot must come back zeroed, never leaking the previous tenant's
   PTEs). *)
let test_arena_slot_recycling () =
  let m = Hw.Phys_mem.create ~frames:64 in
  for round = 1 to 50 do
    let f = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
    check bool "fresh table reads zero" true (Hw.Phys_mem.read_entry m ~pfn:f ~index:7 = 0L);
    Hw.Phys_mem.write_entry m ~pfn:f ~index:7 (Int64.of_int round);
    check bool "read back" true (Hw.Phys_mem.read_entry m ~pfn:f ~index:7 = Int64.of_int round);
    Hw.Phys_mem.free m f
  done

(* table_entries returns a snapshot: mutating it must not write
   memory. *)
let test_table_entries_snapshot () =
  let m = Hw.Phys_mem.create ~frames:8 in
  let f = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
  Hw.Phys_mem.write_entry m ~pfn:f ~index:3 99L;
  let snap = Hw.Phys_mem.table_entries m f in
  check bool "snapshot sees the entry" true (snap.(3) = 99L);
  snap.(3) <- 0L;
  check bool "mutating the snapshot does not write memory" true
    (Hw.Phys_mem.read_entry m ~pfn:f ~index:3 = 99L)

(* ------------------------------------------------------------------ *)
(* Bulk payload copies                                                 *)
(* ------------------------------------------------------------------ *)

(* The word-at-a-time payload copies [Phys_mem.write_bytes]/[read_bytes]
   replace: one little-endian word per 8 bytes, the last word
   zero-padded, through [write_entry]/[read_entry]. *)
let ref_write m pfn data ~off ~len =
  for w = 0 to ((len + 7) / 8) - 1 do
    let v = ref 0L in
    for b = 0 to 7 do
      let i = (w * 8) + b in
      if i < len then
        v :=
          Int64.logor !v
            (Int64.shift_left (Int64.of_int (Char.code (Bytes.get data (off + i)))) (8 * b))
    done;
    Hw.Phys_mem.write_entry m ~pfn ~index:w !v
  done

let ref_read m pfn data ~off ~len =
  for w = 0 to ((len + 7) / 8) - 1 do
    let v = Hw.Phys_mem.read_entry m ~pfn ~index:w in
    for b = 0 to 7 do
      let i = (w * 8) + b in
      if i < len then
        Bytes.set data (off + i)
          (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * b)) 0xFFL)))
    done
  done

let copy_lengths = [ 0; 1; 7; 8; 9; 511; 4095; 4096 ]
let pattern n = Bytes.init n (fun i -> Char.chr (((i * 131) + 7) land 0xFF))

(* Both memories start with every word of the frame set to all-ones,
   so the zero padding of the last word is visible. *)
let dirty_frame () =
  let m = Hw.Phys_mem.create ~frames:8 in
  let pfn = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
  for i = 0 to 511 do
    Hw.Phys_mem.write_entry m ~pfn ~index:i (-1L)
  done;
  (m, pfn)

let test_bulk_write_matches_words () =
  List.iter
    (fun len ->
      List.iter
        (fun off ->
          let data = pattern (off + len + 5) in
          let m1, p1 = dirty_frame () and m2, p2 = dirty_frame () in
          Hw.Phys_mem.write_bytes m1 ~pfn:p1 data ~off ~len;
          ref_write m2 p2 data ~off ~len;
          check bool
            (Printf.sprintf "len %d off %d: frame words identical" len off)
            true
            (Hw.Phys_mem.table_entries m1 p1 = Hw.Phys_mem.table_entries m2 p2))
        [ 0; 3 ])
    copy_lengths

let test_bulk_read_matches_words () =
  List.iter
    (fun len ->
      List.iter
        (fun off ->
          let m = Hw.Phys_mem.create ~frames:8 in
          let pfn = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
          ref_write m pfn (pattern 4096) ~off:0 ~len:4096;
          let got = Bytes.make (off + len + 5) '?' and want = Bytes.make (off + len + 5) '?' in
          Hw.Phys_mem.read_bytes m ~pfn got ~off ~len;
          ref_read m pfn want ~off ~len;
          check string (Printf.sprintf "len %d off %d: bytes identical" len off)
            (Bytes.to_string want) (Bytes.to_string got))
        [ 0; 3 ])
    copy_lengths

let test_bulk_unbacked_reads_zero () =
  let m = Hw.Phys_mem.create ~frames:8 in
  let pfn = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
  let buf = Bytes.make 4100 'x' in
  Hw.Phys_mem.read_bytes m ~pfn buf ~off:2 ~len:4096;
  check string "never-written frame reads zero" (String.make 4096 '\000')
    (Bytes.sub_string buf 2 4096);
  check string "bytes outside the range untouched" "xxxx"
    (Bytes.sub_string buf 0 2 ^ Bytes.sub_string buf 4098 2);
  check_raises "range past the buffer" (Invalid_argument "Phys_mem: byte range") (fun () ->
      Hw.Phys_mem.read_bytes m ~pfn buf ~off:5 ~len:4096)

(* The dirty range is what frame recycling scrubs: after a bulk write,
   freeing the frame and reusing its arena slot must read all zeros. *)
let test_bulk_dirty_range () =
  List.iter
    (fun len ->
      let m = Hw.Phys_mem.create ~frames:8 in
      let pfn = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
      Hw.Phys_mem.write_bytes m ~pfn (Bytes.make len '\255') ~off:0 ~len;
      Hw.Phys_mem.free m pfn;
      let again = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
      check bool
        (Printf.sprintf "len %d: recycled slot scrubbed" len)
        true
        (Array.for_all (fun w -> w = 0L) (Hw.Phys_mem.table_entries m again)))
    copy_lengths

(* ------------------------------------------------------------------ *)
(* Clock: one interned tier                                            *)
(* ------------------------------------------------------------------ *)

(* A name no other test uses, interned only when the test runs (after
   every module-level id and after the clocks below exist). *)
let fresh_name =
  let n = Atomic.make 0 in
  fun tag -> Printf.sprintf "test_clock_%s_%d" tag (Atomic.fetch_and_add n 1)

let test_clock_one_tier () =
  let early = Hw.Clock.create () in
  let late = fresh_name "late" and never = fresh_name "never" in
  (* pre-interned: the id path and the string path feed one counter *)
  Hw.Clock.charge_id early Hw.Clock.id_tlb_hit 1.5;
  Hw.Clock.charge early "tlb_hit" 2.5;
  check int "pre-interned occurrences" 2 (Hw.Clock.occurrences early "tlb_hit");
  check (float 0.0) "pre-interned spent" 4.0 (Hw.Clock.spent_on early "tlb_hit");
  (* late-interned: the clock predates the name and grows to hold it *)
  Hw.Clock.charge early late 10.0;
  Hw.Clock.charge_id early (Hw.Clock.intern late) 5.0;
  Hw.Clock.count early late;
  check int "late occurrences" 3 (Hw.Clock.occurrences early late);
  check (float 0.0) "late spent" 15.0 (Hw.Clock.spent_on early late);
  (* never charged: zero everywhere, and querying does not register it *)
  check int "never occurrences" 0 (Hw.Clock.occurrences early never);
  check (float 0.0) "never spent" 0.0 (Hw.Clock.spent_on early never);
  let expected = List.sort compare [ ("tlb_hit", 2); (late, 3) ] in
  check (list (pair string int)) "events" expected (Hw.Clock.events early);
  check (float 0.0) "now" 19.0 (Hw.Clock.now early);
  (* add_into: an older, smaller [into] absorbs every counter *)
  let into = Hw.Clock.create () in
  Hw.Clock.charge into "tlb_hit" 1.0;
  Hw.Clock.add_into ~into early;
  check int "merged pre-interned" 3 (Hw.Clock.occurrences into "tlb_hit");
  check (float 0.0) "merged pre-interned spent" 5.0 (Hw.Clock.spent_on into "tlb_hit");
  check int "merged late" 3 (Hw.Clock.occurrences into late);
  check (float 0.0) "merged late spent" 15.0 (Hw.Clock.spent_on into late);
  check int "merged never" 0 (Hw.Clock.occurrences into never);
  check (float 0.0) "merged now" 20.0 (Hw.Clock.now into);
  check (list (pair string int)) "merged events (sorted by name)" [ (late, 3); ("tlb_hit", 3) ]
    (Hw.Clock.events into);
  Hw.Clock.reset into;
  check (list (pair string int)) "reset clears every event" [] (Hw.Clock.events into)

(* Two domains interning the same fresh names at once (in opposite
   orders) must agree on one id per name, distinct across names. *)
let test_clock_concurrent_intern () =
  let names = Array.init 500 (fun _ -> fresh_name "race") in
  let n = Array.length names in
  let ids =
    Hw.Domain_shard.map ~domains:2 ~lanes:2 (fun lane ->
        let mine = Array.make n (-1) in
        for k = 0 to n - 1 do
          let i = if lane = 0 then k else n - 1 - k in
          mine.(i) <- Hw.Clock.intern names.(i)
        done;
        mine)
  in
  check bool "both domains got the same id for every name" true (ids.(0) = ids.(1));
  check int "one id per name" n (List.length (List.sort_uniq compare (Array.to_list ids.(0))));
  Array.iteri
    (fun i name -> check int "stable on re-intern" ids.(0).(i) (Hw.Clock.intern name))
    names

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

(* The list-sort nearest-rank percentile the array version replaced. *)
let ref_percentile xs ~p =
  match xs with
  | [] -> nan
  | _ ->
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let test_percentiles_match_reference () =
  let ps = [ 0.0; 1.0; 50.0; 95.0; 99.0; 99.9; 100.0 ] in
  let samples =
    [
      [];
      [ 7.0 ];
      [ 3.0; 3.0; 1.0; 2.0 ];
      List.init 1001 (fun i -> float_of_int ((i * 7919) mod 997) /. 10.0);
    ]
  in
  List.iter
    (fun xs ->
      let want = List.map (fun p -> ref_percentile xs ~p) ps in
      let got = Report.Stats.percentiles xs ~ps in
      check int "one value per p" (List.length ps) (List.length got);
      List.iter2
        (fun w g ->
          check bool "nearest rank unchanged" true
            (Int64.bits_of_float w = Int64.bits_of_float g
            || (Float.is_nan w && Float.is_nan g)))
        want got;
      List.iter2
        (fun p w ->
          let g = Report.Stats.percentile xs ~p in
          check bool "single percentile unchanged" true
            (Int64.bits_of_float w = Int64.bits_of_float g || (Float.is_nan w && Float.is_nan g)))
        ps want)
    samples

(* ------------------------------------------------------------------ *)
(* Translation fast path                                               *)
(* ------------------------------------------------------------------ *)

(* One access/unmap/invlpg/invpcid sequence through [Cpu.access],
   pinned to the outcomes, TLB statistics and simulated clock it
   produced before the translation cache was folded into the TLB. *)
let test_translation_golden () =
  let m = Hw.Phys_mem.create ~frames:4096 in
  let pt = Hw.Page_table.create m ~owner:Hw.Phys_mem.Host in
  let clock = Hw.Clock.create () in
  let cpu = Hw.Cpu.create clock in
  let log = Buffer.create 256 in
  let touch ?(write = false) va =
    let kind = if write then Hw.Pks.Write else Hw.Pks.Read in
    match Hw.Cpu.access cpu pt ~va ~access_kind:kind () with
    | Ok pa -> Buffer.add_string log (Printf.sprintf "ok:%x;" pa)
    | Error f -> Buffer.add_string log ("fault:" ^ Hw.Cpu.show_fault f ^ ";")
  in
  for i = 0 to 31 do
    let data = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
    ignore
      (Hw.Page_table.map pt ~va:(0x400000 + (i * 4096)) ~pfn:data
         ~flags:{ Hw.Pte.default_flags with Hw.Pte.writable = true }
         ())
  done;
  (* repeated touches: hot path *)
  for _ = 1 to 3 do
    for i = 0 to 31 do
      touch ~write:(i mod 2 = 0) (0x400000 + (i * 4096))
    done
  done;
  (* unmap half, invlpg each, then re-touch: the unmapped half faults *)
  for i = 0 to 15 do
    let va = 0x400000 + (i * 4096) in
    ignore (Hw.Page_table.unmap pt va);
    Hw.Cpu.exec_priv_exn cpu (Hw.Priv.Invlpg va)
  done;
  for i = 0 to 31 do
    touch (0x400000 + (i * 4096))
  done;
  (* flush everything, then re-touch: all walks again *)
  Hw.Cpu.exec_priv_exn cpu Hw.Priv.Invpcid;
  for i = 16 to 31 do
    touch (0x400000 + (i * 4096))
  done;
  let low = "ok:1000;ok:5000;ok:6000;ok:7000;ok:8000;ok:9000;ok:a000;ok:b000;ok:c000;ok:d000;\
             ok:e000;ok:f000;ok:10000;ok:11000;ok:12000;ok:13000;"
  and high = "ok:14000;ok:15000;ok:16000;ok:17000;ok:18000;ok:19000;ok:1a000;ok:1b000;\
              ok:1c000;ok:1d000;ok:1e000;ok:1f000;ok:20000;ok:21000;ok:22000;ok:23000;" in
  let faults =
    String.concat ""
      (List.init 16 (fun i -> Printf.sprintf "fault:(Not_present 0x%x);" (0x400000 + (i * 4096))))
  in
  check string "access outcomes" (low ^ high ^ low ^ high ^ low ^ high ^ faults ^ high ^ high)
    (Buffer.contents log);
  check int "tlb hits" 80 (Hw.Tlb.hits cpu.Hw.Cpu.tlb);
  check int "tlb misses" 64 (Hw.Tlb.misses cpu.Hw.Cpu.tlb);
  check (float 0.0) "simulated clock" 5584.0 (Hw.Clock.now clock)

(* ------------------------------------------------------------------ *)
(* Domain sharding                                                     *)
(* ------------------------------------------------------------------ *)

(* [map] hands lane results back in lane order whatever the domain
   count, and [makespan] is the largest per-domain sum under the
   round-robin lane->domain map. *)
let test_domain_shard_map_makespan () =
  List.iter
    (fun domains ->
      check (array int)
        (Printf.sprintf "lane order, %d domains" domains)
        [| 0; 1; 4; 9; 16 |]
        (Hw.Domain_shard.map ~domains ~lanes:5 (fun i -> i * i)))
    [ 0; 1; 2; 4 ];
  let spans = [| 1.5; 2.0; 3.25; 4.0; 5.0 |] in
  List.iter
    (fun (domains, want) ->
      check (float 0.0)
        (Printf.sprintf "makespan, %d domains" domains)
        want
        (Hw.Domain_shard.makespan ~domains spans))
    [
      (0, 1.5 +. 2.0 +. 3.25 +. 4.0 +. 5.0);
      (1, 1.5 +. 2.0 +. 3.25 +. 4.0 +. 5.0);
      (2, 1.5 +. 3.25 +. 5.0);
      (4, 1.5 +. 5.0);
      (8, 5.0);
    ];
  check (float 0.0) "no lanes" 0.0 (Hw.Domain_shard.makespan ~domains:2 [||])

(* The sharded serve engine must be a pure function of the config and
   lane count: running the same 4-lane fleet on 1, 2 and 4 domains must
   produce the identical merged result (every counter and every derived
   float), identical ordered per-lane clock merges, and a clean
   whole-machine invariant check. *)
let serve_cfg =
  {
    Ioplane.Serve.default_config with
    Ioplane.Serve.backend = "cki";
    containers = 4;
    requests_per_container = 20;
  }

let merged_clock containers =
  let into = Hw.Clock.create () in
  List.iter
    (fun c -> Hw.Clock.add_into ~into (Cki.Container.backend c).Virt.Backend.clock)
    containers;
  into

let test_sharding_deterministic () =
  let run domains = Ioplane.Serve.run ~domains serve_cfg in
  let r1, c1 = run 1 in
  (* The 2-domain run executes under the dynamic cross-domain checker:
     Phys_mem tracing on, the merged replay race-checked — lanes own
     disjoint machines, so the trace must come back clean, and the
     instrumentation must not perturb the merged result. *)
  let (r2, c2), racecheck =
    Hw.Probe.set_mem_trace true;
    Fun.protect
      ~finally:(fun () -> Hw.Probe.set_mem_trace false)
      (fun () ->
        let out, trace =
          (* Room for every lane ring (65536 events each) plus edges,
             so the replayed spawn edges aren't dropped. *)
          Analysis.Trace.with_recorder ~capacity:300_000 (fun () -> run 2)
        in
        (out, Analysis.Racecheck.of_trace trace))
  in
  let r4, c4 = run 4 in
  check int "domains recorded" 1 r1.Ioplane.Serve.r_domains;
  check bool "sharded lanes trace racecheck-clean" true (Analysis.Racecheck.is_clean racecheck);
  check bool "racecheck saw traced accesses" true (racecheck.Analysis.Racecheck.accesses > 0);
  (* Everything except the parallel-makespan accounting (wall time,
     throughput, domain count) must be bit-identical. *)
  let norm r =
    { r with Ioplane.Serve.r_domains = 0; r_wall_ns = 0.0; r_throughput_rps = 0.0 }
  in
  check bool "1 vs 2 domains: identical merged result" true (norm r1 = norm r2);
  check bool "1 vs 4 domains: identical merged result" true (norm r1 = norm r4);
  let k1 = merged_clock c1 and k2 = merged_clock c2 and k4 = merged_clock c4 in
  check (float 1e-9) "merged clock now (2 domains)" (Hw.Clock.now k1) (Hw.Clock.now k2);
  check (float 1e-9) "merged clock now (4 domains)" (Hw.Clock.now k1) (Hw.Clock.now k4);
  check bool "merged clock events (2 domains)" true (Hw.Clock.events k1 = Hw.Clock.events k2);
  check bool "merged clock events (4 domains)" true (Hw.Clock.events k1 = Hw.Clock.events k4);
  check int "exit counts equal" r1.Ioplane.Serve.r_exits r4.Ioplane.Serve.r_exits;
  List.iter
    (fun cs ->
      check int "whole-machine invariant check clean" 0
        (List.length (Analysis.check_machine ~containers:cs)))
    [ c1; c2; c4 ]

(* Sharded throughput accounting: with lanes of equal work, 4 domains
   must report a strictly larger throughput than 1 domain over the same
   merged work (the makespan is the max domain span, not the sum). *)
let test_sharding_scales () =
  let r1, _ = Ioplane.Serve.run ~domains:1 serve_cfg in
  let r4, _ = Ioplane.Serve.run ~domains:4 serve_cfg in
  check bool "wall time shrinks" true
    (r4.Ioplane.Serve.r_wall_ns < r1.Ioplane.Serve.r_wall_ns);
  check bool "throughput scales" true
    (r4.Ioplane.Serve.r_throughput_rps > 2.0 *. r1.Ioplane.Serve.r_throughput_rps)

(* ------------------------------------------------------------------ *)
(* JSON round-trip: the parser added for artifact validation must
   accept exactly what the emitter produces.                           *)
(* ------------------------------------------------------------------ *)

let rec json_equal (a : Report.Json.value) (b : Report.Json.value) =
  match (a, b) with
  | Report.Json.Null, Report.Json.Null -> true
  | Report.Json.Bool x, Report.Json.Bool y -> x = y
  | Report.Json.Int x, Report.Json.Int y -> x = y
  | Report.Json.Float x, Report.Json.Float y -> Float.equal x y
  | Report.Json.String x, Report.Json.String y -> String.equal x y
  | Report.Json.List xs, Report.Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Report.Json.Obj xs, Report.Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2) xs ys
  | _ -> false

let test_json_roundtrip () =
  let open Report.Json in
  let v =
    Obj
      [
        ("bench", String "engine");
        ("ratio", Float 11.5);
        ("events", Int 123456789);
        ("ok", Bool true);
        ("missing", Null);
        ("empty_list", List []);
        ("empty_obj", Obj []);
        ( "rows",
          List
            [
              Obj [ ("name", String "tlb \"hit\"\n\ttab"); ("us", Float 0.25) ];
              Obj [ ("name", String "walk"); ("us", Float 3.0) ];
              Int (-42);
            ] );
      ]
  in
  (match parse (to_string v) with
  | Ok v' -> check bool "round-trip equal" true (json_equal v v')
  | Error e -> fail ("parse failed: " ^ e));
  (* every checked-in artifact shape the emitter produces parses *)
  (match parse "  { \"a\" : [ 1 , 2.5 , \"x\\u0041\" ] }  " with
  | Ok (Obj [ ("a", List [ Int 1; Float 2.5; String "xA" ]) ]) -> ()
  | Ok _ -> fail "unexpected parse shape"
  | Error e -> fail ("parse failed: " ^ e));
  check bool "member finds field" true
    (match member "ratio" v with Some (Float f) -> Float.equal f 11.5 | _ -> false);
  check bool "member on non-object" true (member "x" (Int 3) = None)

let test_json_rejects_malformed () =
  let open Report.Json in
  let bad s = match parse s with Error _ -> true | Ok _ -> false in
  check bool "empty input" true (bad "");
  check bool "trailing garbage" true (bad "{} x");
  check bool "unterminated string" true (bad "\"abc");
  check bool "unterminated object" true (bad "{\"a\": 1");
  check bool "missing colon" true (bad "{\"a\" 1}");
  check bool "NaN literal" true (bad "NaN");
  check bool "bare word" true (bad "nope");
  check bool "bad escape" true (bad "\"\\q\"");
  check bool "lone minus" true (bad "-");
  (* Outside the JSON grammar, though OCaml's number readers take them. *)
  check bool "leading zero" true (bad "01");
  check bool "negative leading zero" true (bad "-01");
  check bool "no fraction digits" true (bad "1.");
  check bool "no integer digits" true (bad "-.5");
  check bool "overflowing exponent" true (bad "1e999");
  check bool "negative overflowing exponent" true (bad "-1e999");
  check bool "raw control byte in string" true (bad "\"a\001b\"");
  check bool "raw newline in string" true (bad "\"a\nb\"");
  check bool "non-hex \\u escape" true (bad "\"\\u00_1\"");
  (* Still accepted: the grammar's edge forms. *)
  check bool "zero, exponents, negative fraction" true
    (parse "[0, -0, 1e5, 1E-2, -0.5, 2.5e+3]"
    = Ok (List [ Int 0; Int 0; Float 1e5; Float 1e-2; Float (-0.5); Float 2.5e3 ]))

(* Seeded parser fuzz over a checked-in artifact: random byte
   replacements (biased toward JSON's own punctuation) and truncations.
   Every mutant must come back [Ok] or [Error], never raise. *)
let test_json_fuzz_never_raises () =
  let doc = In_channel.with_open_bin "../BENCH_fleet.json" In_channel.input_all in
  check bool "artifact parses" true (Result.is_ok (Report.Json.parse doc));
  let rng = Random.State.make [| 16 |] in
  let n = String.length doc in
  let alphabet = "{}[]\":,.-+eE0123456789 \n\\ut" in
  let rejected = ref 0 in
  for k = 1 to 4000 do
    let mutant =
      if k mod 4 = 0 then String.sub doc 0 (Random.State.int rng n)
      else
        let b = Bytes.of_string doc in
        for _ = 0 to Random.State.int rng 3 do
          let c =
            if Random.State.bool rng then alphabet.[Random.State.int rng (String.length alphabet)]
            else Char.chr (Random.State.int rng 256)
          in
          Bytes.set b (Random.State.int rng n) c
        done;
        Bytes.to_string b
    in
    match Report.Json.parse mutant with
    | Ok _ -> ()
    | Error _ -> incr rejected
    | exception e -> fail ("parse raised " ^ Printexc.to_string e)
  done;
  check bool "most mutants rejected" true (!rejected > 2000)

let suite =
  [
    ( "engine-golden",
      [
        test_case "capture matches pre-overhaul fixture" `Quick test_golden_capture_identical;
        test_case "fixture restores and recaptures byte-identical" `Quick
          test_golden_restore_recapture;
      ] );
    ( "engine-allocator",
      [
        test_case "free count agrees with ownership scan" `Quick test_free_count_agrees_with_scan;
        test_case "allocation order preserved" `Quick test_allocation_order_preserved;
        test_case "contiguous runs across bitmap words" `Quick test_contiguous_across_words;
        test_case "arena slots are recycled zeroed" `Quick test_arena_slot_recycling;
        test_case "table_entries is a snapshot" `Quick test_table_entries_snapshot;
      ] );
    ( "engine-bulk-copy",
      [
        test_case "write_bytes matches word-by-word" `Quick test_bulk_write_matches_words;
        test_case "read_bytes matches word-by-word" `Quick test_bulk_read_matches_words;
        test_case "unbacked frames read zero" `Quick test_bulk_unbacked_reads_zero;
        test_case "dirty range covers the copy" `Quick test_bulk_dirty_range;
      ] );
    ( "engine-clock",
      [
        test_case "one tier: pre-interned, late, never" `Quick test_clock_one_tier;
        test_case "concurrent interning agrees" `Quick test_clock_concurrent_intern;
      ] );
    ( "engine-stats",
      [ test_case "percentiles match list nearest-rank" `Quick test_percentiles_match_reference ] );
    ( "engine-translation",
      [ test_case "golden access sequence" `Quick test_translation_golden ] );
    ( "engine-json",
      [
        test_case "emit/parse round-trip" `Quick test_json_roundtrip;
        test_case "malformed input rejected" `Quick test_json_rejects_malformed;
        test_case "parser fuzz never raises" `Quick test_json_fuzz_never_raises;
      ] );
    ( "engine-sharding",
      [
        test_case "map lane order, makespan by hand" `Quick test_domain_shard_map_makespan;
        test_case "domains 1/2/4 merge identically" `Slow test_sharding_deterministic;
        test_case "makespan accounting scales" `Slow test_sharding_scales;
      ] );
  ]
