(* Tests for Hw: addresses, PTEs, physical memory, page tables. *)

open Alcotest

let check_int = check int
let check_bool = check bool

(* ------------------------------ Addr ------------------------------ *)

let test_page_alignment () =
  check_int "align_down" 0x2000 (Hw.Addr.page_align_down 0x2abc);
  check_int "align_up" 0x3000 (Hw.Addr.page_align_up 0x2abc);
  check_int "align_up exact" 0x2000 (Hw.Addr.page_align_up 0x2000);
  check_bool "aligned" true (Hw.Addr.is_page_aligned 0x4000);
  check_bool "unaligned" false (Hw.Addr.is_page_aligned 0x4001)

let test_pfn_roundtrip () =
  check_int "pfn" 5 (Hw.Addr.pfn_of_pa (5 * 4096));
  check_int "pa" (7 * 4096) (Hw.Addr.pa_of_pfn 7);
  check_int "offset" 0xabc (Hw.Addr.page_offset 0x2abc)

let test_index_at_level () =
  (* va = idx4<<39 | idx3<<30 | idx2<<21 | idx1<<12 *)
  let va = (3 lsl 39) lor (5 lsl 30) lor (7 lsl 21) lor (11 lsl 12) lor 0x123 in
  check_int "l4" 3 (Hw.Addr.index_at_level ~lvl:4 va);
  check_int "l3" 5 (Hw.Addr.index_at_level ~lvl:3 va);
  check_int "l2" 7 (Hw.Addr.index_at_level ~lvl:2 va);
  check_int "l1" 11 (Hw.Addr.index_at_level ~lvl:1 va);
  check_raises "bad level" (Invalid_argument "Addr.index_at_level") (fun () ->
      ignore (Hw.Addr.index_at_level ~lvl:5 va))

let test_pages_of_bytes () =
  check_int "zero" 0 (Hw.Addr.pages_of_bytes 0);
  check_int "one byte" 1 (Hw.Addr.pages_of_bytes 1);
  check_int "exact" 2 (Hw.Addr.pages_of_bytes 8192);
  check_int "over" 3 (Hw.Addr.pages_of_bytes 8193)

(* ------------------------------ Pte ------------------------------- *)

let test_pte_roundtrip () =
  let flags = { Hw.Pte.writable = true; user = true; nx = true; huge = false; pkey = 5 } in
  let e = Hw.Pte.make ~pfn:1234 ~flags in
  check_bool "present" true (Hw.Pte.is_present e);
  check_int "pfn" 1234 (Hw.Pte.pfn e);
  check_int "pkey" 5 (Hw.Pte.pkey e);
  check_bool "w" true (Hw.Pte.is_writable e);
  check_bool "u" true (Hw.Pte.is_user e);
  check_bool "nx" true (Hw.Pte.is_nx e);
  check_bool "huge" false (Hw.Pte.is_huge e)

let test_pte_empty_and_bits () =
  check_bool "empty not present" false (Hw.Pte.is_present Hw.Pte.empty);
  let e = Hw.Pte.make ~pfn:1 ~flags:Hw.Pte.default_flags in
  let e = Hw.Pte.mark_accessed e in
  let e = Hw.Pte.mark_dirty e in
  check_bool "A" true (Hw.Pte.is_accessed e);
  check_bool "D" true (Hw.Pte.is_dirty e);
  let e = Hw.Pte.clear_accessed_dirty e in
  check_bool "A cleared" false (Hw.Pte.is_accessed e);
  check_bool "D cleared" false (Hw.Pte.is_dirty e)

let test_pte_with_pkey () =
  let e = Hw.Pte.make ~pfn:42 ~flags:Hw.Pte.default_flags in
  let e = Hw.Pte.with_pkey e 9 in
  check_int "pkey updated" 9 (Hw.Pte.pkey e);
  check_int "pfn preserved" 42 (Hw.Pte.pfn e);
  check_raises "pkey range" (Invalid_argument "Pte.with_pkey") (fun () ->
      ignore (Hw.Pte.with_pkey e 16))

let test_pte_bad_args () =
  check_raises "pfn range" (Invalid_argument "Pte.make: pfn out of range") (fun () ->
      ignore (Hw.Pte.make ~pfn:(-1) ~flags:Hw.Pte.default_flags));
  check_raises "pkey range" (Invalid_argument "Pte.make: pkey out of range") (fun () ->
      ignore (Hw.Pte.make ~pfn:1 ~flags:{ Hw.Pte.default_flags with pkey = 16 }))

let prop_pte_roundtrip =
  QCheck.Test.make ~name:"pte encode/decode roundtrip" ~count:500
    QCheck.(quad (int_bound 100000) bool bool (int_bound 15))
    (fun (pfn, w, u, pkey) ->
      let flags = { Hw.Pte.writable = w; user = u; nx = false; huge = false; pkey } in
      let e = Hw.Pte.make ~pfn ~flags in
      Hw.Pte.pfn e = pfn && Hw.Pte.flags_of e = flags)

(* ---------------------------- Phys_mem ---------------------------- *)

let test_phys_alloc_free () =
  let m = Hw.Phys_mem.create ~frames:64 in
  let a = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
  let b = Hw.Phys_mem.alloc m ~owner:(Hw.Phys_mem.Container 1) ~kind:Hw.Phys_mem.Data in
  check_bool "distinct" true (a <> b);
  check_bool "owner a" true (Hw.Phys_mem.owner m a = Hw.Phys_mem.Host);
  check_bool "owner b" true (Hw.Phys_mem.owner m b = Hw.Phys_mem.Container 1);
  check_int "free count" 62 (Hw.Phys_mem.free_frames m);
  Hw.Phys_mem.free m a;
  check_int "free count after" 63 (Hw.Phys_mem.free_frames m);
  check_raises "double free" (Invalid_argument "Phys_mem.free: double free") (fun () ->
      Hw.Phys_mem.free m a)

let test_phys_contiguous () =
  let m = Hw.Phys_mem.create ~frames:32 in
  let base = Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:8 in
  for i = base to base + 7 do
    check_bool "owned" true (Hw.Phys_mem.owner m i = Hw.Phys_mem.Host)
  done;
  (* Fragment: free middle, ask for a larger run. *)
  Hw.Phys_mem.free m (base + 3);
  let base2 = Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:16 in
  check_bool "skips fragmented hole" true (base2 >= base + 8)

let test_phys_oom () =
  let m = Hw.Phys_mem.create ~frames:4 in
  for _ = 1 to 4 do
    ignore (Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data)
  done;
  check_raises "oom" Hw.Phys_mem.Out_of_memory (fun () ->
      ignore (Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data));
  check_raises "contig oom" Hw.Phys_mem.Out_of_memory (fun () ->
      ignore (Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:2))

let test_phys_table_entries () =
  let m = Hw.Phys_mem.create ~frames:8 in
  let f = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
  Hw.Phys_mem.write_entry m ~pfn:f ~index:5 42L;
  check_bool "read back" true (Hw.Phys_mem.read_entry m ~pfn:f ~index:5 = 42L);
  check_bool "other slot zero" true (Hw.Phys_mem.read_entry m ~pfn:f ~index:6 = 0L);
  Hw.Phys_mem.clear_table m f;
  check_bool "cleared" true (Hw.Phys_mem.read_entry m ~pfn:f ~index:5 = 0L);
  check_raises "bad index" (Invalid_argument "Phys_mem.read_entry") (fun () ->
      ignore (Hw.Phys_mem.read_entry m ~pfn:f ~index:512))

let test_phys_refcount () =
  let m = Hw.Phys_mem.create ~frames:8 in
  let f = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
  Hw.Phys_mem.incr_ref m f;
  Hw.Phys_mem.incr_ref m f;
  check_int "refcount" 2 (Hw.Phys_mem.refcount m f);
  Hw.Phys_mem.decr_ref m f;
  check_int "refcount down" 1 (Hw.Phys_mem.refcount m f);
  Hw.Phys_mem.decr_ref m f;
  check_raises "underflow" (Invalid_argument "Phys_mem.decr_ref: refcount underflow") (fun () ->
      Hw.Phys_mem.decr_ref m f)

(* [iter_owned] against a reference filter over [owner], after seeded
   alloc/free/set_owner churn across ids 0..3 ([Container k] and
   [Ksm k] share id k) with [Host] frames mixed in. *)
let owned_reference m id =
  List.filter
    (fun pfn ->
      match Hw.Phys_mem.owner m pfn with
      | Hw.Phys_mem.Container k | Hw.Phys_mem.Ksm k -> k = id
      | Hw.Phys_mem.Host | Hw.Phys_mem.Free -> false)
    (List.init (Hw.Phys_mem.total_frames m) Fun.id)

let visited m id =
  let acc = ref [] in
  Hw.Phys_mem.iter_owned m ~id (fun pfn -> acc := pfn :: !acc);
  List.rev !acc

let churned_mem ?(frames = 301) seed =
  let rng = Random.State.make [| seed |] in
  let m = Hw.Phys_mem.create ~frames in
  let random_owner () =
    let k = Random.State.int rng 4 in
    match Random.State.int rng 3 with
    | 0 -> Hw.Phys_mem.Host
    | 1 -> Hw.Phys_mem.Container k
    | _ -> Hw.Phys_mem.Ksm k
  in
  let live = ref [] in
  for _ = 1 to 600 do
    match (Random.State.int rng 4, !live) with
    | 0, pfn :: rest ->
        Hw.Phys_mem.free m pfn;
        live := rest
    | 1, pfn :: _ -> Hw.Phys_mem.set_owner m pfn (random_owner ())
    | _ -> (
        match Hw.Phys_mem.alloc m ~owner:(random_owner ()) ~kind:Hw.Phys_mem.Data with
        | pfn -> live := pfn :: !live
        | exception Hw.Phys_mem.Out_of_memory -> ())
  done;
  m

(* Frames allocated in pfn order, 32-frame bitmap word by word: word
   [w mod 3 = 0] wholly owned by [Container 1], [w mod 3 = 1] wholly
   free, [w mod 3 = 2] mixed (owned, host, KSM-owned and free frames). *)
let patterned_mem frames =
  let m = Hw.Phys_mem.create ~frames in
  let owner pfn =
    match ((pfn / 32) mod 3, pfn mod 4) with
    | 0, _ -> Some (Hw.Phys_mem.Container 1)
    | 1, _ | 2, 3 -> None
    | 2, 0 -> Some (Hw.Phys_mem.Container 1)
    | 2, 1 -> Some Hw.Phys_mem.Host
    | _ -> Some (Hw.Phys_mem.Ksm 1)
  in
  for pfn = 0 to frames - 1 do
    let o = Option.value (owner pfn) ~default:Hw.Phys_mem.Host in
    check_int "allocation in pfn order" pfn (Hw.Phys_mem.alloc m ~owner:o ~kind:Hw.Phys_mem.Data)
  done;
  for pfn = 0 to frames - 1 do
    if owner pfn = None then Hw.Phys_mem.free m pfn
  done;
  m

let test_iter_owned_matches_filter () =
  (* Frame counts that end on, just past and short of a bitmap word. *)
  List.iter
    (fun frames ->
      let m = patterned_mem frames in
      for id = 0 to 2 do
        check (list int)
          (Printf.sprintf "%d frames, id %d: free, owned and mixed words" frames id)
          (owned_reference m id) (visited m id)
      done)
    [ 1; 31; 32; 33; 96; 97; 150; 301 ];
  List.iter
    (fun (frames, seed) ->
      let m = churned_mem ~frames seed in
      for id = 0 to 4 do
        check (list int)
          (Printf.sprintf "%d churned frames, seed %d, id %d" frames seed id)
          (owned_reference m id) (visited m id)
      done)
    [ (31, 4); (64, 5); (65, 6); (95, 7) ];
  List.iter
    (fun seed ->
      let m = churned_mem seed in
      for id = 0 to 4 do
        let seen = visited m id in
        check (list int) (Printf.sprintf "seed %d id %d: reference frames, pfn order" seed id)
          (owned_reference m id) seen;
        List.iter
          (fun pfn ->
            check_bool "never a Host or Free frame" false
              (match Hw.Phys_mem.owner m pfn with
              | Hw.Phys_mem.Host | Hw.Phys_mem.Free -> true
              | _ -> false))
          seen
      done;
      let holds o = Hw.Phys_mem.count_owned m (Hw.Phys_mem.equal_owner o) > 0 in
      check_bool "id 0 owns frames" true (visited m 0 <> []);
      check_bool "some id is held by both a container and its KSM" true
        (List.exists
           (fun k -> holds (Hw.Phys_mem.Container k) && holds (Hw.Phys_mem.Ksm k))
           [ 0; 1; 2; 3 ]))
    [ 1; 2; 3 ]

let test_iter_owned_free_in_callback () =
  let m = churned_mem 7 in
  for id = 0 to 3 do
    let before = Hw.Phys_mem.free_frames m in
    let n = List.length (owned_reference m id) in
    let others = List.map (owned_reference m) (List.filter (( <> ) id) [ 0; 1; 2; 3 ]) in
    Hw.Phys_mem.iter_owned m ~id (Hw.Phys_mem.free m);
    check_int (Printf.sprintf "id %d: free count" id) (before + n) (Hw.Phys_mem.free_frames m);
    check (list int) "nothing left for the id" [] (visited m id);
    check (list (list int)) "other ids untouched" others
      (List.map (owned_reference m) (List.filter (( <> ) id) [ 0; 1; 2; 3 ]))
  done;
  check_int "only Host frames remain allocated"
    (Hw.Phys_mem.count_owned m (fun o -> o = Hw.Phys_mem.Host))
    (Hw.Phys_mem.total_frames m - Hw.Phys_mem.free_frames m)

(* The written span bounds every table walker: after any sequence of
   arena writes, clears, frees and re-allocations, every entry outside
   [written_lo, written_hi] reads zero, the span covers every index
   written since the frame's last reset, and a frame not written since
   then (never given a slot, or scrubbed) has the empty span.  A model
   holds the expected contents of each frame. *)
let test_written_span_property () =
  let frames = 8 and entries = Hw.Addr.entries_per_table in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let m = Hw.Phys_mem.create ~frames in
      for _ = 1 to frames do
        ignore (Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1))
      done;
      let model = Array.init frames (fun _ -> Array.make entries 0L) in
      (* Lowest and highest index written since the frame's last reset. *)
      let lo = Array.make frames entries and hi = Array.make frames (-1) in
      let reset pfn =
        Array.fill model.(pfn) 0 entries 0L;
        lo.(pfn) <- entries;
        hi.(pfn) <- -1
      in
      let wrote pfn a b =
        lo.(pfn) <- min lo.(pfn) a;
        hi.(pfn) <- max hi.(pfn) b
      in
      let value () =
        (* Zero often, so entries written back to zero stay in the span. *)
        if Random.State.int rng 4 = 0 then 0L else Random.State.int64 rng Int64.max_int
      in
      for step = 1 to 400 do
        let pfn = Random.State.int rng frames in
        (match Random.State.int rng 6 with
        | 0 ->
            let index = Random.State.int rng entries and v = value () in
            Hw.Phys_mem.write_entry m ~pfn ~index v;
            model.(pfn).(index) <- v;
            wrote pfn index index
        | 1 ->
            let index = Random.State.int rng entries and v = Random.State.bits rng in
            Hw.Phys_mem.write_word m ~pfn ~index v;
            model.(pfn).(index) <- Int64.of_int v;
            wrote pfn index index
        | 2 ->
            let len = Random.State.int rng 64 in
            let b = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
            Hw.Phys_mem.write_bytes m ~pfn b ~off:0 ~len;
            if len > 0 then begin
              let words = (len + 7) / 8 in
              let padded = Bytes.make (words * 8) '\000' in
              Bytes.blit b 0 padded 0 len;
              for w = 0 to words - 1 do
                model.(pfn).(w) <- Bytes.get_int64_le padded (w * 8)
              done;
              wrote pfn 0 (words - 1)
            end
        | 3 ->
            Hw.Phys_mem.clear_table m pfn;
            reset pfn
        | 4 ->
            Hw.Phys_mem.free m pfn;
            check_int "re-alloc returns the freed frame" pfn
              (Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1));
            reset pfn
        | _ -> ());
        for f = 0 to frames - 1 do
          let wlo = Hw.Phys_mem.written_lo m f and whi = Hw.Phys_mem.written_hi m f in
          let where = Printf.sprintf "seed %d step %d frame %d" seed step f in
          if hi.(f) < 0 then begin
            check_int (where ^ ": empty span lo") entries wlo;
            check_int (where ^ ": empty span hi") (-1) whi
          end
          else
            check_bool (where ^ ": span covers every write") true (wlo <= lo.(f) && whi >= hi.(f));
          for index = 0 to entries - 1 do
            let got = Hw.Phys_mem.read_entry m ~pfn:f ~index in
            if got <> model.(f).(index) then failf "%s: entry %d differs from the model" where index;
            if (index < wlo || index > whi) && got <> 0L then
              failf "%s: entry %d outside the span is non-zero" where index
          done
        done
      done)
    [ 1; 2; 3; 4; 5 ]

(* --------------------------- Page_table --------------------------- *)

let mk_pt () =
  let m = Hw.Phys_mem.create ~frames:4096 in
  (m, Hw.Page_table.create m ~owner:Hw.Phys_mem.Host)

let test_map_walk () =
  let _, pt = mk_pt () in
  ignore (Hw.Page_table.map pt ~va:0x1234000 ~pfn:77 ~flags:Hw.Pte.default_flags ());
  let w = Hw.Page_table.walk pt 0x1234567 in
  check_int "pfn" 77 (Hw.Pte.pfn w.Hw.Page_table.pte);
  check_int "leaf level" 1 w.Hw.Page_table.leaf_level;
  check_int "refs = 4 levels" 4 w.Hw.Page_table.refs;
  check_int "translate" ((77 * 4096) lor 0x567) (Hw.Page_table.translate pt 0x1234567)

let test_walk_fault () =
  let _, pt = mk_pt () in
  check_bool "unmapped" false (Hw.Page_table.is_mapped pt 0x9999000);
  (match Hw.Page_table.walk pt 0x9999000 with
  | exception Hw.Page_table.Translation_fault { va; _ } -> check_int "fault va" 0x9999000 va
  | _ -> fail "expected fault");
  ignore (Hw.Page_table.map pt ~va:0x9999000 ~pfn:1 ~flags:Hw.Pte.default_flags ());
  check_bool "mapped now" true (Hw.Page_table.is_mapped pt 0x9999000)

let test_unmap_update () =
  let _, pt = mk_pt () in
  ignore (Hw.Page_table.map pt ~va:0x4000 ~pfn:9 ~flags:Hw.Pte.default_flags ());
  Hw.Page_table.update pt 0x4000 (fun e -> Hw.Pte.with_writable e false);
  let w = Hw.Page_table.walk pt 0x4000 in
  check_bool "read-only now" false (Hw.Pte.is_writable w.Hw.Page_table.pte);
  let old = Hw.Page_table.unmap pt 0x4000 in
  check_int "unmapped pfn" 9 (Hw.Pte.pfn old);
  check_bool "gone" false (Hw.Page_table.is_mapped pt 0x4000);
  check_bool "unmap idempotent" true (Hw.Page_table.unmap pt 0x4000 = Hw.Pte.empty)

let test_huge_map () =
  let _, pt = mk_pt () in
  let va = 0x4000_0000 in
  ignore (Hw.Page_table.map_huge pt ~va ~pfn:512 ~flags:Hw.Pte.default_flags ());
  let w = Hw.Page_table.walk pt (va + 0x12345) in
  check_int "huge leaf level" 2 w.Hw.Page_table.leaf_level;
  check_int "refs = 3" 3 w.Hw.Page_table.refs;
  check_int "translate inside huge" ((512 * 4096) lor 0x12345) (Hw.Page_table.translate pt (va + 0x12345));
  check_raises "unaligned huge" (Invalid_argument "Page_table.map_huge: va not 2 MiB aligned")
    (fun () -> ignore (Hw.Page_table.map_huge pt ~va:0x1000 ~pfn:0 ~flags:Hw.Pte.default_flags ()))

let test_accessed_dirty () =
  let _, pt = mk_pt () in
  ignore (Hw.Page_table.map pt ~va:0x7000 ~pfn:3 ~flags:Hw.Pte.default_flags ());
  Hw.Page_table.set_accessed_dirty pt 0x7000 ~write:true;
  let w = Hw.Page_table.walk pt 0x7000 in
  check_bool "A" true (Hw.Pte.is_accessed w.Hw.Page_table.pte);
  check_bool "D" true (Hw.Pte.is_dirty w.Hw.Page_table.pte)

let test_count_mappings () =
  let _, pt = mk_pt () in
  for i = 0 to 9 do
    ignore (Hw.Page_table.map pt ~va:(0x10000 + (i * 4096)) ~pfn:i ~flags:Hw.Pte.default_flags ())
  done;
  check_int "count" 10 (Hw.Page_table.count_mappings pt);
  ignore (Hw.Page_table.unmap pt 0x10000);
  check_int "count after unmap" 9 (Hw.Page_table.count_mappings pt)

let prop_map_then_walk =
  QCheck.Test.make ~name:"random map set: walk agrees with mapping" ~count:50
    QCheck.(small_list (pair (int_bound 0xFFFF) (int_bound 3000)))
    (fun pairs ->
      let _, pt = mk_pt () in
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (vpn, pfn) ->
          let va = vpn * 4096 in
          ignore (Hw.Page_table.map pt ~va ~pfn ~flags:Hw.Pte.default_flags ());
          Hashtbl.replace tbl va pfn)
        pairs;
      Hashtbl.fold
        (fun va pfn acc ->
          acc && Hw.Pte.pfn (Hw.Page_table.walk pt va).Hw.Page_table.pte = pfn)
        tbl true)

let suite =
  [
    ( "hw/addr",
      [
        test_case "page alignment" `Quick test_page_alignment;
        test_case "pfn roundtrip" `Quick test_pfn_roundtrip;
        test_case "index at level" `Quick test_index_at_level;
        test_case "pages of bytes" `Quick test_pages_of_bytes;
      ] );
    ( "hw/pte",
      [
        test_case "roundtrip" `Quick test_pte_roundtrip;
        test_case "empty + A/D bits" `Quick test_pte_empty_and_bits;
        test_case "with_pkey" `Quick test_pte_with_pkey;
        test_case "bad args" `Quick test_pte_bad_args;
        QCheck_alcotest.to_alcotest prop_pte_roundtrip;
      ] );
    ( "hw/phys_mem",
      [
        test_case "alloc/free" `Quick test_phys_alloc_free;
        test_case "contiguous + fragmentation" `Quick test_phys_contiguous;
        test_case "out of memory" `Quick test_phys_oom;
        test_case "table entries" `Quick test_phys_table_entries;
        test_case "refcount" `Quick test_phys_refcount;
        test_case "iter_owned matches an owner filter" `Quick test_iter_owned_matches_filter;
        test_case "iter_owned callback may free" `Quick test_iter_owned_free_in_callback;
        test_case "written span bounds every non-zero entry" `Quick test_written_span_property;
      ] );
    ( "hw/page_table",
      [
        test_case "map + walk + translate" `Quick test_map_walk;
        test_case "translation fault" `Quick test_walk_fault;
        test_case "unmap + update" `Quick test_unmap_update;
        test_case "2 MiB huge mappings" `Quick test_huge_map;
        test_case "accessed/dirty" `Quick test_accessed_dirty;
        test_case "count mappings" `Quick test_count_mappings;
        QCheck_alcotest.to_alcotest prop_map_then_walk;
      ] );
  ]
