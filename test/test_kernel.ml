(* Tests for the kernel substrate: buddy, vma, mm, tmpfs, pipe,
   virtio, net, task/sched, and end-to-end syscalls on the bare
   platform. *)

open Alcotest

let check_int = check int
let check_bool = check bool

let bare_platform () =
  let m = Hw.Machine.create ~cpus:1 ~mem_mib:64 () in
  Kernel_model.Platform.bare m

(* ------------------------------ Buddy ----------------------------- *)

let test_buddy_basic () =
  let b = Kernel_model.Buddy.create ~base:100 ~frames:64 in
  check_int "total" 64 (Kernel_model.Buddy.total_frames b);
  let f1 = Kernel_model.Buddy.alloc b in
  let f2 = Kernel_model.Buddy.alloc b in
  check_bool "distinct" true (f1 <> f2);
  check_bool "in range" true (f1 >= 100 && f1 < 164);
  check_int "free" 62 (Kernel_model.Buddy.free_frames b);
  Kernel_model.Buddy.free b f1;
  Kernel_model.Buddy.free b f2;
  check_int "all back" 64 (Kernel_model.Buddy.free_frames b);
  check_bool "invariants" true (Kernel_model.Buddy.check_invariants b)

let test_buddy_coalesce () =
  let b = Kernel_model.Buddy.create ~base:0 ~frames:16 in
  let fs = List.init 16 (fun _ -> Kernel_model.Buddy.alloc b) in
  check_int "exhausted" 0 (Kernel_model.Buddy.free_frames b);
  check_raises "oom" Kernel_model.Buddy.Out_of_memory (fun () ->
      ignore (Kernel_model.Buddy.alloc b));
  List.iter (Kernel_model.Buddy.free b) fs;
  (* After coalescing we must be able to allocate the whole range as
     one max-order block again. *)
  let big = Kernel_model.Buddy.alloc_order b 4 in
  check_int "coalesced to order 4" 0 big

let test_buddy_huge_alignment () =
  let b = Kernel_model.Buddy.create ~base:0 ~frames:2048 in
  let h = Kernel_model.Buddy.alloc_huge b in
  check_int "512-aligned" 0 (h land 511);
  Kernel_model.Buddy.free b h;
  check_bool "invariants" true (Kernel_model.Buddy.check_invariants b)

let test_buddy_double_free () =
  let b = Kernel_model.Buddy.create ~base:0 ~frames:8 in
  let f = Kernel_model.Buddy.alloc b in
  Kernel_model.Buddy.free b f;
  check_raises "double free" (Invalid_argument "Buddy.free: not an allocated block head")
    (fun () -> Kernel_model.Buddy.free b f)

let prop_buddy_no_overlap =
  QCheck.Test.make ~name:"buddy: live allocations never overlap" ~count:60
    QCheck.(small_list (int_bound 2))
    (fun orders ->
      let b = Kernel_model.Buddy.create ~base:0 ~frames:256 in
      let live = ref [] in
      List.iter
        (fun order ->
          (match Kernel_model.Buddy.alloc_order b order with
          | pfn -> live := (pfn, 1 lsl order) :: !live
          | exception Kernel_model.Buddy.Out_of_memory -> ());
          (* randomly free the oldest half of the time *)
          match !live with
          | (p, _) :: rest when order = 1 ->
              Kernel_model.Buddy.free b p;
              live := rest
          | _ -> ())
        orders;
      let no_overlap =
        let rec pairs = function
          | [] -> true
          | (p1, n1) :: rest ->
              List.for_all (fun (p2, n2) -> p1 + n1 <= p2 || p2 + n2 <= p1) rest && pairs rest
        in
        pairs (List.sort compare !live)
      in
      no_overlap && Kernel_model.Buddy.check_invariants b)

(* Free-and-reallocate churn on single- and multi-zone allocators must
   leave every consistency check passing, and a fresh allocator that
   replays [allocated_blocks] through [reserve] (snapshot restore) must
   reach the same allocated state. *)
let prop_buddy_invariants_under_churn =
  let module B = Kernel_model.Buddy in
  QCheck.Test.make ~name:"buddy: invariants hold under alloc/free churn" ~count:100
    QCheck.(pair bool (list_of_size Gen.(int_range 1 300) (pair (int_bound 3) (int_bound 1000))))
    (fun (multi, ops) ->
      let segments = if multi then [ (1024, 600); (0, 37); (64, 200) ] else [ (5, 900) ] in
      let b = B.create_zones ~segments in
      let live = ref [] in
      let churn_ok =
        List.for_all
          (fun (kind, x) ->
            (match (kind, !live) with
            | (0 | 1), _ -> (
                match B.alloc_order b (x mod 4) with
                | pfn -> live := pfn :: !live
                | exception B.Out_of_memory -> ())
            | _, [] -> ()
            | _, l ->
                let pfn = List.nth l (x mod List.length l) in
                B.free b pfn;
                live := List.filter (fun p -> p <> pfn) l);
            B.check_invariants b)
          ops
      in
      let replay = B.create_zones ~segments in
      List.iter (fun (pfn, order) -> B.reserve replay pfn order) (B.allocated_blocks b);
      let replayed =
        B.allocated_blocks replay = B.allocated_blocks b
        && B.free_frames replay = B.free_frames b
        && B.check_invariants replay
      in
      List.iter (B.free b) !live;
      churn_ok && replayed && B.check_invariants b && B.free_frames b = B.total_frames b)

(* ------------- Buddy against the list-based reference ------------- *)

type 'a outcome = Done of 'a | Oom | Invalid of string

let run_new f =
  match f () with
  | v -> Done v
  | exception Kernel_model.Buddy.Out_of_memory -> Oom
  | exception Invalid_argument m -> Invalid m

let run_ref f =
  match f () with
  | v -> Done v
  | exception List_buddy.Out_of_memory -> Oom
  | exception Invalid_argument m -> Invalid m

let show_outcome show = function
  | Done v -> show v
  | Oom -> "Out_of_memory"
  | Invalid m -> "Invalid_argument " ^ m

(* Drive [Kernel_model.Buddy] and [List_buddy] with one seeded stream of
   alloc / alloc_order / alloc_huge / free / reserve calls, valid and
   not, and require the same answer from both at every step: the same
   pfn or the same exception, the same free count, the same allocated
   blocks and the same invariant verdict.  Allocation-heavy and
   free-heavy phases alternate so free lists grow long and zones run
   dry. *)
let buddy_differential ~segments ~seed ~steps =
  let module B = Kernel_model.Buddy in
  let nb = B.create_zones ~segments and rb = List_buddy.create_zones ~segments in
  let rng = Random.State.make [| seed |] in
  let pick n = Random.State.int rng n in
  let live = ref [] in
  let taken pfn = live := pfn :: !live in
  let released pfn = live := List.filter (fun p -> p <> pfn) !live in
  let zone () = List.nth segments (pick (List.length segments)) in
  let any_pfn () =
    let base, frames = zone () in
    base - 2 + pick (frames + 4)
  in
  let any_order () = if pick 8 = 0 then pick (B.max_order + 3) - 1 else pick 4 in
  for step = 1 to steps do
    let where = Printf.sprintf "seed %d step %d" seed step in
    let freeing = step / 150 mod 2 = 1 in
    let k = pick 10 in
    let op, got, want, record =
      if k < if freeing then 2 else 6 then
        let op, alloc_new, alloc_ref =
          match pick 4 with
          | 0 -> ("alloc", B.alloc, List_buddy.alloc)
          | 1 -> ("alloc_huge", B.alloc_huge, List_buddy.alloc_huge)
          | _ ->
              let o = any_order () in
              ( Printf.sprintf "alloc_order %d" o,
                (fun b -> B.alloc_order b o),
                fun b -> List_buddy.alloc_order b o )
        in
        ( op,
          run_new (fun () -> alloc_new nb),
          run_ref (fun () -> alloc_ref rb),
          taken )
      else if k < 9 then
        let pfn =
          match !live with
          | _ :: _ as l when pick 10 > 0 -> List.nth l (pick (List.length l))
          | _ -> any_pfn ()
        in
        ( Printf.sprintf "free %d" pfn,
          run_new (fun () -> B.free nb pfn; pfn),
          run_ref (fun () -> List_buddy.free rb pfn; pfn),
          released )
      else
        let o = any_order () in
        let pfn =
          if pick 10 = 0 then any_pfn ()
          else
            let base, frames = zone () in
            let rel = pick frames in
            base + if pick 4 = 0 || o < 0 then rel else rel land lnot ((1 lsl o) - 1)
        in
        ( Printf.sprintf "reserve %d order %d" pfn o,
          run_new (fun () -> B.reserve nb pfn o; pfn),
          run_ref (fun () -> List_buddy.reserve rb pfn o; pfn),
          taken )
    in
    check string (where ^ ": " ^ op) (show_outcome string_of_int want) (show_outcome string_of_int got);
    (match got with Done pfn -> record pfn | Oom | Invalid _ -> ());
    check int (where ^ ": free_frames") (List_buddy.free_frames rb) (B.free_frames nb);
    check
      (list (pair int int))
      (where ^ ": allocated_blocks") (List_buddy.allocated_blocks rb) (B.allocated_blocks nb);
    check bool (where ^ ": check_invariants") (List_buddy.check_invariants rb) (B.check_invariants nb)
  done

let test_buddy_matches_reference segments () =
  List.iter (fun seed -> buddy_differential ~segments ~seed ~steps:1500) [ 1; 2; 3 ]

(* ------------------------------- Vma ------------------------------ *)

let test_vma_add_find_overlap () =
  let v = Kernel_model.Vma.create () in
  let a =
    Kernel_model.Vma.add v ~start:0x10000 ~stop:0x14000 ~prot:Kernel_model.Vma.prot_rw
      ~backing:Kernel_model.Vma.Anon
  in
  check_bool "find inside" true (Kernel_model.Vma.find v 0x12fff = Some a);
  check_bool "find outside" true (Kernel_model.Vma.find v 0x14000 = None);
  check_bool "overlap detect" true (Kernel_model.Vma.overlaps v ~start:0x13000 ~stop:0x15000);
  check_bool "no overlap" false (Kernel_model.Vma.overlaps v ~start:0x14000 ~stop:0x15000);
  check_raises "add overlapping" Kernel_model.Vma.Overlap (fun () ->
      ignore
        (Kernel_model.Vma.add v ~start:0x13000 ~stop:0x15000 ~prot:Kernel_model.Vma.prot_rw
           ~backing:Kernel_model.Vma.Anon))

let test_vma_remove_splits () =
  let v = Kernel_model.Vma.create () in
  ignore
    (Kernel_model.Vma.add v ~start:0x10000 ~stop:0x20000 ~prot:Kernel_model.Vma.prot_rw
       ~backing:Kernel_model.Vma.Anon);
  let removed = Kernel_model.Vma.remove v ~start:0x14000 ~stop:0x18000 in
  check_int "removed pages" 4 removed;
  check_bool "left kept" true (Kernel_model.Vma.find v 0x13fff <> None);
  check_bool "hole" true (Kernel_model.Vma.find v 0x15000 = None);
  check_bool "right kept" true (Kernel_model.Vma.find v 0x18000 <> None);
  check_int "two areas" 2 (Kernel_model.Vma.count v)

let test_vma_protect_splits () =
  let v = Kernel_model.Vma.create () in
  ignore
    (Kernel_model.Vma.add v ~start:0x10000 ~stop:0x20000 ~prot:Kernel_model.Vma.prot_rw
       ~backing:Kernel_model.Vma.Anon);
  ignore (Kernel_model.Vma.protect v ~start:0x14000 ~stop:0x18000 ~prot:Kernel_model.Vma.prot_ro);
  (match Kernel_model.Vma.find v 0x15000 with
  | Some a -> check_bool "ro" false a.Kernel_model.Vma.prot.Kernel_model.Vma.write
  | None -> fail "area vanished");
  (match Kernel_model.Vma.find v 0x11000 with
  | Some a -> check_bool "left still rw" true a.Kernel_model.Vma.prot.Kernel_model.Vma.write
  | None -> fail "left vanished");
  check_int "total pages preserved" 16 (Kernel_model.Vma.total_pages v)

let test_vma_find_gap () =
  let v = Kernel_model.Vma.create () in
  ignore
    (Kernel_model.Vma.add v ~start:0x10000 ~stop:0x14000 ~prot:Kernel_model.Vma.prot_rw
       ~backing:Kernel_model.Vma.Anon);
  ignore
    (Kernel_model.Vma.add v ~start:0x16000 ~stop:0x18000 ~prot:Kernel_model.Vma.prot_rw
       ~backing:Kernel_model.Vma.Anon);
  check_int "fits in hole" 0x14000 (Kernel_model.Vma.find_gap v ~from:0x10000 ~pages:2);
  check_int "skips small hole" 0x18000 (Kernel_model.Vma.find_gap v ~from:0x10000 ~pages:3)

(* ------------------------------- Mm ------------------------------- *)

let test_mm_demand_paging () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let base = Kernel_model.Mm.mmap mm ~pages:8 ~prot:Kernel_model.Vma.prot_rw ~backing:Kernel_model.Vma.Anon in
  check_int "no faults yet" 0 (Kernel_model.Mm.fault_count mm);
  Kernel_model.Mm.touch mm base ~write:true;
  Kernel_model.Mm.touch mm base ~write:false;
  check_int "one fault for two touches" 1 (Kernel_model.Mm.fault_count mm);
  let faults = Kernel_model.Mm.touch_range mm ~start:base ~pages:8 ~write:true in
  check_int "remaining pages fault" 7 faults;
  check_int "resident" 8 (Kernel_model.Mm.resident_pages mm)

let test_mm_munmap_frees () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let base = Kernel_model.Mm.mmap mm ~pages:4 ~prot:Kernel_model.Vma.prot_rw ~backing:Kernel_model.Vma.Anon in
  ignore (Kernel_model.Mm.touch_range mm ~start:base ~pages:4 ~write:true);
  Kernel_model.Mm.munmap mm ~start:base ~pages:4;
  check_int "nothing resident" 0 (Kernel_model.Mm.resident_pages mm);
  check_raises "segfault after unmap" (Kernel_model.Mm.Segfault base) (fun () ->
      Kernel_model.Mm.touch mm base ~write:false)

let test_mm_mprotect_segfault () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let base = Kernel_model.Mm.mmap mm ~pages:1 ~prot:Kernel_model.Vma.prot_rw ~backing:Kernel_model.Vma.Anon in
  Kernel_model.Mm.touch mm base ~write:true;
  Kernel_model.Mm.mprotect mm ~start:base ~pages:1 ~prot:Kernel_model.Vma.prot_ro;
  (* A write into a fresh RO page must segfault. *)
  let base2 = Kernel_model.Mm.mmap mm ~pages:1 ~prot:Kernel_model.Vma.prot_ro ~backing:Kernel_model.Vma.Anon in
  check_raises "write to ro" (Kernel_model.Mm.Segfault base2) (fun () ->
      Kernel_model.Mm.touch mm base2 ~write:true)

let test_mm_brk () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let b0 = Kernel_model.Mm.brk mm ~delta_pages:4 in
  let b1 = Kernel_model.Mm.brk mm ~delta_pages:(-2) in
  check_int "brk grows then shrinks" (b0 - (2 * 4096)) b1;
  check_raises "below base" (Invalid_argument "Mm.brk: below base") (fun () ->
      ignore (Kernel_model.Mm.brk mm ~delta_pages:(-100)))

let test_mm_fork_copies () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let base = Kernel_model.Mm.mmap mm ~pages:4 ~prot:Kernel_model.Vma.prot_rw ~backing:Kernel_model.Vma.Anon in
  ignore (Kernel_model.Mm.touch_range mm ~start:base ~pages:4 ~write:true);
  let child = Kernel_model.Mm.fork mm in
  check_int "child resident" 4 (Kernel_model.Mm.resident_pages child);
  (* child touching its copy does not fault *)
  let f0 = Kernel_model.Mm.fault_count child in
  Kernel_model.Mm.touch child base ~write:true;
  check_int "no fault on copied page" f0 (Kernel_model.Mm.fault_count child)

(* ------------------------------ Tmpfs ----------------------------- *)

let mk_fs () = Kernel_model.Tmpfs.create (Hw.Clock.create ())

let test_tmpfs_create_resolve () =
  let fs = mk_fs () in
  ignore (Kernel_model.Tmpfs.mkdir fs "/etc");
  let f = Kernel_model.Tmpfs.create_file fs "/etc/passwd" in
  check_bool "resolve" true (Kernel_model.Tmpfs.resolve fs "/etc/passwd" == f);
  check_bool "resolve_opt none" true (Kernel_model.Tmpfs.resolve_opt fs "/nope" = None);
  check_raises "exists" (Kernel_model.Tmpfs.Exists "/etc/passwd") (fun () ->
      ignore (Kernel_model.Tmpfs.create_file fs "/etc/passwd"));
  check_bool "readdir" true (Kernel_model.Tmpfs.readdir (Kernel_model.Tmpfs.resolve fs "/etc") = [ "passwd" ])

let test_tmpfs_read_write () =
  let fs = mk_fs () in
  let f = Kernel_model.Tmpfs.create_file fs "/data" in
  let n = Kernel_model.Tmpfs.write fs f ~off:0 (Bytes.of_string "hello world") in
  check_int "written" 11 n;
  check_int "size" 11 (Kernel_model.Tmpfs.size f);
  check_bool "read back" true (Kernel_model.Tmpfs.read fs f ~off:6 ~n:5 = Bytes.of_string "world");
  check_bool "read past eof" true (Kernel_model.Tmpfs.read fs f ~off:20 ~n:5 = Bytes.empty);
  (* sparse-extend via write at offset *)
  ignore (Kernel_model.Tmpfs.write fs f ~off:100 (Bytes.of_string "x"));
  check_int "extended" 101 (Kernel_model.Tmpfs.size f)

let test_tmpfs_unlink_truncate () =
  let fs = mk_fs () in
  let f = Kernel_model.Tmpfs.create_file fs "/t" in
  ignore (Kernel_model.Tmpfs.write fs f ~off:0 (Bytes.make 1000 'a'));
  Kernel_model.Tmpfs.truncate f ~size:10;
  check_int "truncated" 10 (Kernel_model.Tmpfs.size f);
  Kernel_model.Tmpfs.truncate f ~size:50;
  check_int "zero extended" 50 (Kernel_model.Tmpfs.size f);
  check_bool "zeros" true (Bytes.get (Kernel_model.Tmpfs.read fs f ~off:20 ~n:1) 0 = '\000');
  Kernel_model.Tmpfs.unlink fs "/t";
  check_bool "gone" true (Kernel_model.Tmpfs.resolve_opt fs "/t" = None);
  check_raises "unlink missing" (Kernel_model.Tmpfs.Not_found_path "/t") (fun () ->
      Kernel_model.Tmpfs.unlink fs "/t")

(* ------------------------------ Pipe ------------------------------ *)

let test_pipe_roundtrip () =
  let p = Kernel_model.Pipe.create ~capacity:8 (Hw.Clock.create ()) in
  check_bool "empty would block" true (Kernel_model.Pipe.read p ~n:1 = Error `Would_block);
  check_bool "write" true (Kernel_model.Pipe.write p (Bytes.of_string "abcdef") = Ok 6);
  (* capacity 8: only 2 more bytes fit *)
  check_bool "partial write" true (Kernel_model.Pipe.write p (Bytes.of_string "xyz") = Ok 2);
  check_bool "full would block" true (Kernel_model.Pipe.write p (Bytes.of_string "q") = Error `Would_block);
  check_bool "read" true (Kernel_model.Pipe.read p ~n:6 = Ok (Bytes.of_string "abcdef"));
  Kernel_model.Pipe.close_write p;
  check_bool "drain" true (Kernel_model.Pipe.read p ~n:10 = Ok (Bytes.of_string "xy"));
  check_bool "eof" true (Kernel_model.Pipe.read p ~n:10 = Ok Bytes.empty);
  Kernel_model.Pipe.close_read p;
  check_bool "epipe" true (Kernel_model.Pipe.write p (Bytes.of_string "z") = Error `Epipe)

(* ----------------------------- Virtio ----------------------------- *)

let mk_virtio ?(size = 4) ?(window = 1) () =
  Kernel_model.Virtio.create ~size ~window ~name:"test" (bare_platform ())

let test_virtio_queue () =
  let q = mk_virtio () in
  check_bool "post a" true (Kernel_model.Virtio.post q ~data:(Bytes.make 100 'a') = `Posted);
  check_bool "post b" true (Kernel_model.Virtio.post q ~data:(Bytes.make 200 'b') = `Posted);
  check_int "in flight" 2 (Kernel_model.Virtio.in_flight q);
  let kicked = ref 0 in
  check_bool "kick rang" true (Kernel_model.Virtio.kick q ~doorbell:(fun () -> incr kicked));
  check_int "kick delivered" 1 !kicked;
  (* Second kick with nothing new posted: suppressed, no doorbell. *)
  check_bool "kick suppressed" false (Kernel_model.Virtio.kick q ~doorbell:(fun () -> incr kicked));
  check_int "no second doorbell" 1 !kicked;
  (* Host services the chains, reading payloads out of guest memory. *)
  let seen = ref [] in
  check_int "serviced" 2 (Kernel_model.Virtio.service q ~handle:(fun d -> seen := d :: !seen));
  check_bool "payload bytes" true
    (match List.rev !seen with
    | [ a; b ] -> Bytes.length a = 100 && Bytes.get a 0 = 'a' && Bytes.length b = 200 && Bytes.get b 7 = 'b'
    | _ -> false);
  check_int "drained" 0 (Kernel_model.Virtio.in_flight q);
  (* Completion interrupt covers the batch; then the guest reclaims. *)
  let irqs = ref 0 in
  check_bool "completion" true (Kernel_model.Virtio.complete q ~inject:(fun () -> incr irqs));
  check_int "one interrupt" 1 !irqs;
  check_bool "no double complete" false (Kernel_model.Virtio.complete q ~inject:(fun () -> incr irqs));
  ignore (Kernel_model.Virtio.reclaim q);
  check_int "all reclaimed" 0 (Kernel_model.Virtio.unreclaimed q)

let test_virtio_backpressure () =
  (* A full ring is `Full (graceful backpressure), never an exception;
     a host service pass plus guest reclaim makes room again. *)
  let q = mk_virtio ~size:4 () in
  for i = 1 to 4 do
    check_bool (Printf.sprintf "post %d" i) true
      (Kernel_model.Virtio.post q ~data:(Bytes.make 8 'x') = `Posted)
  done;
  check_bool "ring full" true (Kernel_model.Virtio.post q ~data:(Bytes.make 8 'y') = `Full);
  ignore (Kernel_model.Virtio.kick q ~doorbell:ignore);
  ignore (Kernel_model.Virtio.service q ~handle:ignore);
  (* The used entries are published: post's opportunistic reclaim frees
     the descriptors even before the completion interrupt. *)
  check_bool "room after service" true
    (Kernel_model.Virtio.post q ~data:(Bytes.make 8 'z') = `Posted)

let test_virtio_event_idx () =
  (* window=4: after the host re-arms, kicks 1-3 are suppressed and the
     4th rings the doorbell. *)
  let q = mk_virtio ~size:16 ~window:4 () in
  let rings = ref 0 in
  let post_kick () =
    ignore (Kernel_model.Virtio.post q ~data:(Bytes.make 8 'k'));
    ignore (Kernel_model.Virtio.kick q ~doorbell:(fun () -> incr rings))
  in
  post_kick ();
  check_int "first kick rings" 1 !rings;
  ignore (Kernel_model.Virtio.service q ~handle:ignore);
  for _ = 1 to 3 do post_kick () done;
  check_int "suppressed inside window" 1 !rings;
  post_kick ();
  check_int "window boundary rings" 2 !rings;
  (* Naive mode (window=0) rings on every kick. *)
  let q0 = mk_virtio ~size:16 ~window:0 () in
  let rings0 = ref 0 in
  for _ = 1 to 3 do
    ignore (Kernel_model.Virtio.post q0 ~data:(Bytes.make 8 'n'));
    ignore (Kernel_model.Virtio.kick q0 ~doorbell:(fun () -> incr rings0))
  done;
  check_int "naive rings every time" 3 !rings0

(* ------------------------------- Net ------------------------------ *)

let test_net_endpoints () =
  let w = Kernel_model.Net.create (Hw.Clock.create ()) in
  let a = Kernel_model.Net.endpoint w in
  let b = Kernel_model.Net.endpoint w in
  check_bool "unconnected" true (Kernel_model.Net.send w a (Bytes.of_string "x") = Error `Not_connected);
  Kernel_model.Net.connect w a b;
  check_bool "send" true (Kernel_model.Net.send w a (Bytes.of_string "ping") = Ok 4);
  check_int "pending" 1 (Kernel_model.Net.pending b);
  check_bool "recv" true (Kernel_model.Net.recv b = Ok (Bytes.of_string "ping"));
  check_bool "empty" true (Kernel_model.Net.recv b = Error `Would_block)

(* --------------------- Kernel syscalls end-to-end ------------------ *)

let mk_kernel () = Kernel_model.Kernel.create (bare_platform ())

let test_kernel_file_syscalls () =
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  let fd =
    match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Open { path = "/f"; create = true }) with
    | Kernel_model.Syscall.Rint fd -> fd
    | _ -> fail "open"
  in
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Write { fd; data = Bytes.of_string "hello" }) with
  | Kernel_model.Syscall.Rint 5 -> ()
  | _ -> fail "write");
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Lseek { fd; pos = 0 }));
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Read { fd; n = 5 }) with
  | Kernel_model.Syscall.Rbytes b -> check_bool "read data" true (b = Bytes.of_string "hello")
  | _ -> fail "read");
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Stat "/f") with
  | Kernel_model.Syscall.Rstat { size; is_dir; _ } ->
      check_int "stat size" 5 size;
      check_bool "not dir" false is_dir
  | _ -> fail "stat");
  (match Kernel_model.Kernel.syscall k t (Kernel_model.Syscall.Stat "/missing") with
  | Kernel_model.Syscall.Rerr "ENOENT" -> ()
  | _ -> fail "stat missing");
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Unlink "/f"));
  match Kernel_model.Kernel.syscall k t (Kernel_model.Syscall.Open { path = "/f"; create = false }) with
  | Kernel_model.Syscall.Rerr "ENOENT" -> ()
  | _ -> fail "open after unlink"

let test_kernel_fork_exit () =
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  let base =
    match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Mmap { pages = 4; prot = Kernel_model.Vma.prot_rw }) with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  ignore (Kernel_model.Kernel.touch_range k t ~start:base ~pages:4 ~write:true);
  let child_pid =
    match Kernel_model.Kernel.syscall_exn k t Kernel_model.Syscall.Fork with
    | Kernel_model.Syscall.Rint pid -> pid
    | _ -> fail "fork"
  in
  check_bool "child exists" true (Kernel_model.Kernel.task k child_pid <> None);
  (match Kernel_model.Kernel.task k child_pid with
  | Some child ->
      check_int "fds inherited" (Kernel_model.Task.fd_count t) (Kernel_model.Task.fd_count child);
      ignore (Kernel_model.Kernel.syscall_exn k child (Kernel_model.Syscall.Exit 0))
  | None -> fail "child");
  check_bool "child reaped" true (Kernel_model.Kernel.task k child_pid = None)

let test_kernel_pipe_syscalls () =
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  let rfd, wfd =
    match Kernel_model.Kernel.syscall_exn k t Kernel_model.Syscall.Pipe with
    | Kernel_model.Syscall.Rpair (r, w) -> (r, w)
    | _ -> fail "pipe"
  in
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Write { fd = wfd; data = Bytes.of_string "ab" }));
  match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Read { fd = rfd; n = 2 }) with
  | Kernel_model.Syscall.Rbytes b -> check_bool "pipe data" true (b = Bytes.of_string "ab")
  | _ -> fail "pipe read"

let test_kernel_net_path () =
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  let fd =
    match Kernel_model.Kernel.syscall_exn k t Kernel_model.Syscall.Socket with
    | Kernel_model.Syscall.Rint fd -> fd
    | _ -> fail "socket"
  in
  let sid =
    match Kernel_model.Task.fd t fd with
    | Some (Kernel_model.Task.Socket id) -> id
    | _ -> fail "sid"
  in
  (* deliver a packet, then recv it *)
  (match Kernel_model.Kernel.deliver_packet k ~sid (Bytes.of_string "req") with
  | Ok () -> ()
  | Error `No_socket -> fail "deliver");
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Recv { fd; n = 16 }) with
  | Kernel_model.Syscall.Rbytes b -> check_bool "recv" true (b = Bytes.of_string "req")
  | _ -> fail "recv");
  check_int "irq delivered" 1 (Kernel_model.Kernel.irq_count k)

let test_kernel_ctx_switch_counts () =
  let k = mk_kernel () in
  let t1 = Kernel_model.Kernel.spawn k in
  let t2 = Kernel_model.Kernel.spawn k in
  let clock = Kernel_model.Kernel.clock k in
  let before = Hw.Clock.occurrences clock "ctx_switch" in
  Kernel_model.Kernel.context_switch k ~from_pid:t1.Kernel_model.Task.pid ~to_pid:t2.Kernel_model.Task.pid;
  Kernel_model.Kernel.context_switch k ~from_pid:t2.Kernel_model.Task.pid ~to_pid:t1.Kernel_model.Task.pid;
  check_int "two switches" (before + 2) (Hw.Clock.occurrences clock "ctx_switch")

let suite =
  [
    ( "kernel/buddy",
      [
        test_case "alloc/free" `Quick test_buddy_basic;
        test_case "coalescing" `Quick test_buddy_coalesce;
        test_case "huge alignment" `Quick test_buddy_huge_alignment;
        test_case "double free" `Quick test_buddy_double_free;
        QCheck_alcotest.to_alcotest prop_buddy_no_overlap;
        QCheck_alcotest.to_alcotest prop_buddy_invariants_under_churn;
        test_case "list reference: one zone" `Quick (test_buddy_matches_reference [ (100, 1000) ]);
        test_case "list reference: 4096 frames" `Quick (test_buddy_matches_reference [ (0, 4096) ]);
        test_case "list reference: 3 zones" `Quick
          (test_buddy_matches_reference [ (6000, 300); (0, 77); (4099, 1100) ]);
      ] );
    ( "kernel/vma",
      [
        test_case "add/find/overlap" `Quick test_vma_add_find_overlap;
        test_case "remove splits" `Quick test_vma_remove_splits;
        test_case "protect splits" `Quick test_vma_protect_splits;
        test_case "find_gap" `Quick test_vma_find_gap;
      ] );
    ( "kernel/mm",
      [
        test_case "demand paging" `Quick test_mm_demand_paging;
        test_case "munmap frees" `Quick test_mm_munmap_frees;
        test_case "mprotect + segfault" `Quick test_mm_mprotect_segfault;
        test_case "brk" `Quick test_mm_brk;
        test_case "fork copies" `Quick test_mm_fork_copies;
      ] );
    ( "kernel/tmpfs",
      [
        test_case "create/resolve/readdir" `Quick test_tmpfs_create_resolve;
        test_case "read/write/extend" `Quick test_tmpfs_read_write;
        test_case "unlink/truncate" `Quick test_tmpfs_unlink_truncate;
      ] );
    ("kernel/pipe", [ test_case "roundtrip + blocking" `Quick test_pipe_roundtrip ]);
    ( "kernel/virtio",
      [
        test_case "post/kick/service/complete" `Quick test_virtio_queue;
        test_case "full ring backpressure" `Quick test_virtio_backpressure;
        test_case "EVENT_IDX suppression" `Quick test_virtio_event_idx;
      ] );
    ("kernel/net", [ test_case "endpoints" `Quick test_net_endpoints ]);
    ( "kernel/syscalls",
      [
        test_case "file syscalls end-to-end" `Quick test_kernel_file_syscalls;
        test_case "fork/exit" `Quick test_kernel_fork_exit;
        test_case "pipe syscalls" `Quick test_kernel_pipe_syscalls;
        test_case "net delivery + recv" `Quick test_kernel_net_path;
        test_case "context switch accounting" `Quick test_kernel_ctx_switch_counts;
      ] );
  ]
