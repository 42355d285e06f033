(* Simulated physical memory.

   Frames carry ownership + kind metadata (which the KSM and the virt
   backends consult for their security checks) and, for page-table
   frames, real 512-entry runs of 64-bit PTEs, so the page-table
   walker operates on genuine in-"memory" structures.

   Raw-speed representation: frame metadata lives in packed int arrays
   (one int per frame per field) instead of an array of mutable
   records, and all PTEs live in one flat [int64] Bigarray arena
   addressed as [slot * 512 + index].  Table slots are acquired lazily
   the first time a frame is used as a (EPT/)page-table page and
   recycled when the frame is freed or reallocated, so the arena stays
   proportional to the number of live table pages, not to physical
   memory size.  Each slot tracks the index range actually written, so
   recycling scrubs only the dirty span — sparse tables (the common
   case) never pay a 4 KiB wipe.  Free frames are tracked in a bitmap
   (32 frames per word, so every index computation is a shift or mask)
   with a rotating next-fit hint plus a running free count, which
   makes [alloc]/[free_frames] effectively O(1) and lets
   [alloc_contiguous] skip fully-allocated or fully-free words a whole
   word at a time — while reproducing the exact allocation order of
   the previous per-frame scans, so snapshot images stay byte-for-byte
   reproducible. *)

type owner =
  | Free
  | Host  (** host kernel / hypervisor *)
  | Container of int  (** delegated to container [id] *)
  | Ksm of int  (** KSM code/data of container [id] *)
[@@deriving show { with_path = false }, eq]

type kind =
  | Unused
  | Data
  | Page_table of int  (** page-table page at level 1..4 *)
  | Ept_table of int  (** EPT table page at level 1..4 *)
  | Ksm_code
  | Ksm_data
  | Kernel_code
  | Device
[@@deriving show { with_path = false }]

(* Packed encodings: [Free] must map to 0 so a zeroed array means
   "all free". *)
let encode_owner = function
  | Free -> 0
  | Host -> 1
  | Container id -> 2 lor (id lsl 2)
  | Ksm id -> 3 lor (id lsl 2)

let decode_owner c =
  match c land 3 with
  | 0 -> Free
  | 1 -> Host
  | 2 -> Container (c lsr 2)
  | _ -> Ksm (c lsr 2)

let encode_kind = function
  | Unused -> 0
  | Data -> 1
  | Ksm_code -> 2
  | Ksm_data -> 3
  | Kernel_code -> 4
  | Device -> 5
  | Page_table l -> 6 lor (l lsl 3)
  | Ept_table l -> 7 lor (l lsl 3)

let decode_kind c =
  match c land 7 with
  | 0 -> Unused
  | 1 -> Data
  | 2 -> Ksm_code
  | 3 -> Ksm_data
  | 4 -> Kernel_code
  | 5 -> Device
  | 6 -> Page_table (c lsr 3)
  | _ -> Ept_table (c lsr 3)

(* Free bitmap: 32 frames per word.  A power-of-two width keeps every
   word/bit index computation a shift or mask (no integer division on
   the allocation path); 32 rather than 62 usable bits costs one extra
   word per 1984 frames and nothing else — scanning is in pfn order
   either way, so allocation order (and with it snapshot byte
   reproducibility) is identical. *)
let bits_per_word = 32
let word_shift = 5
let bit_mask = 31
let full_word = 0xFFFFFFFF

type arena = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mem_id : int;  (** process-unique instance id; tags trace events *)
  total_frames : int;
  owner_of : int array;  (** encoded owner per frame *)
  kind_of : int array;  (** encoded kind per frame *)
  refcnt : int array;
  shared : Bytes.t;  (** 1 = CoW-shared read-only *)
  table_slot : int array;  (** frame -> arena slot, -1 = no table *)
  mutable arena : arena;  (** all table pages: [slot * 512 + index] *)
  mutable arena_slots : int;  (** arena capacity, in 512-entry slots *)
  mutable used_slots : int;  (** next never-used slot *)
  mutable free_slots : int array;  (** recycled-slot stack *)
  mutable n_free_slots : int;
  mutable dirty_lo : int array;  (** per-slot written range; [entries] = clean *)
  mutable dirty_hi : int array;  (** per-slot written range; [-1] = clean *)
  free_bits : int array;  (** bit set = frame free *)
  mutable free_count : int;
  mutable next_free : int;  (** rotating hint for the next-fit [alloc] *)
}

exception Out_of_memory

let entries = Addr.entries_per_table

(* Two lanes of the sharded engine each own a [Phys_mem] with the same
   pfn range, so a pfn alone does not identify an object — the race
   checker keys accesses on [(mem_id, pfn)].  A global atomic counter
   (the sanctioned cross-domain primitive) hands out the ids. *)
let next_mem_id = Atomic.make 0

(* Access-trace hooks: one flag read when tracing is off.  Guarded on
   [Probe.mem_trace] (the global opt-in) before the per-domain sink
   check so ordinary runs pay a single atomic load per accessor. *)
let[@inline] trace_read t pfn =
  if Probe.mem_trace () then Probe.emit_mem_read ~mem:t.mem_id ~pfn

let[@inline] trace_write t pfn =
  if Probe.mem_trace () then Probe.emit_mem_write ~mem:t.mem_id ~pfn

let word_mask t w =
  let base = w lsl word_shift in
  let valid = min bits_per_word (t.total_frames - base) in
  if valid = bits_per_word then full_word else (1 lsl valid) - 1

let create ~frames:n =
  if n <= 0 then invalid_arg "Phys_mem.create";
  let nwords = (n + bits_per_word - 1) / bits_per_word in
  let t =
    {
      mem_id = Atomic.fetch_and_add next_mem_id 1;
      total_frames = n;
      owner_of = Array.make n 0;
      kind_of = Array.make n 0;
      refcnt = Array.make n 0;
      shared = Bytes.make n '\000';
      table_slot = Array.make n (-1);
      arena = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (64 * entries);
      arena_slots = 64;
      used_slots = 0;
      free_slots = Array.make 64 0;
      n_free_slots = 0;
      dirty_lo = Array.make 64 entries;
      dirty_hi = Array.make 64 (-1);
      free_bits = Array.make nwords 0;
      free_count = n;
      next_free = 0;
    }
  in
  (* Invariant: unattached slots are fully zero, and attached slots
     are zero outside their recorded dirty range — so slot acquisition
     never has to wipe 4 KiB, only releases wipe (just) what was
     written.  A fresh Bigarray is uninitialized; establish the
     invariant here. *)
  Bigarray.Array1.fill t.arena 0L;
  for w = 0 to nwords - 1 do
    t.free_bits.(w) <- word_mask t w
  done;
  t

let total_frames t = t.total_frames
let mem_id t = t.mem_id

let check_pfn t pfn =
  if pfn < 0 || pfn >= t.total_frames then invalid_arg "Phys_mem.frame: pfn out of range"

let owner t pfn =
  check_pfn t pfn;
  decode_owner t.owner_of.(pfn)

let kind t pfn =
  check_pfn t pfn;
  decode_kind t.kind_of.(pfn)

let is_free t pfn =
  check_pfn t pfn;
  t.owner_of.(pfn) = 0

(* ------------------------------------------------------------------ *)
(* PTE arena                                                           *)
(* ------------------------------------------------------------------ *)

(* Zero a slot's written range and mark it clean (see the invariant
   established in [create]). *)
let scrub_slot t s =
  let lo = t.dirty_lo.(s) and hi = t.dirty_hi.(s) in
  if hi >= lo then begin
    Bigarray.Array1.fill (Bigarray.Array1.sub t.arena ((s * entries) + lo) (hi - lo + 1)) 0L;
    t.dirty_lo.(s) <- entries;
    t.dirty_hi.(s) <- -1
  end

let release_slot t pfn =
  let s = t.table_slot.(pfn) in
  if s >= 0 then begin
    t.table_slot.(pfn) <- -1;
    scrub_slot t s;
    if t.n_free_slots = Array.length t.free_slots then begin
      let bigger = Array.make (2 * t.n_free_slots) 0 in
      Array.blit t.free_slots 0 bigger 0 t.n_free_slots;
      t.free_slots <- bigger
    end;
    t.free_slots.(t.n_free_slots) <- s;
    t.n_free_slots <- t.n_free_slots + 1
  end

let grow_arena t =
  let cap = 2 * t.arena_slots in
  let bigger = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (cap * entries) in
  Bigarray.Array1.blit t.arena (Bigarray.Array1.sub bigger 0 (t.arena_slots * entries));
  Bigarray.Array1.fill
    (Bigarray.Array1.sub bigger (t.arena_slots * entries) ((cap - t.arena_slots) * entries))
    0L;
  let lo = Array.make cap entries and hi = Array.make cap (-1) in
  Array.blit t.dirty_lo 0 lo 0 t.arena_slots;
  Array.blit t.dirty_hi 0 hi 0 t.arena_slots;
  t.dirty_lo <- lo;
  t.dirty_hi <- hi;
  t.arena <- bigger;
  t.arena_slots <- cap

(* Acquire (lazily) this frame's table slot; recycled and fresh slots
   are already zero (the invariant), so acquisition is O(1). *)
let ensure_slot t pfn =
  let s = t.table_slot.(pfn) in
  if s >= 0 then s
  else begin
    let s =
      if t.n_free_slots > 0 then begin
        t.n_free_slots <- t.n_free_slots - 1;
        t.free_slots.(t.n_free_slots)
      end
      else begin
        if t.used_slots = t.arena_slots then grow_arena t;
        let s = t.used_slots in
        t.used_slots <- t.used_slots + 1;
        s
      end
    in
    t.table_slot.(pfn) <- s;
    s
  end

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let set_free_bit t pfn =
  let w = pfn lsr word_shift and b = pfn land bit_mask in
  t.free_bits.(w) <- t.free_bits.(w) lor (1 lsl b)

let clear_free_bit t pfn =
  let w = pfn lsr word_shift and b = pfn land bit_mask in
  t.free_bits.(w) <- t.free_bits.(w) land lnot (1 lsl b)

(* Index of the lowest set bit of a non-zero word: 5 branch-free
   narrowing steps instead of a per-bit scan. *)
let lowest_bit w =
  let i = if w land 0xFFFF <> 0 then 0 else 16 in
  let i = if (w lsr i) land 0xFF <> 0 then i else i + 8 in
  let i = if (w lsr i) land 0xF <> 0 then i else i + 4 in
  let i = if (w lsr i) land 0x3 <> 0 then i else i + 2 in
  if (w lsr i) land 1 <> 0 then i else i + 1

(* First free frame at or after [start], wrapping around — the same
   next-fit order the previous per-frame scan produced. *)
let find_free_from t start =
  if t.free_count = 0 then raise Out_of_memory;
  let nwords = Array.length t.free_bits in
  let ws = start lsr word_shift and bs = start land bit_mask in
  let m = t.free_bits.(ws) land (full_word lxor ((1 lsl bs) - 1)) in
  if m <> 0 then (ws lsl word_shift) + lowest_bit m
  else begin
    let rec scan i n =
      if n = 0 then
        (* free_count > 0, so the only remaining candidates are the
           pre-[start] bits of the starting word *)
        let m = t.free_bits.(ws) land ((1 lsl bs) - 1) in
        (ws lsl word_shift) + lowest_bit m
      else
        let w = t.free_bits.(i) in
        if w <> 0 then (i lsl word_shift) + lowest_bit w
        else scan (if i + 1 = nwords then 0 else i + 1) (n - 1)
    in
    scan (if ws + 1 = nwords then 0 else ws + 1) (nwords - 1)
  end

(* Claim one free frame: metadata reset + bitmap/count update.  Any
   stale table slot from the frame's previous life is recycled. *)
let claim t pfn ~owner ~kind =
  trace_write t pfn;
  t.owner_of.(pfn) <- encode_owner owner;
  t.kind_of.(pfn) <- encode_kind kind;
  t.refcnt.(pfn) <- 0;
  Bytes.set t.shared pfn '\000';
  release_slot t pfn;
  clear_free_bit t pfn;
  t.free_count <- t.free_count - 1

(* Allocate one frame anywhere (next-fit from the rotating hint). *)
let alloc t ~owner ~kind =
  let pfn = find_free_from t t.next_free in
  let nf = pfn + 1 in
  t.next_free <- (if nf = t.total_frames then 0 else nf);
  claim t pfn ~owner ~kind;
  pfn

(* Allocate [count] physically-contiguous frames; first-fit from frame
   0.  This is the delegation primitive CKI uses for hPA segments, and
   the source of the paper's acknowledged fragmentation limitation.
   The bitmap lets the scan skip fully-allocated and fully-free words
   62 frames at a time. *)
let alloc_contiguous t ~owner ~kind ~count =
  if count <= 0 then invalid_arg "Phys_mem.alloc_contiguous";
  let n = t.total_frames in
  let base = ref (-1) in
  let run_start = ref 0 in
  let run = ref 0 in
  let pfn = ref 0 in
  (try
     while !pfn < n do
       let w = !pfn lsr word_shift in
       let valid = min bits_per_word (n - !pfn) in
       let mask = word_mask t w in
       let word = t.free_bits.(w) in
       if word = 0 then run := 0
       else if word = mask && !run + valid < count then begin
         (* whole word free but the run still cannot complete here *)
         if !run = 0 then run_start := !pfn;
         run := !run + valid
       end
       else
         for i = 0 to valid - 1 do
           if word land (1 lsl i) <> 0 then begin
             if !run = 0 then run_start := !pfn + i;
             incr run;
             if !run = count then begin
               base := !run_start;
               raise Exit
             end
           end
           else run := 0
         done;
       pfn := !pfn + valid
     done
   with Exit -> ());
  if !base < 0 then raise Out_of_memory;
  for i = !base to !base + count - 1 do
    claim t i ~owner ~kind
  done;
  !base

let free t pfn =
  check_pfn t pfn;
  trace_write t pfn;
  if t.owner_of.(pfn) = 0 then invalid_arg "Phys_mem.free: double free";
  if Bytes.get t.shared pfn <> '\000' && t.refcnt.(pfn) > 0 then
    invalid_arg "Phys_mem.free: shared frame still referenced";
  t.owner_of.(pfn) <- 0;
  t.kind_of.(pfn) <- 0;
  t.refcnt.(pfn) <- 0;
  Bytes.set t.shared pfn '\000';
  release_slot t pfn;
  set_free_bit t pfn;
  t.free_count <- t.free_count + 1

let free_range t ~base ~count =
  for pfn = base to base + count - 1 do
    free t pfn
  done

let set_kind t pfn kind =
  check_pfn t pfn;
  trace_write t pfn;
  t.kind_of.(pfn) <- encode_kind kind

let set_owner t pfn owner =
  check_pfn t pfn;
  trace_write t pfn;
  t.owner_of.(pfn) <- encode_owner owner

let incr_ref t pfn =
  check_pfn t pfn;
  trace_write t pfn;
  t.refcnt.(pfn) <- t.refcnt.(pfn) + 1

let decr_ref t pfn =
  check_pfn t pfn;
  trace_write t pfn;
  if t.refcnt.(pfn) <= 0 then invalid_arg "Phys_mem.decr_ref: refcount underflow";
  t.refcnt.(pfn) <- t.refcnt.(pfn) - 1

let refcount t pfn =
  check_pfn t pfn;
  t.refcnt.(pfn)

let set_shared_ro t pfn v =
  check_pfn t pfn;
  trace_write t pfn;
  Bytes.set t.shared pfn (if v then '\001' else '\000')

let is_shared_ro t pfn =
  check_pfn t pfn;
  Bytes.get t.shared pfn <> '\000'

(* Table-frame accessors: the frame's 512-entry slot in the PTE arena
   is acquired lazily on first write (a slot-less frame reads as all
   zeros, exactly what a fresh slot would hold). *)
let table_entries t pfn =
  check_pfn t pfn;
  trace_read t pfn;
  let s = ensure_slot t pfn in
  Array.init entries (fun i -> Bigarray.Array1.get t.arena ((s * entries) + i))

let read_entry t ~pfn ~index =
  check_pfn t pfn;
  if index < 0 || index >= entries then invalid_arg "Phys_mem.read_entry";
  trace_read t pfn;
  let s = t.table_slot.(pfn) in
  if s < 0 then 0L else Bigarray.Array1.get t.arena ((s * entries) + index)

let write_entry t ~pfn ~index value =
  check_pfn t pfn;
  if index < 0 || index >= entries then invalid_arg "Phys_mem.write_entry";
  trace_write t pfn;
  let s = ensure_slot t pfn in
  Bigarray.Array1.set t.arena ((s * entries) + index) value;
  if index < t.dirty_lo.(s) then t.dirty_lo.(s) <- index;
  if index > t.dirty_hi.(s) then t.dirty_hi.(s) <- index

(* Bulk payload access: [len] bytes of [b] from [off], packed
   little-endian into the frame's words [0 .. (len+7)/8 - 1] with the
   last word zero-padded — the layout VirtIO payload pages use.  One
   trace event and one dirty-range update per call; an empty copy
   touches nothing. *)
let check_bytes t pfn b ~off ~len =
  check_pfn t pfn;
  if len < 0 || len > entries * 8 || off < 0 || off > Bytes.length b - len then
    invalid_arg "Phys_mem: byte range"

let write_bytes t ~pfn src ~off ~len =
  check_bytes t pfn src ~off ~len;
  if len > 0 then begin
    trace_write t pfn;
    let s = ensure_slot t pfn in
    let base = s * entries and full = len / 8 in
    for w = 0 to full - 1 do
      Bigarray.Array1.set t.arena (base + w) (Bytes.get_int64_le src (off + (w * 8)))
    done;
    let rem = len - (full * 8) in
    if rem > 0 then begin
      let v = ref 0 in
      for i = rem - 1 downto 0 do
        v := (!v lsl 8) lor Char.code (Bytes.get src (off + (full * 8) + i))
      done;
      Bigarray.Array1.set t.arena (base + full) (Int64.of_int !v)
    end;
    let hi = ((len + 7) / 8) - 1 in
    t.dirty_lo.(s) <- 0;
    if hi > t.dirty_hi.(s) then t.dirty_hi.(s) <- hi
  end

let read_bytes t ~pfn dst ~off ~len =
  check_bytes t pfn dst ~off ~len;
  if len > 0 then begin
    trace_read t pfn;
    let s = t.table_slot.(pfn) in
    if s < 0 then Bytes.fill dst off len '\000'
    else begin
      let base = s * entries and full = len / 8 in
      for w = 0 to full - 1 do
        Bytes.set_int64_le dst (off + (w * 8)) (Bigarray.Array1.get t.arena (base + w))
      done;
      let rem = len - (full * 8) in
      if rem > 0 then begin
        let v = ref (Int64.to_int (Bigarray.Array1.get t.arena (base + full))) in
        for i = 0 to rem - 1 do
          Bytes.set dst (off + (full * 8) + i) (Char.unsafe_chr (!v land 0xFF));
          v := !v lsr 8
        done
      end
    end
  end

let clear_table t pfn =
  check_pfn t pfn;
  trace_write t pfn;
  let s = t.table_slot.(pfn) in
  if s >= 0 then scrub_slot t s

(* Statistics used by tests and the host memory accountant. *)
let count_owned t owner_pred =
  let c = ref 0 in
  for pfn = 0 to t.total_frames - 1 do
    if owner_pred (decode_owner t.owner_of.(pfn)) then incr c
  done;
  !c

(* One pass over the packed owner words: bit 1 marks [Container]/[Ksm]
   and the id sits above it, so nothing is decoded or allocated.  Pfn
   order; freeing the visited frame only rewrites the word already read. *)
let iter_owned t ~id f =
  let owner_of = t.owner_of in
  for pfn = 0 to t.total_frames - 1 do
    let c = owner_of.(pfn) in
    if c land 2 <> 0 && c lsr 2 = id then f pfn
  done

let free_frames t = t.free_count
