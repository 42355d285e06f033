(* Binary-buddy allocator over one or more physical-frame zones.

   This is the guest kernel's memory manager in CKI: the host delegates
   hPA segments and the guest buddy allocator hands frames straight to
   the page-fault handler — no gPA indirection.  Under scatter
   delegation a container receives several discontiguous chunks; each
   becomes a zone with its own free lists (a block never spans zones),
   and allocation tries zones in delegation order, so the allocation
   stream stays deterministic.

   Each zone is a Linux-style free area.  Every frame has one state
   byte: not a block head, the head of a free block of order o, or the
   head of an allocated block of order o.  The free lists are intrusive
   and doubly linked: a free head's prev/next links (zone-relative
   frame indices, -1 for none) sit in a per-frame [Bytes] next to the
   state byte.  Testing a buddy is one byte read and unlinking it is
   O(1).  The lists must stay LIFO — push at the head, pop the head,
   unlink anywhere without reordering — because snapshot images and
   the golden fixtures depend on exactly which pfn each call returns. *)

let max_order = 11 (* 2^11 frames = 8 MiB blocks *)

(* State byte: 0 inside a block, [free_bit lor o] on the head of a free
   block of order o, [alloc_bit lor o] on an allocated head. *)
let free_bit = 0x20
let alloc_bit = 0x40
let order_mask = 0x1f
let nil = -1

type zone = {
  base : Hw.Addr.pfn;
  frames : int;
  state : Bytes.t;  (** one byte per frame *)
  links : Bytes.t;  (** 8 bytes per frame: prev, next as int32 *)
  heads : int array;  (** free-list head per order, [nil] when empty *)
  mutable free_count : int;
}

type t = { zones : zone array }

exception Out_of_memory

let state z r = Char.code (Bytes.unsafe_get z.state r)
let set_state z r s = Bytes.unsafe_set z.state r (Char.unsafe_chr s)
let prev z r = Int32.to_int (Bytes.get_int32_le z.links (r lsl 3))
let next z r = Int32.to_int (Bytes.get_int32_le z.links ((r lsl 3) + 4))
let set_prev z r p = Bytes.set_int32_le z.links (r lsl 3) (Int32.of_int p)
let set_next z r n = Bytes.set_int32_le z.links ((r lsl 3) + 4) (Int32.of_int n)

(* Push the free block at zone-relative frame [r] on the head of the
   order-[o] list. *)
let push z o r =
  let h = z.heads.(o) in
  set_prev z r nil;
  set_next z r h;
  if h <> nil then set_prev z h r;
  z.heads.(o) <- r;
  set_state z r (free_bit lor o)

(* Take the free block at [r] off the order-[o] list, wherever it sits;
   the rest of the list keeps its order.  The caller rewrites [r]'s
   state byte. *)
let unlink z o r =
  let p = prev z r and n = next z r in
  if p = nil then z.heads.(o) <- n else set_next z p n;
  if n <> nil then set_prev z n p

let make_zone ~base ~frames =
  if frames <= 0 then invalid_arg "Buddy.create";
  let z =
    {
      base;
      frames;
      state = Bytes.make frames '\000';
      links = Bytes.create (frames * 8);
      heads = Array.make (max_order + 1) nil;
      free_count = frames;
    }
  in
  (* Seed free lists greedily with the largest aligned blocks. *)
  let rec seed r remaining =
    if remaining > 0 then begin
      let rec fit o =
        if o = 0 then 0
        else if 1 lsl o <= remaining && r land ((1 lsl o) - 1) = 0 then o
        else fit (o - 1)
      in
      let order = fit max_order in
      push z order r;
      seed (r + (1 lsl order)) (remaining - (1 lsl order))
    end
  in
  seed 0 frames;
  z

let create_zones ~segments =
  if segments = [] then invalid_arg "Buddy.create_zones";
  { zones = Array.of_list (List.map (fun (base, frames) -> make_zone ~base ~frames) segments) }

let create ~base ~frames = create_zones ~segments:[ (base, frames) ]

let total_frames t = Array.fold_left (fun acc z -> acc + z.frames) 0 t.zones

let free_frames t = Array.fold_left (fun acc z -> acc + z.free_count) 0 t.zones

let zone_of t pfn =
  let rec find i =
    if i >= Array.length t.zones then invalid_arg "Buddy: frame outside every zone"
    else
      let z = t.zones.(i) in
      if pfn >= z.base && pfn < z.base + z.frames then z else find (i + 1)
  in
  find 0

(* Allocate a block of 2^order frames from [z]; returns its first pfn,
   or [nil] when no free block of order >= [order] is left. *)
let zone_alloc_order z order =
  let rec smallest o = if o > max_order || z.heads.(o) <> nil then o else smallest (o + 1) in
  let o = smallest order in
  if o > max_order then nil
  else begin
    let r = z.heads.(o) in
    unlink z o r;
    (* Split back down to the requested order. *)
    for half = o - 1 downto order do
      push z half (r + (1 lsl half))
    done;
    set_state z r (alloc_bit lor order);
    z.free_count <- z.free_count - (1 lsl order);
    z.base + r
  end

let alloc_order t order =
  if order < 0 || order > max_order then invalid_arg "Buddy.alloc_order";
  let rec try_zone i =
    if i >= Array.length t.zones then raise Out_of_memory
    else
      let pfn = zone_alloc_order t.zones.(i) order in
      if pfn <> nil then pfn else try_zone (i + 1)
  in
  try_zone 0

let alloc t = alloc_order t 0

(* Allocate a 2 MiB-aligned 512-frame block for a huge-page mapping. *)
let alloc_huge t = alloc_order t 9

(* Free the block at [r] (its state byte already cleared), merging with
   its buddy for as long as the buddy is a free block of the same
   order. *)
let rec coalesce z r order =
  let b = r lxor (1 lsl order) in
  if order < max_order && b < z.frames && state z b = free_bit lor order then begin
    unlink z order b;
    set_state z b 0;
    coalesce z (min r b) (order + 1)
  end
  else push z order r

(* Allocated block heads with orders, sorted — the allocator's logical
   state for snapshot capture (free lists are derived on restore).
   Every frame lies in exactly one block, so a walk from block head to
   block head visits each zone in pfn order. *)
let allocated_blocks t =
  let by_base = Array.copy t.zones in
  Array.sort (fun a b -> Int.compare a.base b.base) by_base;
  let acc = ref [] in
  Array.iter
    (fun z ->
      let r = ref 0 in
      while !r < z.frames do
        let s = state z !r in
        let order = s land order_mask in
        if s land alloc_bit <> 0 then acc := (z.base + !r, order) :: !acc;
        r := !r + (1 lsl order)
      done)
    by_base;
  List.rev !acc

(* Snapshot restore: carve the specific block [pfn, pfn + 2^order) out
   of a fresh allocator, reproducing the captured allocation pattern. *)
let reserve t pfn order =
  if order < 0 || order > max_order then invalid_arg "Buddy.reserve";
  let z = zone_of t pfn in
  let r = pfn - z.base in
  if r land ((1 lsl order) - 1) <> 0 then invalid_arg "Buddy.reserve: misaligned block";
  (* The free block containing [r], if any, is the one headed at [r]'s
     aligned frame for its order — it must sit at order >= the
     requested one for the reservation to be satisfiable. *)
  let rec containing o =
    if o > max_order then invalid_arg "Buddy.reserve: block not free"
    else
      let h = r land lnot ((1 lsl o) - 1) in
      if state z h = free_bit lor o then (h, o) else containing (o + 1)
  in
  let h0, o0 = containing order in
  unlink z o0 h0;
  set_state z h0 0;
  (* Split down, keeping the halves that do not contain [r] free. *)
  let rec split b o =
    if o = order then assert (b = r)
    else begin
      let half = o - 1 in
      let upper = b + (1 lsl half) in
      if r < upper then begin
        push z half upper;
        split b half
      end
      else begin
        push z half b;
        split upper half
      end
    end
  in
  split h0 o0;
  set_state z r (alloc_bit lor order);
  z.free_count <- z.free_count - (1 lsl order)

let free t pfn =
  let z = zone_of t pfn in
  let r = pfn - z.base in
  let s = state z r in
  if s land alloc_bit = 0 then invalid_arg "Buddy.free: not an allocated block head";
  let order = s land order_mask in
  set_state z r 0;
  z.free_count <- z.free_count + (1 lsl order);
  coalesce z r order

(* Consistency check for tests.  Per zone: every free-list entry is a
   well-formed free head of that list's order (state byte, alignment,
   range, back link); the block heads tile the zone exactly, so no two
   blocks overlap; the free heads met on that walk are exactly the list
   entries; no free block has a free buddy of its order below
   [max_order]; and the free counter, the list totals and the tiling
   agree. *)
let check_invariants t =
  let zone_ok z =
    let listed = ref 0 and listed_frames = ref 0 in
    let lists_ok =
      let ok = ref true in
      for o = 0 to max_order do
        let rec walk p r steps =
          if r = nil then ()
          else if
            steps > z.frames || r < 0 || r >= z.frames
            || r land ((1 lsl o) - 1) <> 0
            || r + (1 lsl o) > z.frames
            || state z r <> free_bit lor o
            || prev z r <> p
          then ok := false
          else begin
            incr listed;
            listed_frames := !listed_frames + (1 lsl o);
            walk r (next z r) (steps + 1)
          end
        in
        walk nil z.heads.(o) 0
      done;
      !ok
    in
    let tiled = ref true and free_heads = ref 0 and free_frames = ref 0 and used_frames = ref 0 in
    let r = ref 0 in
    while !tiled && !r < z.frames do
      let s = state z !r in
      let order = s land order_mask in
      let size = 1 lsl order in
      let is_free = s land free_bit <> 0 in
      if
        (s land (free_bit lor alloc_bit) = 0)
        || order > max_order
        || !r land (size - 1) <> 0
        || !r + size > z.frames
      then tiled := false
      else begin
        for i = !r + 1 to !r + size - 1 do
          if state z i <> 0 then tiled := false
        done;
        if is_free then begin
          incr free_heads;
          free_frames := !free_frames + size;
          let b = !r lxor size in
          if order < max_order && b < z.frames && state z b = s then tiled := false
        end
        else used_frames := !used_frames + size;
        r := !r + size
      end
    done;
    lists_ok && !tiled && !free_heads = !listed && !free_frames = !listed_frames
    && !listed_frames = z.free_count
    && z.free_count + !used_frames = z.frames
  in
  Array.for_all zone_ok t.zones
