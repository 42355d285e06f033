(* PCID-tagged TLB model — the simulator's only translation cache.

   Capacity-bounded with FIFO eviction; entries are tagged with the
   process-context id so that `invlpg` executed inside one container
   (one PCID) cannot flush another container's entries — the property
   Section 4.1 relies on to prevent cross-container TLB DoS.

   Storage is flat int arrays indexed by slot: the packed (pcid, vpn)
   key and the translation word (pfn above eight permission bits).  An
   open-addressed index (linear probing, backward-shift deletion) maps
   keys to slots, and FIFO order is a doubly linked ring through the
   slots with a sentinel at slot [capacity]; released slots chain
   through [next].  Nothing here allocates after [create]. *)

(* Translation word: permission bits, a 4-bit protection key at
   [pkey_shift], the pfn from [pfn_shift] up. *)
let writable = 1
let user = 2
let nx = 4
let huge = 8 (* 2 MiB leaf: the entry covers 512 vpns *)
let pkey_shift = 4
let pfn_shift = 8

let meta_of_pte pte ~level =
  (if Pte.is_writable pte then writable else 0)
  lor (if Pte.is_user pte then user else 0)
  lor (if Pte.is_nx pte then nx else 0)
  lor (if level = 2 then huge else 0)
  lor (Pte.pkey pte lsl pkey_shift)

(* The full pcid sits above the 36-bit vpn of a 48-bit virtual address. *)
let vpn_bits = 36
let pack ~pcid vpn = (pcid lsl vpn_bits) lor vpn

type t = {
  capacity : int;
  keys : int array;
  words : int array;
  next : int array;  (** FIFO successor (live slots) or free-chain link *)
  prev : int array;
  index : int array;  (** slot + 1; 0 = empty bucket *)
  mask : int;
  shift : int;  (** hash = top bits of [key * golden] *)
  mutable fresh : int;  (** slots from [fresh] up were never used *)
  mutable free : int;  (** head of the released-slot chain, -1 = none *)
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
}

let golden = 0x9E3779B97F4A7C1
let bucket t key = (key * golden) lsr t.shift

let empty_ring t =
  t.next.(t.capacity) <- t.capacity;
  t.prev.(t.capacity) <- t.capacity

let create ?(capacity = 1536) () =
  if capacity < 1 then invalid_arg "Tlb.create";
  (* Smallest power of two above [capacity] with load <= 3/4, so every
     probe sequence reaches an empty bucket. *)
  let rec bits b = if 1 lsl b > capacity && 3 lsl b >= 4 * capacity then b else bits (b + 1) in
  let b = bits 1 in
  let t =
    {
      capacity;
      keys = Array.make capacity 0;
      words = Array.make capacity 0;
      next = Array.make (capacity + 1) 0;
      prev = Array.make (capacity + 1) 0;
      index = Array.make (1 lsl b) 0;
      mask = (1 lsl b) - 1;
      shift = Sys.int_size - b;
      fresh = 0;
      free = -1;
      size = 0;
      hits = 0;
      misses = 0;
    }
  in
  empty_ring t;
  t

(* The bucket holding [key], or the empty bucket that ends its run. *)
let rec probe t key i =
  let v = t.index.(i) in
  if v = 0 || t.keys.(v - 1) = key then i else probe t key ((i + 1) land t.mask)

(* Slot holding [key], or -1. *)
let find t key = t.index.(probe t key (bucket t key)) - 1

(* Backward-shift deletion: after emptying bucket [hole], pull later
   entries of the run back so no lookup stops early. *)
let rec close_hole t hole j =
  let j = (j + 1) land t.mask in
  let v = t.index.(j) in
  if v <> 0 then begin
    let home = bucket t t.keys.(v - 1) in
    (* the entry may stay at [j] iff its home lies cyclically in (hole, j] *)
    let stays = if hole <= j then hole < home && home <= j else hole < home || home <= j in
    if stays then close_hole t hole j
    else begin
      t.index.(hole) <- v;
      t.index.(j) <- 0;
      close_hole t j j
    end
  end

let remove t s =
  let i = probe t t.keys.(s) (bucket t t.keys.(s)) in
  t.index.(i) <- 0;
  close_hole t i i;
  t.next.(t.prev.(s)) <- t.next.(s);
  t.prev.(t.next.(s)) <- t.prev.(s);
  t.next.(s) <- t.free;
  t.free <- s;
  t.size <- t.size - 1

let add t key word =
  let s = t.free in
  let s =
    if s >= 0 then begin
      t.free <- t.next.(s);
      s
    end
    else begin
      t.fresh <- t.fresh + 1;
      t.fresh - 1
    end
  in
  t.keys.(s) <- key;
  t.words.(s) <- word;
  let tail = t.prev.(t.capacity) in
  t.next.(tail) <- s;
  t.prev.(s) <- tail;
  t.next.(s) <- t.capacity;
  t.prev.(t.capacity) <- s;
  t.index.(probe t key (bucket t key)) <- s + 1;
  t.size <- t.size + 1

(* The translation word covering [va]: the exact vpn first, then a
   2 MiB entry on the 2 MiB-aligned vpn.  -1 on a miss. *)
let lookup t ~pcid va =
  let vpn = va lsr Addr.page_shift in
  let s = find t (pack ~pcid vpn) in
  let s =
    if s >= 0 then s
    else
      let s = find t (pack ~pcid (vpn land lnot 511)) in
      if s >= 0 && t.words.(s) land huge <> 0 then s else -1
  in
  if s >= 0 then begin
    t.hits <- t.hits + 1;
    t.words.(s)
  end
  else begin
    t.misses <- t.misses + 1;
    -1
  end

(* A replaced key keeps its FIFO position; a full TLB evicts its oldest
   entry first, even when the insert then replaces. *)
let insert t ~pcid ~va ~pfn ~meta =
  let vpn = va lsr Addr.page_shift in
  let vpn = if meta land huge <> 0 then vpn land lnot 511 else vpn in
  if t.size >= t.capacity then remove t t.next.(t.capacity);
  let key = pack ~pcid vpn in
  let word = (pfn lsl pfn_shift) lor meta in
  let s = find t key in
  if s >= 0 then t.words.(s) <- word else add t key word

let drop t key =
  let s = find t key in
  if s >= 0 then remove t s

(* invlpg: drops the translation for one page in one PCID only. *)
let invlpg t ~pcid va =
  let vpn = va lsr Addr.page_shift in
  drop t (pack ~pcid vpn);
  drop t (pack ~pcid (vpn land lnot 511))

(* invpcid / CR3 write with flush: drop all entries of [pcid]. *)
let flush_pcid t ~pcid =
  let s = ref t.next.(t.capacity) in
  while !s <> t.capacity do
    let n = t.next.(!s) in
    if t.keys.(!s) lsr vpn_bits = pcid then remove t !s;
    s := n
  done

let flush_all t =
  Array.fill t.index 0 (Array.length t.index) 0;
  empty_ring t;
  t.fresh <- 0;
  t.free <- -1;
  t.size <- 0

type entry = {
  pfn : Addr.pfn;
  flags : Pte.flags;
  level : int;  (** 1 = 4 KiB, 2 = 2 MiB *)
}

let entry w =
  {
    pfn = w lsr pfn_shift;
    flags =
      {
        Pte.writable = w land writable <> 0;
        user = w land user <> 0;
        nx = w land nx <> 0;
        huge = w land huge <> 0;
        pkey = (w lsr pkey_shift) land 0xF;
      };
    level = (if w land huge <> 0 then 2 else 1);
  }

(* Fold over all cached translations, oldest first (scanner support:
   the analysis library re-walks the live page tables and compares). *)
let fold t f init =
  let rec go acc s =
    if s = t.capacity then acc
    else
      let k = t.keys.(s) in
      go (f acc ~pcid:(k lsr vpn_bits) ~vpn:(k land ((1 lsl vpn_bits) - 1)) (entry t.words.(s))) t.next.(s)
  in
  go init t.next.(t.capacity)

let size t = t.size
let entries_for t ~pcid = fold t (fun n ~pcid:p ~vpn:_ _ -> if p = pcid then n + 1 else n) 0
let hits t = t.hits
let misses t = t.misses
