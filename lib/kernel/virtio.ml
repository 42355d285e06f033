(* VirtIO split queue, laid out as real bytes in guest memory.

   The queue owns four kinds of guest pages, all allocated through the
   platform's frame allocator (so under CKI they live inside the
   delegated hPA segment and the Analysis sanitizer can audit them like
   any other guest page):

     - one descriptor-table page: 2 words per descriptor,
         word 0 = payload-buffer pfn,
         word 1 = len | flags<<32 | next<<40   (bit 0 = NEXT chain,
                                                bit 1 = device-WRITE);
     - one avail page:  word 0 flags, word 1 = avail idx (monotonic),
         words 2..2+size-1 the ring of head descriptor ids,
         word 2+size = used_event (guest-written interrupt suppression);
     - one used page:   word 0 flags, word 1 = used idx,
         words 2..2+size-1 the ring of id | total_len<<32 entries,
         word 2+size = avail_event (host-written kick suppression);
     - [size] payload-buffer pages, one per descriptor; payloads larger
       than a page ride descriptor chains (NEXT flag).

   Notification suppression is EVENT_IDX-style: [window = 0] models the
   naive path (every post kicks, every publish batch injects);
   [window >= 1] negotiates EVENT_IDX with that batch window — the
   guest kicks only when the avail idx crosses the host-written
   avail_event, the host injects only when the used idx crosses the
   guest-written used_event, and [complete ~force:true] bounds latency
   at batch boundaries.

   The guest side never raises on a full ring: [post]/[post_buffer]
   return [`Full] after an opportunistic reclaim, and the kernel's
   backpressure path runs a host service pass and retries. *)

let bytes_per_page = Hw.Addr.entries_per_table * 8
let max_size = 256

type t = {
  name : string;
  size : int;
  mutable window : int;  (** 0 = naive; >= 1 = EVENT_IDX batch window *)
  mem : Hw.Phys_mem.t;
  guest_frame : Hw.Addr.pfn -> Hw.Addr.pfn;  (** the platform's pfn -> host frame *)
  clock : Hw.Clock.t;
  desc_page : Hw.Addr.pfn;
  avail_page : Hw.Addr.pfn;
  used_page : Hw.Addr.pfn;
  bufs : Hw.Addr.pfn array;  (** payload page of descriptor i *)
  (* Free descriptors as a preallocated stack (pop order identical to
     the cons-list it replaces), and in-flight head bookkeeping as
     parallel arrays indexed by head id ([head_ndesc.(h) = -1] means
     "not in flight") — the guest driver's private shadow; the
     device-visible state is all in the ring pages.  Steady-state
     post/service/reclaim touch only these flat arrays: no allocation.  *)
  free_stack : int array;
  mutable n_free : int;
  head_ndesc : int array;
  head_len : int array;
  head_writes : Bytes.t;  (** 1 = device-writable (RX) chain *)
  mutable n_heads : int;  (** in-flight chain count *)
  (* guest-side shadows *)
  mutable avail_idx : int;
  mutable kick_old : int;  (** avail idx at the previous kick decision *)
  mutable last_used_seen : int;  (** used entries the guest consumed *)
  (* host-side shadows *)
  mutable last_avail_seen : int;
  mutable used_idx : int;
  mutable unsignaled : int;  (** used entries published since last irq *)
  mutable complete_old : int;  (** used idx at the previous complete *)
  (* counters *)
  mutable kicks : int;
  mutable suppressed_kicks : int;
  mutable interrupts : int;
  mutable suppressed_interrupts : int;
  mutable serviced_total : int;
}

(* Ring-page word offsets. *)
let idx_word = 1
let ring_word t i = 2 + (i mod t.size)
let event_word t = 2 + t.size

(* Ring words and payload pages are addressed in the allocator's pfn
   namespace and translated to host frames on every access.  Every ring
   word fits in 56 bits (a descriptor word is 32 + 8 + 16), so the
   words travel as OCaml ints and no access boxes an [int64]. *)
let rd t pfn i = Hw.Phys_mem.read_word t.mem ~pfn:(t.guest_frame pfn) ~index:i
let wr t pfn i v = Hw.Phys_mem.write_word t.mem ~pfn:(t.guest_frame pfn) ~index:i v

let create ?(size = 64) ?(window = 1) ~name (p : Platform.t) =
  if size < 2 || size > max_size then invalid_arg "Virtio.create: size must be in 2..256";
  if window < 0 then invalid_arg "Virtio.create: negative window";
  let t =
    {
      name;
      size;
      window;
      mem = p.Platform.mem;
      guest_frame = p.Platform.guest_frame;
      clock = p.Platform.clock;
      desc_page = p.Platform.alloc_frame ();
      avail_page = p.Platform.alloc_frame ();
      used_page = p.Platform.alloc_frame ();
      bufs = Array.init size (fun _ -> p.Platform.alloc_frame ());
      free_stack = Array.init size (fun i -> size - 1 - i);
      n_free = size;
      head_ndesc = Array.make size (-1);
      head_len = Array.make size 0;
      head_writes = Bytes.make size '\000';
      n_heads = 0;
      avail_idx = 0;
      kick_old = 0;
      last_used_seen = 0;
      last_avail_seen = 0;
      used_idx = 0;
      unsignaled = 0;
      complete_old = 0;
      kicks = 0;
      suppressed_kicks = 0;
      interrupts = 0;
      suppressed_interrupts = 0;
      serviced_total = 0;
    }
  in
  (* Publish the static half of the descriptor table (buffer pfns) and
     zero the ring indices / event fields. *)
  for i = 0 to size - 1 do
    wr t t.desc_page (2 * i) t.bufs.(i);
    wr t t.desc_page ((2 * i) + 1) 0
  done;
  wr t t.avail_page idx_word 0;
  wr t t.avail_page (event_word t) 0;
  wr t t.used_page idx_word 0;
  wr t t.used_page (event_word t) 0;
  Hw.Clock.charge t.clock "virtio_ring_init" (3.0 *. Hw.Cost.page_zero);
  t

let size t = t.size
let set_window t w = if w < 0 then invalid_arg "Virtio.set_window" else t.window <- w
let in_flight t = t.avail_idx - t.last_avail_seen
let unreclaimed t = t.n_heads

(* ---------------- payload bytes <-> page words ---------------- *)

(* One page of a chain: translate once, then copy the whole span. *)
let copy_into_page t pfn data ~off =
  let len = min bytes_per_page (Bytes.length data - off) in
  if len > 0 then Hw.Phys_mem.write_bytes t.mem ~pfn:(t.guest_frame pfn) data ~off ~len;
  len

let copy_from_page t pfn data ~off =
  let len = min bytes_per_page (Bytes.length data - off) in
  if len > 0 then Hw.Phys_mem.read_bytes t.mem ~pfn:(t.guest_frame pfn) data ~off ~len;
  len

(* ---------------- descriptor chains ---------------- *)

let flag_next = 1
let flag_write = 2

let write_desc t id ~len ~flags ~next =
  wr t t.desc_page ((2 * id) + 1) (len land 0xFFFFFFFF lor (flags lsl 32) lor (next lsl 40))

(* Fields of descriptor [id]'s len/flags/next word. *)
let desc_word t id = rd t t.desc_page ((2 * id) + 1)
let desc_len w = w land 0xFFFFFFFF
let desc_flags w = (w lsr 32) land 0xFF
let desc_next w = (w lsr 40) land 0xFFFF

(* Chain walks are explicit loops over the descriptor words (the
   payload page of descriptor [id] is word [2*id] of the table, kept in
   [t.bufs] as a shadow so the walk need not re-read it): the hot
   service/reclaim/fill paths allocate no closures.

   Copy the chain's payload out into [data] (up to [limit] bytes). *)
let chain_copy_out t head data ~limit =
  let id = ref head and off = ref 0 and more = ref true in
  while !more do
    let w = desc_word t !id in
    if !off < limit then off := !off + copy_from_page t t.bufs.(!id) data ~off:!off;
    if desc_flags w land flag_next <> 0 then id := desc_next w else more := false
  done

(* Copy [data] into the chain's payload pages. *)
let chain_copy_in t head data =
  let limit = Bytes.length data in
  let id = ref head and off = ref 0 and more = ref true in
  while !more do
    let w = desc_word t !id in
    if !off < limit then off := !off + copy_into_page t t.bufs.(!id) data ~off:!off;
    if desc_flags w land flag_next <> 0 then id := desc_next w else more := false
  done

(* Total bytes carried by the chain. *)
let chain_len t head =
  let id = ref head and total = ref 0 and more = ref true in
  while !more do
    let w = desc_word t !id in
    total := !total + desc_len w;
    if desc_flags w land flag_next <> 0 then id := desc_next w else more := false
  done;
  !total

(* Return every descriptor of the chain to the free stack (push order
   identical to the cons-list it replaces). *)
let chain_free t head =
  let id = ref head and more = ref true in
  while !more do
    let w = desc_word t !id in
    t.free_stack.(t.n_free) <- !id;
    t.n_free <- t.n_free + 1;
    if desc_flags w land flag_next <> 0 then id := desc_next w else more := false
  done

(* Pop [npages] free descriptors and link them as one chain carrying
   [len] bytes (device-writable when [write]); every segment but the
   last spans a whole page.  Returns the head id. *)
let build_chain t ~npages ~len ~write =
  let flags_w = if write then flag_write else 0 in
  let head = t.free_stack.(t.n_free - 1) in
  let id = ref head in
  for k = 1 to npages - 1 do
    let next = t.free_stack.(t.n_free - 1 - k) in
    write_desc t !id ~len:bytes_per_page ~flags:(flags_w lor flag_next) ~next;
    id := next
  done;
  write_desc t !id ~len:(max 0 (len - ((npages - 1) * bytes_per_page))) ~flags:flags_w ~next:0;
  t.n_free <- t.n_free - npages;
  head

(* ---------------- guest side ---------------- *)

(* Consume published used entries and free their descriptors.  A
   device-written chain's payload is read back out of guest memory into
   a fresh [Bytes.t] and pushed on [into], oldest first (and dropped
   without [into], as the opportunistic reclaim of a full ring does). *)
let reclaim ?into t =
  while t.last_used_seen < t.used_idx do
    let e = rd t t.used_page (ring_word t t.last_used_seen) in
    let head = e land 0xFFFF in
    let len = (e lsr 32) land 0xFFFFFFFF in
    if head >= 0 && head < t.size && t.head_ndesc.(head) >= 0 then begin
      (* known in-flight chain; anything else is a forged/duplicate
         used entry: nothing to free *)
      if Bytes.get t.head_writes head <> '\000' && len > 0 then begin
        let data = Bytes.create len in
        chain_copy_out t head data ~limit:len;
        Hw.Clock.charge_copy t.clock Hw.Clock.id_virtio_copy ~base:0.0 ~bytes:len;
        match into with Some frames -> Net.Frames.push frames data | None -> ()
      end;
      chain_free t head;
      t.head_ndesc.(head) <- -1;
      t.n_heads <- t.n_heads - 1
    end;
    t.last_used_seen <- t.last_used_seen + 1
  done;
  (* Re-arm interrupt suppression for the entries we just consumed. *)
  if t.window >= 1 then wr t t.avail_page (event_word t) (t.last_used_seen + t.window - 1)

(* Pop and publish one chain when [npages] descriptors are free. *)
let try_post t ~data ~len ~npages ~write =
  if t.n_free < npages then false
  else begin
    let head = build_chain t ~npages ~len ~write in
    if not write then begin
      (* Frontend copies the payload into the DMA buffers. *)
      chain_copy_in t head data;
      Hw.Clock.charge_copy t.clock Hw.Clock.id_virtio_copy ~base:0.0 ~bytes:len
    end;
    if t.head_ndesc.(head) < 0 then t.n_heads <- t.n_heads + 1;
    t.head_ndesc.(head) <- npages;
    t.head_len.(head) <- len;
    Bytes.set t.head_writes head (if write then '\001' else '\000');
    wr t t.avail_page (ring_word t t.avail_idx) head;
    t.avail_idx <- t.avail_idx + 1;
    wr t t.avail_page idx_word t.avail_idx;
    Hw.Clock.charge_id t.clock Hw.Clock.id_virtio_post Hw.Cost.virtio_frontend_work;
    true
  end

let post_chain t ~data ~capacity ~write =
  let len = if write then capacity else Bytes.length data in
  let npages = max 1 ((len + bytes_per_page - 1) / bytes_per_page) in
  if npages > t.size then invalid_arg "Virtio.post: payload larger than the whole ring";
  if try_post t ~data ~len ~npages ~write then `Posted
  else begin
    (* Opportunistically reclaim already-published completions (a real
       driver checks the used ring before declaring the queue full). *)
    reclaim t;
    if try_post t ~data ~len ~npages ~write then `Posted else `Full
  end

let post t ~data = post_chain t ~data ~capacity:0 ~write:false
let post_buffer t ~capacity = post_chain t ~data:Bytes.empty ~capacity ~write:true

(* Notify-or-not: with EVENT_IDX the guest kicks only when the new
   avail idx crosses the host-written avail_event. *)
let kick t ~doorbell =
  let rang =
    if t.avail_idx = t.kick_old then false  (* nothing new was posted *)
    else if t.window = 0 then true
    else begin
      Hw.Clock.charge_id t.clock Hw.Clock.id_virtio_event_idx Hw.Cost.event_idx_check;
      let ev = rd t t.used_page (event_word t) in
      ev >= t.kick_old && ev < t.avail_idx
    end
  in
  let had_new = t.avail_idx <> t.kick_old in
  t.kick_old <- t.avail_idx;
  if rang then begin
    t.kicks <- t.kicks + 1;
    Hw.Clock.charge_id t.clock Hw.Clock.id_virtio_doorbell Hw.Cost.doorbell_write;
    Hw.Probe.emit_io_doorbell ~queue:t.name ~avail_idx:t.avail_idx ~in_flight:(in_flight t);
    doorbell ()
  end
  else if had_new then t.suppressed_kicks <- t.suppressed_kicks + 1;
  rang

(* ---------------- host side ---------------- *)

let publish_used t ~head ~len =
  wr t t.used_page (ring_word t t.used_idx) (head land 0xFFFF lor (len lsl 32));
  t.used_idx <- t.used_idx + 1;
  wr t t.used_page idx_word t.used_idx;
  t.unsignaled <- t.unsignaled + 1;
  t.serviced_total <- t.serviced_total + 1

let rearm_avail_event t =
  if t.window >= 1 then
    wr t t.used_page (event_word t) (t.last_avail_seen + t.window - 1)

(* Service pending device-readable chains (TX semantics): read each
   payload out of guest memory, hand it to [handle], publish the used
   entry.  Returns the number of chains serviced. *)
let service t ~handle =
  let avail = rd t t.avail_page idx_word in
  let n = avail - t.last_avail_seen in
  if n > 0 then begin
    Hw.Clock.charge_id t.clock Hw.Clock.id_virtio_service Hw.Cost.virtio_backend_service;
    while t.last_avail_seen < avail do
      let head = rd t t.avail_page (ring_word t t.last_avail_seen) in
      let total = chain_len t head in
      let data = Bytes.create total in
      chain_copy_out t head data ~limit:total;
      Hw.Clock.charge_copy t.clock Hw.Clock.id_virtio_copy ~base:0.0 ~bytes:total;
      publish_used t ~head ~len:total;
      t.last_avail_seen <- t.last_avail_seen + 1;
      handle data
    done;
    rearm_avail_event t
  end;
  n

(* Fill one posted device-writable buffer with [data] (RX semantics);
   false when the guest has no buffer credit posted. *)
let fill t ~data =
  let avail = rd t t.avail_page idx_word in
  if t.last_avail_seen >= avail then false
  else begin
    let head = rd t t.avail_page (ring_word t t.last_avail_seen) in
    let len = Bytes.length data in
    chain_copy_in t head data;
    Hw.Clock.charge_copy t.clock Hw.Clock.id_virtio_copy ~base:0.0 ~bytes:len;
    publish_used t ~head ~len;
    t.last_avail_seen <- t.last_avail_seen + 1;
    rearm_avail_event t;
    true
  end

(* Inject (or suppress) the completion interrupt for the used entries
   published since the last injection.  [force] bounds latency at batch
   boundaries; with [window = 0] every publish batch injects. *)
let complete ?(force = false) t ~inject =
  if t.unsignaled = 0 then false
  else begin
    let should =
      if force || t.window = 0 then true
      else begin
        Hw.Clock.charge_id t.clock Hw.Clock.id_virtio_event_idx Hw.Cost.event_idx_check;
        let ev = rd t t.avail_page (event_word t) in
        ev >= t.complete_old && ev < t.used_idx
      end
    in
    t.complete_old <- t.used_idx;
    if should then begin
      t.interrupts <- t.interrupts + 1;
      Hw.Probe.emit_io_completion ~queue:t.name ~used_idx:t.used_idx ~serviced:t.unsignaled;
      t.unsignaled <- 0;
      inject ()
    end
    else t.suppressed_interrupts <- t.suppressed_interrupts + 1;
    should
  end

let kicks t = t.kicks
let suppressed_kicks t = t.suppressed_kicks
let interrupts t = t.interrupts
let suppressed_interrupts t = t.suppressed_interrupts
let serviced_total t = t.serviced_total
let name t = t.name
