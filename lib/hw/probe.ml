(* Hardware/monitor event probes.

   Hook points in Cpu/Idt/Pks/Ksm/Gates/Mm emit typed events here; the
   analysis library installs a sink around a scenario and lints the
   stream afterwards.

   The one sink shape is a [Ring]: a flat preallocated ring of
   int-encoded event words.  An emit through one of the specialized
   [emit_*] entry points costs a handful of array stores — no
   allocation, no closure call — and the ring is decoded back into
   [event] values lazily at lint time.

   The installed sink is *per-domain* state held in domain-local
   storage: each domain of the sharded engine records into its own
   ring, and with no sink installed an emit site costs one DLS read
   (callers guard event construction behind [active ()]).

   Every ring record additionally carries the id of the domain that
   emitted it (word 7 of the 8-word encoding, cached in the DLS slot
   at domain init so the emit path pays one array store, not a
   [Domain.self] call).  [Analysis.Racecheck] replays a merged
   multi-domain trace and uses these tags — together with the
   [Domain_spawn]/[Domain_join] happens-before edges the sharding
   helper emits — to prove that no frame or probe-visible object was
   touched by two domains concurrently. *)

type gate = Ksm_call_gate | Hypercall_gate | Interrupt_gate

let gate_name = function
  | Ksm_call_gate -> "ksm-call"
  | Hypercall_gate -> "hypercall"
  | Interrupt_gate -> "interrupt"

type event =
  | Priv_exec of { cpu : int; mnemonic : string; destructive : bool; pkrs : int; blocked : bool }
  | Wrpkrs of { cpu : int; value : int }
  | Sysret of { cpu : int; pkrs : int; if_after : bool }
  | Iret of { cpu : int; pkrs_before : int; pkrs_after : int }
  | Gate_enter of { cpu : int; gate : gate; pkrs : int }
  | Gate_exit of { cpu : int; gate : gate; entry_pkrs : int; pkrs : int }
  | Idt_deliver of {
      cpu : int;
      vector : int;
      hardware : bool;
      pks_switch : bool;
      pkrs_before : int;
      pkrs_after : int;
    }
  | Tlb_fill of { cpu : int; pcid : int; vpn : int; level : int; pfn : int }
  | Tlb_invlpg of { cpu : int; pcid : int; vpn : int }
  | Tlb_flush_pcid of { cpu : int; pcid : int }
  | Cr3_load of { cpu : int; pcid : int; root : int }
  | Pks_denied of { key : int; write : bool }
  | Ksm_op of { container : int; op : string; ok : bool }
  | Pte_downgrade of { container : int; root : int; vpn : int; unmapped : bool }
  | Container_boot of { container : int; pcid : int }
  | Mm_op of { op : string; vpn : int; pages : int }
  | Io_doorbell of { queue : string; avail_idx : int; in_flight : int }
  | Io_completion of { queue : string; used_idx : int; serviced : int }
  | Mem_read of { mem : int; pfn : int }
  | Mem_write of { mem : int; pfn : int }
  | Domain_spawn of { parent : int; child : int }
  | Domain_join of { parent : int; child : int }

(* ------------------------------------------------------------------ *)
(* Int-encoded event rings                                             *)
(* ------------------------------------------------------------------ *)

(* Fixed-stride encoding: each event occupies [stride] words —
   word 0 the variant tag, words 1..6 the payload fields in declaration
   order, word 7 the emitting domain's id.  Bools encode as 0/1; the
   few string payloads (mnemonics, KSM/mm op names, queue names) are
   interned in a per-ring side table and encoded as their intern id.
   Overflow drops the *oldest* record (and counts it), matching the
   old queue recorder's semantics. *)

let stride = 8

type ring = {
  buf : int array;  (** capacity * stride event words *)
  capacity : int;  (** events *)
  mutable head : int;  (** slot index of the oldest live event *)
  mutable len : int;
  mutable dropped : int;
  mutable strings : string array;  (** intern id -> string *)
  mutable nstrings : int;
  intern : (string, int) Hashtbl.t;
  mutable last_str : string;  (** 1-entry memo over [intern], hit by [==] *)
  mutable last_id : int;
}

let ring_create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Probe.ring_create: capacity must be positive";
  {
    buf = Array.make (capacity * stride) 0;
    capacity;
    head = 0;
    len = 0;
    dropped = 0;
    strings = Array.make 16 "";
    nstrings = 0;
    intern = Hashtbl.create 16;
    last_str = "";
    last_id = -1;
  }

let ring_length r = r.len
let ring_dropped r = r.dropped

let intern_slow r s =
  match Hashtbl.find_opt r.intern s with
  | Some id -> id
  | None ->
      let id = r.nstrings in
      if id >= Array.length r.strings then begin
        let bigger = Array.make (2 * Array.length r.strings) "" in
        Array.blit r.strings 0 bigger 0 id;
        r.strings <- bigger
      end;
      r.strings.(id) <- s;
      r.nstrings <- id + 1;
      Hashtbl.replace r.intern s id;
      id

(* Emit sites pass the same physical string on every event of a
   stream (queue names and op mnemonics live in their emitters'
   state), so a 1-entry physical-equality memo skips the hashtable on
   the steady state. *)
let[@inline] intern r s =
  if s == r.last_str && r.last_id >= 0 then r.last_id
  else begin
    let id = intern_slow r s in
    r.last_str <- s;
    r.last_id <- id;
    id
  end

(* Claim the next slot's word offset, dropping the oldest record when
   full.  Indices stay in [0, capacity) by conditional subtraction —
   no division on the emit path. *)
let[@inline] claim r =
  let slot =
    if r.len = r.capacity then begin
      let s = r.head in
      let h = s + 1 in
      r.head <- (if h = r.capacity then 0 else h);
      r.dropped <- r.dropped + 1;
      s
    end
    else begin
      let s = r.head + r.len in
      let s = if s >= r.capacity then s - r.capacity else s in
      r.len <- r.len + 1;
      s
    end
  in
  slot * stride

(* Variant tags (stable; the decoder below is the only reader). *)
let tag_priv_exec = 0
let tag_wrpkrs = 1
let tag_sysret = 2
let tag_iret = 3
let tag_gate_enter = 4
let tag_gate_exit = 5
let tag_idt_deliver = 6
let tag_tlb_fill = 7
let tag_tlb_invlpg = 8
let tag_tlb_flush_pcid = 9
let tag_cr3_load = 10
let tag_pks_denied = 11
let tag_ksm_op = 12
let tag_pte_downgrade = 13
let tag_container_boot = 14
let tag_mm_op = 15
let tag_io_doorbell = 16
let tag_io_completion = 17
let tag_mem_read = 18
let tag_mem_write = 19
let tag_domain_spawn = 20
let tag_domain_join = 21

let gate_code = function Ksm_call_gate -> 0 | Hypercall_gate -> 1 | Interrupt_gate -> 2
let gate_of_code = function 0 -> Ksm_call_gate | 1 -> Hypercall_gate | _ -> Interrupt_gate
let bool_code b = if b then 1 else 0

(* Every store writes the emitting domain's id into word 7: one extra
   array store on the emit path (the id is cached in the DLS slot, see
   below, so no [Domain.self] call either). *)
let[@inline] store4 r dom tag a b c =
  let o = claim r in
  let buf = r.buf in
  buf.(o) <- tag;
  buf.(o + 1) <- a;
  buf.(o + 2) <- b;
  buf.(o + 3) <- c;
  buf.(o + 7) <- dom

let[@inline] store6 r dom tag a b c d e =
  let o = claim r in
  let buf = r.buf in
  buf.(o) <- tag;
  buf.(o + 1) <- a;
  buf.(o + 2) <- b;
  buf.(o + 3) <- c;
  buf.(o + 4) <- d;
  buf.(o + 5) <- e;
  buf.(o + 7) <- dom

let[@inline] store7 r dom tag a b c d e f =
  let o = claim r in
  let buf = r.buf in
  buf.(o) <- tag;
  buf.(o + 1) <- a;
  buf.(o + 2) <- b;
  buf.(o + 3) <- c;
  buf.(o + 4) <- d;
  buf.(o + 5) <- e;
  buf.(o + 6) <- f;
  buf.(o + 7) <- dom

(* Encode one boxed event into the ring (the generic path; hot sites
   use the specialized emitters below and never box). *)
let ring_record_tagged r ~dom ev =
  match ev with
  | Priv_exec { cpu; mnemonic; destructive; pkrs; blocked } ->
      store6 r dom tag_priv_exec cpu (intern r mnemonic) (bool_code destructive) pkrs
        (bool_code blocked)
  | Wrpkrs { cpu; value } -> store4 r dom tag_wrpkrs cpu value 0
  | Sysret { cpu; pkrs; if_after } -> store4 r dom tag_sysret cpu pkrs (bool_code if_after)
  | Iret { cpu; pkrs_before; pkrs_after } -> store4 r dom tag_iret cpu pkrs_before pkrs_after
  | Gate_enter { cpu; gate; pkrs } -> store4 r dom tag_gate_enter cpu (gate_code gate) pkrs
  | Gate_exit { cpu; gate; entry_pkrs; pkrs } ->
      store6 r dom tag_gate_exit cpu (gate_code gate) entry_pkrs pkrs 0
  | Idt_deliver { cpu; vector; hardware; pks_switch; pkrs_before; pkrs_after } ->
      store7 r dom tag_idt_deliver cpu vector (bool_code hardware) (bool_code pks_switch)
        pkrs_before pkrs_after
  | Tlb_fill { cpu; pcid; vpn; level; pfn } -> store6 r dom tag_tlb_fill cpu pcid vpn level pfn
  | Tlb_invlpg { cpu; pcid; vpn } -> store4 r dom tag_tlb_invlpg cpu pcid vpn
  | Tlb_flush_pcid { cpu; pcid } -> store4 r dom tag_tlb_flush_pcid cpu pcid 0
  | Cr3_load { cpu; pcid; root } -> store4 r dom tag_cr3_load cpu pcid root
  | Pks_denied { key; write } -> store4 r dom tag_pks_denied key (bool_code write) 0
  | Ksm_op { container; op; ok } ->
      store4 r dom tag_ksm_op container (intern r op) (bool_code ok)
  | Pte_downgrade { container; root; vpn; unmapped } ->
      store6 r dom tag_pte_downgrade container root vpn (bool_code unmapped) 0
  | Container_boot { container; pcid } -> store4 r dom tag_container_boot container pcid 0
  | Mm_op { op; vpn; pages } -> store4 r dom tag_mm_op (intern r op) vpn pages
  | Io_doorbell { queue; avail_idx; in_flight } ->
      store4 r dom tag_io_doorbell (intern r queue) avail_idx in_flight
  | Io_completion { queue; used_idx; serviced } ->
      store4 r dom tag_io_completion (intern r queue) used_idx serviced
  | Mem_read { mem; pfn } -> store4 r dom tag_mem_read mem pfn 0
  | Mem_write { mem; pfn } -> store4 r dom tag_mem_write mem pfn 0
  | Domain_spawn { parent; child } -> store4 r dom tag_domain_spawn parent child 0
  | Domain_join { parent; child } -> store4 r dom tag_domain_join parent child 0

(* Word offset of the [i]-th oldest live record. *)
let[@inline] offset r i =
  let s = r.head + i in
  (if s >= r.capacity then s - r.capacity else s) * stride

(* Decode the [i]-th oldest live record back into a boxed event. *)
let decode r i =
  let o = offset r i in
  let buf = r.buf in
  let a = buf.(o + 1) and b = buf.(o + 2) and c = buf.(o + 3) in
  let d = buf.(o + 4) and e = buf.(o + 5) and f = buf.(o + 6) in
  match buf.(o) with
  | 0 ->
      Priv_exec
        { cpu = a; mnemonic = r.strings.(b); destructive = c = 1; pkrs = d; blocked = e = 1 }
  | 1 -> Wrpkrs { cpu = a; value = b }
  | 2 -> Sysret { cpu = a; pkrs = b; if_after = c = 1 }
  | 3 -> Iret { cpu = a; pkrs_before = b; pkrs_after = c }
  | 4 -> Gate_enter { cpu = a; gate = gate_of_code b; pkrs = c }
  | 5 -> Gate_exit { cpu = a; gate = gate_of_code b; entry_pkrs = c; pkrs = d }
  | 6 ->
      Idt_deliver
        {
          cpu = a;
          vector = b;
          hardware = c = 1;
          pks_switch = d = 1;
          pkrs_before = e;
          pkrs_after = f;
        }
  | 7 -> Tlb_fill { cpu = a; pcid = b; vpn = c; level = d; pfn = e }
  | 8 -> Tlb_invlpg { cpu = a; pcid = b; vpn = c }
  | 9 -> Tlb_flush_pcid { cpu = a; pcid = b }
  | 10 -> Cr3_load { cpu = a; pcid = b; root = c }
  | 11 -> Pks_denied { key = a; write = b = 1 }
  | 12 -> Ksm_op { container = a; op = r.strings.(b); ok = c = 1 }
  | 13 -> Pte_downgrade { container = a; root = b; vpn = c; unmapped = d = 1 }
  | 14 -> Container_boot { container = a; pcid = b }
  | 15 -> Mm_op { op = r.strings.(a); vpn = b; pages = c }
  | 16 -> Io_doorbell { queue = r.strings.(a); avail_idx = b; in_flight = c }
  | 17 -> Io_completion { queue = r.strings.(a); used_idx = b; serviced = c }
  | 18 -> Mem_read { mem = a; pfn = b }
  | 19 -> Mem_write { mem = a; pfn = b }
  | 20 -> Domain_spawn { parent = a; child = b }
  | 21 -> Domain_join { parent = a; child = b }
  | t -> invalid_arg (Printf.sprintf "Probe.ring: corrupt tag %d" t)

let decode_dom r i = r.buf.(offset r i + 7)
let ring_events r = List.init r.len (decode r)
let ring_events_tagged r = List.init r.len (fun i -> (decode_dom r i, decode r i))

let ring_iter_tagged r g =
  for i = 0 to r.len - 1 do
    g (decode_dom r i) (decode r i)
  done

(* ------------------------------------------------------------------ *)
(* Per-domain sinks                                                    *)
(* ------------------------------------------------------------------ *)

type sink = Off | Ring of ring

(* Each domain owns its sink: the sharded engine gives every worker
   domain its own ring, and a recorder attached on one domain never
   observes (or races with) another domain's events.  The slot also
   caches the owning domain's id (as an int), established once per
   domain — the tagging store on the emit path reads this field
   instead of calling [Domain.self]. *)
type slot = { mutable sink : sink; dom : int }

let sink_key : slot Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { sink = Off; dom = (Domain.self () :> int) })

let current () = Domain.DLS.get sink_key
let self_dom () = (current ()).dom

let active () = match (current ()).sink with Off -> false | Ring _ -> true

let emit ev =
  let st = current () in
  match st.sink with Off -> () | Ring r -> ring_record_tagged r ~dom:st.dom ev

(* Replay path: deliver [ev] to the calling domain's sink but tag it
   as having been emitted by domain [dom] — merging a worker ring into
   the parent's sink must preserve the original owners or the race
   checker would see every access as the parent's. *)
let emit_tagged ~dom ev =
  match (current ()).sink with
  | Off -> ()
  | Ring r -> ring_record_tagged r ~dom ev

let ring_record r ev = ring_record_tagged r ~dom:(self_dom ()) ev
let set_ring r = (current ()).sink <- Ring r
let clear_sink () = (current ()).sink <- Off

(* Run [f] with no sink installed, restoring the previous one after —
   the model checker's state-space exploration replays millions of
   probe-instrumented transitions and must not flood a recorder the
   surrounding scenario attached. *)
let suspended f =
  let st = current () in
  let saved = st.sink in
  st.sink <- Off;
  Fun.protect ~finally:(fun () -> st.sink <- saved) f

(* ------------------------------------------------------------------ *)
(* Physical-memory access tracing                                      *)
(* ------------------------------------------------------------------ *)

(* Opt-in switch for the [Mem_read]/[Mem_write] stream: the flag is a
   process-global atomic (not DLS — worker domains spawned after the
   parent enabled tracing must observe it) read once per [Phys_mem]
   accessor.  Off by default so ordinary [--check] runs don't flood
   their recorders with one event per PTE read. *)
let mem_trace_flag = Atomic.make false
let set_mem_trace v = Atomic.set mem_trace_flag v
let mem_trace () = Atomic.get mem_trace_flag

(* ------------------------------------------------------------------ *)
(* Specialized hot emitters                                            *)
(* ------------------------------------------------------------------ *)

(* The engine's steady-state emit sites: with a ring sink installed
   these are a tag dispatch plus a handful of int stores — no event
   boxing, no closure call. *)

let emit_tlb_fill ~cpu ~pcid ~vpn ~level ~pfn =
  let st = current () in
  match st.sink with
  | Off -> ()
  | Ring r -> store6 r st.dom tag_tlb_fill cpu pcid vpn level pfn

let emit_io_doorbell ~queue ~avail_idx ~in_flight =
  let st = current () in
  match st.sink with
  | Off -> ()
  | Ring r -> store4 r st.dom tag_io_doorbell (intern r queue) avail_idx in_flight

let emit_io_completion ~queue ~used_idx ~serviced =
  let st = current () in
  match st.sink with
  | Off -> ()
  | Ring r -> store4 r st.dom tag_io_completion (intern r queue) used_idx serviced

let emit_mem_read ~mem ~pfn =
  let st = current () in
  match st.sink with
  | Off -> ()
  | Ring r -> store4 r st.dom tag_mem_read mem pfn 0

let emit_mem_write ~mem ~pfn =
  let st = current () in
  match st.sink with
  | Off -> ()
  | Ring r -> store4 r st.dom tag_mem_write mem pfn 0
