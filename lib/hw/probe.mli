(** Hardware/monitor event probes.

    Low-overhead hook points scattered through the simulator ([Cpu],
    [Idt], [Pks], the KSM, the gates, the guest [Mm]) emit typed events
    here. Nothing is recorded unless a sink is installed — the analysis
    library's trace recorder attaches one around a scenario and lints
    the resulting event stream afterwards.

    Events carry only primitive payloads so this module sits below
    everything else in [hw] (only {!Pks}-free, {!Priv}-free data), and
    any layer may emit without dependency cycles.

    Every ring record is additionally tagged with the id of the domain
    that emitted it (word 7 of the 8-word encoding); the tagged
    accessors below expose the tag so [Analysis.Racecheck] can replay
    a merged multi-domain trace and check cross-domain accesses
    against the spawn/join happens-before order. *)

(** Which switch gate an event refers to. *)
type gate = Ksm_call_gate | Hypercall_gate | Interrupt_gate

val gate_name : gate -> string

type event =
  | Priv_exec of {
      cpu : int;
      mnemonic : string;
      destructive : bool;  (** blocked-in-guest per Table 3 *)
      pkrs : int;  (** PKRS at the attempt *)
      blocked : bool;  (** did extension E2 fault it? *)
    }
  | Wrpkrs of { cpu : int; value : int }  (** a successful PKRS write *)
  | Sysret of { cpu : int; pkrs : int; if_after : bool }  (** E3 *)
  | Iret of { cpu : int; pkrs_before : int; pkrs_after : int }  (** E4 *)
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
  | Pte_downgrade of {
      container : int;
      root : int;
      vpn : int;
      unmapped : bool;  (** true: PTE cleared; false: write-protected *)
    }
  | Container_boot of { container : int; pcid : int }
  | Mm_op of { op : string; vpn : int; pages : int }
  | Io_doorbell of { queue : string; avail_idx : int; in_flight : int }
      (** a VirtIO doorbell actually rang (suppressed kicks don't emit);
          [in_flight] = avail entries the host has not yet serviced *)
  | Io_completion of { queue : string; used_idx : int; serviced : int }
      (** a VirtIO completion interrupt was injected; [serviced] = used
          entries this injection signals *)
  | Mem_read of { mem : int; pfn : int }
      (** a {!Phys_mem} PTE/table read on memory instance [mem]; only
          emitted when {!mem_trace} is on *)
  | Mem_write of { mem : int; pfn : int }
      (** a {!Phys_mem} metadata or PTE write on memory instance [mem];
          only emitted when {!mem_trace} is on *)
  | Domain_spawn of { parent : int; child : int }
      (** happens-before edge: everything [parent] did before this
          event is ordered before everything [child] does *)
  | Domain_join of { parent : int; child : int }
      (** happens-before edge: everything [child] did is ordered
          before everything [parent] does after this event *)

(** {1 Int-encoded event rings}

    A flat preallocated ring of fixed-stride int-encoded event words:
    recording through a ring sink is a handful of array stores with no
    allocation, and the stream is decoded back into {!event} values
    lazily ({!ring_events}) at lint time.  Overflow drops the oldest
    record and counts it.  String payloads are interned in a per-ring
    side table. *)

type ring

val ring_create : ?capacity:int -> unit -> ring
(** Default capacity 65536 events. *)

val ring_length : ring -> int

val ring_dropped : ring -> int
(** Records lost to overflow. *)

val ring_record : ring -> event -> unit
(** Encode one boxed event into the ring, tagged with the calling
    domain's id (generic path; also the injection point for
    fault-injection tests). *)

val ring_events : ring -> event list
(** Decode the live records, oldest first. *)

val ring_events_tagged : ring -> (int * event) list
(** Like {!ring_events}, each event paired with the id of the domain
    that emitted it. *)

val ring_iter_tagged : ring -> (int -> event -> unit) -> unit
(** Apply a function to each recorded event, oldest first, with the
    emitting domain's id as first argument. *)

(** {1 Per-domain sinks}

    The installed sink is domain-local state: each domain of the
    sharded engine records into its own ring, and a recorder attached
    on one domain never observes another domain's events. *)

val active : unit -> bool
(** Cheap guard: emitters must test this before constructing an event,
    so the disabled path costs one domain-local read and no
    allocation. *)

val self_dom : unit -> int
(** The calling domain's id as cached in its sink slot (equal to
    [(Domain.self () :> int)], without the call). *)

val emit : event -> unit
(** Deliver [ev] to the calling domain's sink (no-op when none). *)

val emit_tagged : dom:int -> event -> unit
(** Deliver [ev] to the calling domain's sink, tagged as having been
    emitted by domain [dom].  Used when replaying a worker ring into
    the parent's sink: the merged stream keeps the original owners. *)

val set_ring : ring -> unit
(** Install a ring sink on the calling domain. Replaces any previous
    sink. *)

val clear_sink : unit -> unit

val suspended : (unit -> 'a) -> 'a
(** [suspended f] runs [f] with no sink installed and restores the
    previous sink afterwards (even on exception). Used by the model
    checker so exploration does not flood an attached recorder. *)

(** {1 Physical-memory access tracing}

    Opt-in switch for the {!Mem_read}/{!Mem_write} stream.  Process
    global (all domains observe it), off by default: ordinary runs do
    not pay one event per PTE read.  The race checker's harness turns
    it on around a sharded run. *)

val set_mem_trace : bool -> unit
val mem_trace : unit -> bool

(** {1 Specialized hot emitters}

    The engine's steady-state emit sites: with a ring sink these write
    int words directly — no event boxing, no closure call; with no sink
    they cost the [active] guard alone. *)

val emit_tlb_fill : cpu:int -> pcid:int -> vpn:int -> level:int -> pfn:int -> unit
val emit_io_doorbell : queue:string -> avail_idx:int -> in_flight:int -> unit
val emit_io_completion : queue:string -> used_idx:int -> serviced:int -> unit
val emit_mem_read : mem:int -> pfn:int -> unit
val emit_mem_write : mem:int -> pfn:int -> unit
