(* The CKI host-kernel side: hPA segment delegation, vCPU scheduling,
   VirtIO backends, hardware-interrupt handling and virtual-interrupt
   injection (Sections 3.3 and 4.2, "slow paths").

   In a nested cloud the host kernel *is* the L1 kernel; the crucial
   property is that a CKI exit never involves the L0 hypervisor, so the
   costs here are environment-independent. *)

type delegated = { base : Hw.Addr.pfn; frames : int; container : int }

(* How segments are delegated.  [First_fit] is the paper's inherited
   limitation: the whole request must be one contiguous run, so churn
   plus interleaved host allocations eventually leaves no run long
   enough even when plenty of total memory is free.  [Scatter] tries
   contiguous first and, when no run fits, adaptively splits the
   request into smaller chunks (halving down to [scatter_min_chunk]),
   so delegation succeeds whenever enough memory exists in runs of at
   least the minimum chunk — the property the fleet's create/destroy
   churn depends on. *)
type policy = First_fit | Scatter

let scatter_min_chunk = 64 (* 256 KiB: bounds the zone count per container *)

type t = {
  machine : Hw.Machine.t;
  clock : Hw.Clock.t;
  host_root : Hw.Addr.pfn;  (** host kernel page-table root *)
  host_pcid : int;
  mutable policy : policy;
  mutable delegations : delegated list;
  mutable next_container : int;
  mutable hypercalls : int;
  mutable injected_virqs : int;
  mutable hw_interrupts : int;
  mutable doorbells : int;  (** device-doorbell hypercalls (Net/Blk) *)
}

(* [first_container] separates container-id spaces when several host
   instances share one machine (fleet host slices): delegations and
   frame owners are tagged by container id, so ids must stay unique
   machine-wide. *)
let create ?(policy = Scatter) ?(first_container = 1) (machine : Hw.Machine.t) =
  let mem = Hw.Machine.mem machine in
  let host_root = Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 4) in
  {
    machine;
    clock = Hw.Machine.clock machine;
    host_root;
    host_pcid = 0;
    policy;
    delegations = [];
    next_container = first_container;
    hypercalls = 0;
    injected_virqs = 0;
    hw_interrupts = 0;
    doorbells = 0;
  }

let machine t = t.machine
let host_root t = t.host_root
let host_pcid t = t.host_pcid
let policy t = t.policy
let set_policy t p = t.policy <- p

let fresh_container_id t =
  let id = t.next_container in
  t.next_container <- id + 1;
  id

(* Delegate a contiguous hPA segment to [container].  First-fit over
   physical memory — the fragmentation-prone allocation the paper
   acknowledges as CKI's limitation. *)
let delegate_segment t ~container ~frames =
  let mem = Hw.Machine.mem t.machine in
  let base =
    Hw.Phys_mem.alloc_contiguous mem ~owner:(Hw.Phys_mem.Container container)
      ~kind:Hw.Phys_mem.Data ~count:frames
  in
  t.delegations <- { base; frames; container } :: t.delegations;
  (base, frames)

(* Scatter delegation: contiguous when a run exists (so the layout is
   identical to first-fit on an unfragmented host), otherwise split the
   request adaptively — halve the attempted chunk on every contiguous
   failure, down to [scatter_min_chunk].  Chunks are recorded as
   independent delegations, so [reclaim_segment] and the analysis
   scanner need no special casing.  On failure every chunk already
   taken is rolled back before Out_of_memory propagates. *)
let delegate_scatter t ~container ~frames =
  let mem = Hw.Machine.mem t.machine in
  let chunks = ref [] in
  let rollback () =
    List.iter
      (fun (base, n) ->
        for pfn = base to base + n - 1 do
          Hw.Phys_mem.free mem pfn
        done)
      !chunks
  in
  let rec fill remaining attempt =
    if remaining > 0 then
      let attempt = min attempt remaining in
      match
        Hw.Phys_mem.alloc_contiguous mem ~owner:(Hw.Phys_mem.Container container)
          ~kind:Hw.Phys_mem.Data ~count:attempt
      with
      | base ->
          chunks := (base, attempt) :: !chunks;
          fill (remaining - attempt) attempt
      | exception Hw.Phys_mem.Out_of_memory ->
          if attempt <= scatter_min_chunk then begin
            rollback ();
            raise Hw.Phys_mem.Out_of_memory
          end
          else fill remaining (max scatter_min_chunk (attempt / 2))
  in
  fill frames frames;
  let segs = List.rev !chunks in
  List.iter (fun (base, n) -> t.delegations <- { base; frames = n; container } :: t.delegations) segs;
  segs

let delegate t ~container ~frames =
  match t.policy with
  | First_fit -> [ delegate_segment t ~container ~frames ]
  | Scatter -> delegate_scatter t ~container ~frames

let reclaim_segment t ~container =
  let mem = Hw.Machine.mem t.machine in
  let mine, rest = List.partition (fun d -> d.container = container) t.delegations in
  List.iter
    (fun d ->
      for pfn = d.base to d.base + d.frames - 1 do
        if not (Hw.Phys_mem.is_free mem pfn) then Hw.Phys_mem.free mem pfn
      done)
    mine;
  t.delegations <- rest

let delegations_of t ~container = List.filter (fun d -> d.container = container) t.delegations

(* Host events on the request path, interned once. *)
let id_doorbell_write = Hw.Clock.intern "doorbell_write"
let id_host_irq_handler = Hw.Clock.intern "host_irq_handler"
let id_virq_inject = Hw.Clock.intern "virq_inject"

(* Host-side handler for hypercall requests (the global-data privileged
   operations of Section 3.3: VirtIO, timers, vCPU pause, IPIs). *)
let handle_hypercall t (kind : Kernel_model.Platform.io_kind) =
  t.hypercalls <- t.hypercalls + 1;
  match kind with
  | Kernel_model.Platform.Net_tx | Kernel_model.Platform.Net_rx_ack
  | Kernel_model.Platform.Blk_read | Kernel_model.Platform.Blk_write ->
      (* A device doorbell: the MMIO write lands in the host backend.
         The VirtIO service cost is charged by the queue owner
         (Kernel_model.Virtio.service); here only the write itself. *)
      t.doorbells <- t.doorbells + 1;
      Hw.Clock.charge_id t.clock id_doorbell_write Hw.Cost.doorbell_write
  | Kernel_model.Platform.Timer -> Hw.Clock.charge t.clock "host_timer_setup" 120.0
  | Kernel_model.Platform.Ipi -> Hw.Clock.charge t.clock "host_ipi" 200.0
  | Kernel_model.Platform.Console -> ()

(* A hardware interrupt arrived while a container vCPU was running: the
   interrupt gate redirected it here; handle and inject a virtual
   interrupt on resume. *)
let handle_hw_interrupt t ~vector =
  ignore vector;
  t.hw_interrupts <- t.hw_interrupts + 1;
  Hw.Clock.charge_id t.clock id_host_irq_handler Hw.Cost.irq_delivery

let inject_virq t =
  t.injected_virqs <- t.injected_virqs + 1;
  Hw.Clock.charge_id t.clock id_virq_inject Hw.Cost.virq_inject

let hypercall_count t = t.hypercalls
let injected_virqs t = t.injected_virqs
let hw_interrupt_count t = t.hw_interrupts
let doorbell_count t = t.doorbells

(* ------------------------------------------------------------------ *)
(* Warm pool: pre-booted clone templates for instant scale-out         *)
(* ------------------------------------------------------------------ *)

(* Polymorphic so lib/core need not depend on lib/snapshot: the host
   manages the pool discipline (pre-boot N, rotate, refill on miss);
   the snapshot layer supplies the template type and the clone step. *)
module Warm_pool = struct
  type 'a t = {
    make : unit -> 'a;
    target : int;
    low_water : int;
    ready : 'a Queue.t;
    mutable prebooted : int;  (** templates ever built (pre-boot + misses + refills) *)
    mutable served : int;  (** take requests served *)
    mutable hits : int;  (** takes served from a ready template *)
    mutable misses : int;  (** takes that had to build inline (cold path) *)
    mutable refills : int;  (** templates built by refill_low_water *)
  }

  let refill_to p n =
    let built = ref 0 in
    while Queue.length p.ready < n do
      Queue.add (p.make ()) p.ready;
      p.prebooted <- p.prebooted + 1;
      incr built
    done;
    !built

  let create ?(low_water = 0) ~target ~make () =
    if target < 0 || low_water < 0 || low_water > target then invalid_arg "Warm_pool.create";
    let p =
      {
        make;
        target;
        low_water;
        ready = Queue.create ();
        prebooted = 0;
        served = 0;
        hits = 0;
        misses = 0;
        refills = 0;
      }
    in
    ignore (refill_to p target);
    p

  (* Templates are immutable once frozen, so a take rotates rather than
     consumes: the same template serves an unbounded number of clones.
     An empty pool is a miss — the cold build happens inline, which is
     exactly what [refill_low_water] exists to get ahead of. *)
  let take p =
    p.served <- p.served + 1;
    match Queue.take_opt p.ready with
    | Some x ->
        p.hits <- p.hits + 1;
        Queue.add x p.ready;
        x
    | None ->
        let x = p.make () in
        p.prebooted <- p.prebooted + 1;
        p.misses <- p.misses + 1;
        Queue.add x p.ready;
        x

  (* The background-refill hook: called from the host's idle path (the
     fleet controller runs it between event-loop rounds), it tops the
     pool back to target once the ready count dips below the low-water
     mark, so a scale-out burst keeps hitting warm templates instead of
     collapsing to the cold build silently. *)
  let refill_low_water p =
    if Queue.length p.ready < p.low_water then begin
      let built = refill_to p p.target in
      p.refills <- p.refills + built;
      built
    end
    else 0

  (* Hand the drained templates back to the caller: only the snapshot
     layer knows whether a template still backs live CoW clones and may
     be destroyed or must be retired until its refcounts drop. *)
  let drain p =
    let items = List.of_seq (Queue.to_seq p.ready) in
    Queue.clear p.ready;
    items

  let size p = Queue.length p.ready
  let prebooted p = p.prebooted
  let served p = p.served
  let hits p = p.hits
  let misses p = p.misses
  let refills p = p.refills
end
