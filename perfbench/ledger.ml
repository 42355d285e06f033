(* Simulated-time ledger, read from outside the simulator.

   Every clock the benchmark owns keeps per-event occurrence counts and
   nanosecond totals ([Hw.Clock.events]/[spent_on]).  This table maps
   each event name to the repo layer that charges it, so a region's
   simulated time splits into per-layer nanoseconds plus the
   unattributed remainder (time advanced without an event name: pure
   application compute, idle waits, clock synchronisation).

   An event name the table does not know is recorded as unmapped, and
   the benchmark fails on it: a new cost id cannot go unattributed. *)

let exact =
  [
    (* hw: translation and privileged-instruction costs of Hw.Cpu *)
    ("tlb_hit", "hw");
    ("tlb_miss_walk", "hw");
    ("cr3_switch", "hw");
    ("invlpg", "hw");
    ("priv_inst_blocked", "hw");
    ("syscall_entry_exit", "hw");
    (* kernel: the guest kernel model (Kernel_model) *)
    ("syscall", "kernel");
    ("irq", "kernel");
    ("pf_service", "kernel");
    ("cow_break_copy", "kernel");
    ("blk_io", "kernel");
    ("execve_teardown", "kernel");
    ("net_wire", "kernel");
    ("pipe_copy", "kernel");
    ("file_copy", "kernel");
    ("vfs_lookup", "kernel");
    (* core: the CKI monitor, gates and host *)
    ("ksm_call", "core");
    ("guest_kernel_boot", "core");
    ("pku_fault_injection", "core");
    ("inkernel_syscall", "core");
    ("doorbell_write", "core");
    ("virq_inject", "core");
    ("nested_irq_extra", "core");
    (* virt: the HVM/PVM/RunC baselines *)
    ("vmexit", "virt");
    ("vmexit_nested", "virt");
    ("runc_ns", "virt");
    (* ioplane: the host software switch *)
    ("switch_forward", "ioplane");
    (* migrate: the multi-host fabric's wire *)
    ("fabric_transfer", "migrate");
  ]

let prefixes =
  [
    ("sys_", "kernel");
    ("virtio_", "kernel");
    ("cki_", "core");
    ("gate_", "core");
    ("host_", "core");
    ("driver_", "core");
    ("pvm_", "virt");
    ("shadow_", "virt");
    ("hvm_", "virt");
    ("ept_fault", "virt");
    ("snapshot_", "snapshot");
  ]

let layers = [ "hw"; "kernel"; "core"; "virt"; "snapshot"; "ioplane"; "migrate" ]

let layer_of name =
  match List.assoc_opt name exact with
  | Some l -> Some l
  | None ->
      List.find_map
        (fun (p, l) -> if String.starts_with ~prefix:p name then Some l else None)
        prefixes

(* A clock's state at one instant. *)
type mark = { at_ns : float; ev : (string * (int * float)) list }

let mark clock =
  {
    at_ns = Hw.Clock.now clock;
    ev = List.map (fun (n, c) -> (n, (c, Hw.Clock.spent_on clock n))) (Hw.Clock.events clock);
  }

type t = {
  layer_ns : (string, float) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  mutable elapsed_ns : float;
  mutable unmapped : string list;
}

let create () =
  { layer_ns = Hashtbl.create 8; counts = Hashtbl.create 64; elapsed_ns = 0.0; unmapped = [] }

let bump tbl k v zero add = Hashtbl.replace tbl k (add v (Option.value (Hashtbl.find_opt tbl k) ~default:zero))

(* Fold the region [before, now] of [clock] into the ledger. *)
let add t ~before clock =
  let after = mark clock in
  t.elapsed_ns <- t.elapsed_ns +. (after.at_ns -. before.at_ns);
  List.iter
    (fun (name, (c, ns)) ->
      let c0, ns0 = Option.value (List.assoc_opt name before.ev) ~default:(0, 0.0) in
      if c > c0 || ns > ns0 then begin
        bump t.counts name (c - c0) 0 ( + );
        match layer_of name with
        | Some l -> bump t.layer_ns l (ns -. ns0) 0.0 ( +. )
        | None -> if not (List.mem name t.unmapped) then t.unmapped <- name :: t.unmapped
      end)
    after.ev

let count t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0
let layer_ns t l = Option.value (Hashtbl.find_opt t.layer_ns l) ~default:0.0

let unattributed_ns t =
  t.elapsed_ns -. Hashtbl.fold (fun _ ns acc -> acc +. ns) t.layer_ns 0.0

(* sim.<layer>_ns_per_op for every layer, plus the remainder. *)
let metrics t ~ops =
  let per x = if ops > 0 then x /. float_of_int ops else 0.0 in
  List.map (fun l -> Measure.metric ("sim." ^ l ^ "_ns_per_op") "ns" (per (layer_ns t l))) layers
  @ [ Measure.metric "sim.unattributed_ns_per_op" "ns" (per (unattributed_ns t)) ]

let check t =
  Measure.check "every simulated cost id maps to a layer" (t.unmapped = [])
    (String.concat ", " (List.rev t.unmapped))
