(* Reference PCID-tagged TLB for the differential tests: [Hw.Tlb] as it
   was before the translation cache was folded into it — a [Hashtbl]
   keyed by (pcid, vpn) tuples plus a [Queue] of keys in FIFO order.
   Slow, but obviously FIFO.

   Verbatim except for two changes:
   - the eviction fix, marked below: [invlpg] and [flush_pcid] also
     drop the keys they remove from [order].  The original left them
     queued, so a full TLB could "evict" an entry that was already gone
     and grow past its capacity, and a re-inserted key was evicted
     early through its stale queue entry;
   - the invalidate hook and the front-cache hit counter, which served
     only the CPU's translation cache, are left out.  With no hook
     registered they were no-ops.
   The production TLB must reproduce this fixed model. *)

open Hw

(* PCID-tagged TLB model.

   Capacity-bounded with FIFO-ish eviction; entries are tagged with the
   process-context id so that `invlpg` executed inside one container
   (one PCID) cannot flush another container's entries — the property
   Section 4.1 relies on to prevent cross-container TLB DoS. *)

type entry = {
  pfn : Addr.pfn;
  flags : Pte.flags;
  level : int;  (** 1 = 4 KiB, 2 = 2 MiB *)
}

type t = {
  capacity : int;
  table : (int * Addr.vpn, entry) Hashtbl.t;
  order : (int * Addr.vpn) Queue.t;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let create ?(capacity = 1536) () =
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    order = Queue.create ();
    hits = 0;
    misses = 0;
    flushes = 0;
  }

let key ~pcid vpn = (pcid, vpn)

let lookup t ~pcid va =
  let vpn = Addr.vpn_of_va va in
  match Hashtbl.find_opt t.table (key ~pcid vpn) with
  | Some e ->
      t.hits <- t.hits + 1;
      Some e
  | None -> (
      (* A 2 MiB mapping covers 512 vpns; model it with an entry on the
         2 MiB-aligned vpn. *)
      match Hashtbl.find_opt t.table (key ~pcid (vpn land lnot 511)) with
      | Some e when e.level = 2 ->
          t.hits <- t.hits + 1;
          Some e
      | _ ->
          t.misses <- t.misses + 1;
          None)

let evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some k -> Hashtbl.remove t.table k

let insert t ~pcid ~va entry =
  let vpn = Addr.vpn_of_va va in
  let vpn = if entry.level = 2 then vpn land lnot 511 else vpn in
  if Hashtbl.length t.table >= t.capacity then evict_one t;
  let k = key ~pcid vpn in
  if not (Hashtbl.mem t.table k) then Queue.add k t.order;
  Hashtbl.replace t.table k entry

(* eviction fix: keep [order] to exactly the live keys. *)
let drop_from_order t =
  let live = Queue.create () in
  Queue.iter (fun k -> if Hashtbl.mem t.table k then Queue.add k live) t.order;
  Queue.clear t.order;
  Queue.transfer live t.order

(* invlpg: drops the translation for one page in one PCID only. *)
let invlpg t ~pcid va =
  let vpn = Addr.vpn_of_va va in
  Hashtbl.remove t.table (key ~pcid vpn);
  Hashtbl.remove t.table (key ~pcid (vpn land lnot 511));
  drop_from_order t

(* invpcid / CR3 write with flush: drop all entries of [pcid]. *)
let flush_pcid t ~pcid =
  t.flushes <- t.flushes + 1;
  let stale = Hashtbl.fold (fun (p, v) _ acc -> if p = pcid then (p, v) :: acc else acc) t.table [] in
  List.iter (Hashtbl.remove t.table) stale;
  drop_from_order t

let flush_all t =
  t.flushes <- t.flushes + 1;
  Hashtbl.reset t.table;
  Queue.clear t.order

(* Fold over all cached translations (scanner support: the analysis
   library re-walks the live page tables and compares). *)
let fold t f init =
  Hashtbl.fold (fun (pcid, vpn) e acc -> f acc ~pcid ~vpn e) t.table init

let size t = Hashtbl.length t.table
let entries_for t ~pcid = Hashtbl.fold (fun (p, _) _ n -> if p = pcid then n + 1 else n) t.table 0
let hits t = t.hits
let misses t = t.misses
