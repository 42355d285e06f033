(* Dynamic cross-domain access checker over a merged probe trace.

   The sharded engines ([Hw.Domain_shard]) replay every worker's probe
   ring into the parent's sink with the original per-event domain tags
   preserved, bracketed by [Domain_spawn]/[Domain_join] edges.  This
   module replays that merged stream and checks every traced
   physical-memory access ([Mem_read]/[Mem_write], keyed on
   [(mem_id, pfn)] because two shards legitimately own distinct
   [Phys_mem] instances with overlapping pfn ranges) against
   vector-clock happens-before order:

   - each domain [d] carries a vector clock [VC_d];
   - [Domain_spawn {parent; child}]: the child inherits the parent's
     clock ([VC_c := VC_c ⊔ VC_p]) and the parent then ticks its own
     component, so parent work *before* the spawn is ordered before
     the child but later parent work is concurrent with it;
   - [Domain_join {parent; child}]: the parent absorbs the child
     ([VC_p := VC_p ⊔ VC_c]), ordering everything the child did
     before everything the parent does next;
   - every access is stamped with the epoch [(d, VC_d[d])].  A later
     access by domain [e] races with it iff [d <> e] and the epoch is
     not covered by [e]'s clock ([VC_d[d] > VC_e[d]]) — i.e. no
     spawn/join path connects them — and at least one of the two is a
     write (concurrent reads are fine).

   This is the FastTrack discipline reduced to what a deterministic
   replayed trace needs: per object we keep the last-write epoch and
   the set of read epochs since that write. *)

module Imap = Map.Make (Int)

type race = {
  mem : int;  (** Phys_mem instance ([Hw.Phys_mem.mem_id]) *)
  pfn : int;
  first_dom : int;
  first_write : bool;
  second_dom : int;
  second_write : bool;
}
[@@deriving show { with_path = false }]

type report = {
  races : race list;  (** deduped per (mem, pfn, dom pair), stream order *)
  events : int;  (** total events replayed *)
  accesses : int;  (** Mem_read/Mem_write events examined *)
  objects : int;  (** distinct (mem, pfn) objects touched *)
  domains : int;  (** distinct domain ids seen *)
  edges : int;  (** spawn/join happens-before edges *)
}

let is_clean r = r.races = []

let pp_report fmt r =
  Format.fprintf fmt "racecheck: %d race(s) over %d accesses to %d objects by %d domain(s)"
    (List.length r.races) r.accesses r.objects r.domains

(* Vector clocks as int maps (domain ids are sparse: the parent's id
   survives across sharded sections while worker ids are fresh each
   time). *)
let vc_get vc d = Option.value (Imap.find_opt d vc) ~default:0
let vc_join a b = Imap.union (fun _ x y -> Some (max x y)) a b

(* Per-object access history: last write epoch + reads since. *)
type obj = { mutable w : (int * int) option; mutable rs : int Imap.t }

let check (events : (int * Hw.Probe.event) list) : report =
  let clocks : (int, int Imap.t) Hashtbl.t = Hashtbl.create 8 in
  (* A domain's first appearance starts its clock at 1 on its own
     component, so its epochs are never covered by a sibling that
     merely shares the parent's prefix. *)
  let vc_of d =
    match Hashtbl.find_opt clocks d with
    | Some vc -> vc
    | None ->
        let vc = Imap.singleton d 1 in
        Hashtbl.replace clocks d vc;
        vc
  in
  let objs : (int * int, obj) Hashtbl.t = Hashtbl.create 256 in
  let obj_of key =
    match Hashtbl.find_opt objs key with
    | Some o -> o
    | None ->
        let o = { w = None; rs = Imap.empty } in
        Hashtbl.replace objs key o;
        o
  in
  let races = ref [] in
  let seen : (int * int * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let report_race ~mem ~pfn ~first_dom ~first_write ~second_dom ~second_write =
    let a = min first_dom second_dom and b = max first_dom second_dom in
    if not (Hashtbl.mem seen (mem, pfn, a, b)) then begin
      Hashtbl.replace seen (mem, pfn, a, b) ();
      races := { mem; pfn; first_dom; first_write; second_dom; second_write } :: !races
    end
  in
  let n_events = ref 0 in
  let n_accesses = ref 0 in
  let n_edges = ref 0 in
  (* [covered (d, c) vc]: is epoch (d, c) happens-before a state with
     clock [vc]? *)
  let covered (d, c) vc = c <= vc_get vc d in
  let access ~dom ~mem ~pfn ~write =
    incr n_accesses;
    let vc = vc_of dom in
    let o = obj_of (mem, pfn) in
    (match o.w with
    | Some (wd, wc) when wd <> dom && not (covered (wd, wc) vc) ->
        report_race ~mem ~pfn ~first_dom:wd ~first_write:true ~second_dom:dom
          ~second_write:write
    | _ -> ());
    if write then begin
      (* A write also races with any concurrent read since the last
         write. *)
      Imap.iter
        (fun rd rc ->
          if rd <> dom && not (covered (rd, rc) vc) then
            report_race ~mem ~pfn ~first_dom:rd ~first_write:false ~second_dom:dom
              ~second_write:true)
        o.rs;
      o.w <- Some (dom, vc_get vc dom);
      o.rs <- Imap.empty
    end
    else o.rs <- Imap.add dom (vc_get vc dom) o.rs
  in
  List.iter
    (fun (dom, (ev : Hw.Probe.event)) ->
      incr n_events;
      match ev with
      | Hw.Probe.Mem_read { mem; pfn } -> access ~dom ~mem ~pfn ~write:false
      | Hw.Probe.Mem_write { mem; pfn } -> access ~dom ~mem ~pfn ~write:true
      | Hw.Probe.Domain_spawn { parent; child } ->
          incr n_edges;
          let pvc = vc_of parent in
          Hashtbl.replace clocks child (vc_join (vc_of child) pvc);
          (* Tick the parent: its post-spawn work is concurrent with
             the child. *)
          Hashtbl.replace clocks parent (Imap.add parent (vc_get pvc parent + 1) pvc)
      | Hw.Probe.Domain_join { parent; child } ->
          incr n_edges;
          Hashtbl.replace clocks parent (vc_join (vc_of parent) (vc_of child))
      | _ -> ())
    events;
  {
    races = List.rev !races;
    events = !n_events;
    accesses = !n_accesses;
    objects = Hashtbl.length objs;
    domains = Hashtbl.length clocks;
    edges = !n_edges;
  }

let of_trace trace = check (Trace.tagged_events trace)

let findings r =
  List.map
    (fun rc ->
      Report.Findings.make ~severity:Report.Findings.Critical ~rule:"domain-race"
        ~subject:(Printf.sprintf "mem %d pfn %d" rc.mem rc.pfn)
        ~detail:(show_race rc))
    r.races
