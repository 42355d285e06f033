(* Simulated-time accounting.

   Every latency the simulator charges flows through a [Clock.t]; event
   counters record *why* time was spent so tests can make structural
   assertions ("a PVM page fault performs 6 context switches") and the
   benches can print breakdowns.

   One tier: a process-wide registry gives every event name a dense
   integer id ([intern]), and each clock keeps a flat count array and a
   flat (unboxed) float array indexed by id.  Hot call sites intern
   their names once at module initialisation and charge through
   [charge_id]: a bounds check plus two array stores, no hashing, no
   allocation.  The string entry points ([charge], [occurrences], ...)
   resolve the name through the registry first, so both feed the same
   counters.  The registry is an [Atomic.t] over an immutable map,
   updated by compare-and-set, so domains may intern concurrently. *)

module Names = Map.Make (String)

(* [names] is copied on every registration and never written after
   publication. *)
type registry = { ids : int Names.t; names : string array }

let registry = Atomic.make { ids = Names.empty; names = [||] }

let rec intern name =
  let r = Atomic.get registry in
  match Names.find name r.ids with
  | id -> id
  | exception Not_found ->
      let id = Array.length r.names in
      let r' = { ids = Names.add name id r.ids; names = Array.append r.names [| name |] } in
      if Atomic.compare_and_set registry r r' then id else intern name

(* Query-side lookup: never registers [name]. *)
let find name = match Names.find name (Atomic.get registry).ids with id -> id | exception Not_found -> -1

let id_tlb_hit = intern "tlb_hit"
let id_tlb_miss_walk = intern "tlb_miss_walk"
let id_virtio_copy = intern "virtio_copy"
let id_virtio_post = intern "virtio_post"
let id_virtio_service = intern "virtio_service"
let id_virtio_event_idx = intern "virtio_event_idx"
let id_virtio_doorbell = intern "virtio_doorbell"

type t = {
  now_ns : float array;  (** one cell: a flat float, so advancing time never allocates *)
  mutable counts : int array;  (** indexed by event id *)
  mutable spent : float array;
}

let create () =
  let n = max 64 (Array.length (Atomic.get registry).names) in
  { now_ns = [| 0.0 |]; counts = Array.make n 0; spent = Array.make n 0.0 }

let now t = t.now_ns.(0)

(* Cold path: make room for [id] (interned after this clock was
   created). *)
let grow t id =
  let n = max (id + 1) (2 * Array.length t.counts) in
  let counts = Array.make n 0 and spent = Array.make n 0.0 in
  Array.blit t.counts 0 counts 0 (Array.length t.counts);
  Array.blit t.spent 0 spent 0 (Array.length t.spent);
  t.counts <- counts;
  t.spent <- spent

(* Charge [ns] of simulated time attributed to the event [id]. *)
let charge_id t id ns =
  if id >= Array.length t.counts then grow t id;
  t.now_ns.(0) <- t.now_ns.(0) +. ns;
  t.counts.(id) <- t.counts.(id) + 1;
  t.spent.(id) <- t.spent.(id) +. ns

let count_id t id =
  if id >= Array.length t.counts then grow t id;
  t.counts.(id) <- t.counts.(id) + 1

let charge t event ns = charge_id t (intern event) ns

(* Record an event occurrence without advancing time. *)
let count t event = count_id t (intern event)

(* Advance time without attributing it to a named event (pure compute). *)
let advance t ns = t.now_ns.(0) <- t.now_ns.(0) +. ns

let occurrences t event =
  let id = find event in
  if id >= 0 && id < Array.length t.counts then t.counts.(id) else 0

let spent_on t event =
  let id = find event in
  if id >= 0 && id < Array.length t.spent then t.spent.(id) else 0.0

let reset t =
  t.now_ns.(0) <- 0.0;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Array.fill t.spent 0 (Array.length t.spent) 0.0

(* Run [f] and return its result together with the simulated time it
   consumed. *)
let timed t f =
  let t0 = now t in
  let r = f () in
  (r, now t -. t0)

let events t =
  let names = (Atomic.get registry).names in
  let acc = ref [] in
  Array.iteri (fun id n -> if n > 0 then acc := (names.(id), n) :: !acc) t.counts;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* Ordered reduction support for the domain-sharded engine: fold [src]'s
   elapsed time and every counter into [into].  Callers reduce per-lane
   clocks in a fixed lane order, so merged totals are deterministic
   (float additions happen in the same order every run). *)
let add_into ~into src =
  advance into (now src);
  let n = Array.length src.counts in
  if n > Array.length into.counts then grow into (n - 1);
  for id = 0 to n - 1 do
    if src.counts.(id) > 0 then begin
      into.counts.(id) <- into.counts.(id) + src.counts.(id);
      into.spent.(id) <- into.spent.(id) +. src.spent.(id)
    end
  done

let pp fmt t =
  Format.fprintf fmt "@[<v>clock: %.0f ns@," (now t);
  List.iter
    (fun (e, n) -> Format.fprintf fmt "  %-32s %8d  %12.0f ns@," e n (spent_on t e))
    (events t);
  Format.fprintf fmt "@]"
