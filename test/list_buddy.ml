(* Reference binary-buddy allocator for the differential tests: the
   list-of-pfns implementation [Kernel_model.Buddy] had before its free
   lists became intrusive.  Each order's free list is an OCaml list
   (push and pop at the head), coalescing finds a buddy with [List.mem]
   and removes it with [List.filter], and allocated heads live in a
   Hashtbl.  Slow, but obviously LIFO — the allocation stream the
   production allocator must keep reproducing. *)

let max_order = 11

type zone = {
  base : int;
  frames : int;
  free_lists : int list array;
  order_of : (int, int) Hashtbl.t;
  mutable free_count : int;
}

type t = { zones : zone array }

exception Out_of_memory

let make_zone ~base ~frames =
  if frames <= 0 then invalid_arg "Buddy.create";
  let z =
    {
      base;
      frames;
      free_lists = Array.make (max_order + 1) [];
      order_of = Hashtbl.create 256;
      free_count = frames;
    }
  in
  let rec seed pfn remaining =
    if remaining > 0 then begin
      let rel = pfn - base in
      let order =
        let rec fit o =
          if o = 0 then 0
          else if 1 lsl o <= remaining && rel land ((1 lsl o) - 1) = 0 then o
          else fit (o - 1)
        in
        fit max_order
      in
      z.free_lists.(order) <- pfn :: z.free_lists.(order);
      seed (pfn + (1 lsl order)) (remaining - (1 lsl order))
    end
  in
  seed base frames;
  z

let create_zones ~segments =
  if segments = [] then invalid_arg "Buddy.create_zones";
  { zones = Array.of_list (List.map (fun (base, frames) -> make_zone ~base ~frames) segments) }

let create ~base ~frames = create_zones ~segments:[ (base, frames) ]

let total_frames t = Array.fold_left (fun acc z -> acc + z.frames) 0 t.zones

let free_frames t = Array.fold_left (fun acc z -> acc + z.free_count) 0 t.zones

let zone_of t pfn =
  let found = ref None in
  Array.iter
    (fun z -> if !found = None && pfn >= z.base && pfn < z.base + z.frames then found := Some z)
    t.zones;
  match !found with
  | Some z -> z
  | None -> invalid_arg "Buddy: frame outside every zone"

let buddy_of z pfn order = ((pfn - z.base) lxor (1 lsl order)) + z.base

let zone_alloc_order z order =
  let rec take o =
    if o > max_order then raise Out_of_memory
    else
      match z.free_lists.(o) with
      | [] -> take (o + 1)
      | pfn :: rest ->
          z.free_lists.(o) <- rest;
          let rec split cur =
            if cur > order then begin
              let half = cur - 1 in
              let upper = pfn + (1 lsl half) in
              z.free_lists.(half) <- upper :: z.free_lists.(half);
              split half
            end
          in
          split o;
          pfn
  in
  let pfn = take order in
  Hashtbl.replace z.order_of pfn order;
  z.free_count <- z.free_count - (1 lsl order);
  pfn

let alloc_order t order =
  if order < 0 || order > max_order then invalid_arg "Buddy.alloc_order";
  let rec try_zone i =
    if i >= Array.length t.zones then raise Out_of_memory
    else
      match zone_alloc_order t.zones.(i) order with
      | pfn -> pfn
      | exception Out_of_memory -> try_zone (i + 1)
  in
  try_zone 0

let alloc t = alloc_order t 0
let alloc_huge t = alloc_order t 9

let rec coalesce z pfn order =
  if order >= max_order then z.free_lists.(order) <- pfn :: z.free_lists.(order)
  else
    let b = buddy_of z pfn order in
    if b >= z.base && b < z.base + z.frames && List.mem b z.free_lists.(order) then begin
      z.free_lists.(order) <- List.filter (fun p -> p <> b) z.free_lists.(order);
      coalesce z (min pfn b) (order + 1)
    end
    else z.free_lists.(order) <- pfn :: z.free_lists.(order)

let allocated_blocks t =
  Array.fold_left
    (fun acc z -> Hashtbl.fold (fun pfn order l -> (pfn, order) :: l) z.order_of acc)
    [] t.zones
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let reserve t pfn order =
  if order < 0 || order > max_order then invalid_arg "Buddy.reserve";
  let z = zone_of t pfn in
  if (pfn - z.base) land ((1 lsl order) - 1) <> 0 then
    invalid_arg "Buddy.reserve: misaligned block";
  let containing =
    let found = ref None in
    Array.iteri
      (fun o lst ->
        if !found = None && o >= order then
          List.iter
            (fun b -> if !found = None && b <= pfn && pfn < b + (1 lsl o) then found := Some (b, o))
            lst)
      z.free_lists;
    match !found with
    | Some bo -> bo
    | None -> invalid_arg "Buddy.reserve: block not free"
  in
  let b0, o0 = containing in
  z.free_lists.(o0) <- List.filter (fun p -> p <> b0) z.free_lists.(o0);
  let rec split b o =
    if o = order then assert (b = pfn)
    else begin
      let half = o - 1 in
      let upper = b + (1 lsl half) in
      if pfn < upper then begin
        z.free_lists.(half) <- upper :: z.free_lists.(half);
        split b half
      end
      else begin
        z.free_lists.(half) <- b :: z.free_lists.(half);
        split upper half
      end
    end
  in
  split b0 o0;
  Hashtbl.replace z.order_of pfn order;
  z.free_count <- z.free_count - (1 lsl order)

let free t pfn =
  let z = zone_of t pfn in
  match Hashtbl.find_opt z.order_of pfn with
  | None -> invalid_arg "Buddy.free: not an allocated block head"
  | Some order ->
      Hashtbl.remove z.order_of pfn;
      z.free_count <- z.free_count + (1 lsl order);
      coalesce z pfn order

let check_invariants t =
  Array.for_all
    (fun z ->
      let counted = ref 0 in
      Array.iteri
        (fun order lst ->
          List.iter
            (fun pfn ->
              if pfn < z.base || pfn + (1 lsl order) > z.base + z.frames then
                failwith "Buddy: free block out of range";
              counted := !counted + (1 lsl order))
            lst)
        z.free_lists;
      !counted = z.free_count)
    t.zones
