(* Dynamic cross-domain access checker tests.

   Two halves, like the other analysis suites: synthetic tagged
   streams that exercise the vector-clock happens-before logic edge by
   edge (fault injection — sequences the real engines would never
   emit), and live captures where the sharded engines run with
   [Hw.Probe.set_mem_trace] enabled and the replayed trace is checked
   — clean for the production per-lane discipline, flagged when two
   lanes deliberately share one machine. *)

open Alcotest

module P = Hw.Probe
module R = Analysis.Racecheck

let mw dom mem pfn = (dom, P.Mem_write { mem; pfn })
let mr dom mem pfn = (dom, P.Mem_read { mem; pfn })
let sp parent child = (parent, P.Domain_spawn { parent; child })
let jn parent child = (parent, P.Domain_join { parent; child })

let races r = List.length r.R.races

(* ------------------------------------------------------------------ *)
(* Synthetic streams                                                   *)
(* ------------------------------------------------------------------ *)

let test_unordered_writes_race () =
  let r = R.check [ mw 1 0 5; mw 2 0 5 ] in
  check int "one race" 1 (races r);
  (match r.R.races with
  | [ rc ] ->
      check int "mem" 0 rc.R.mem;
      check int "pfn" 5 rc.R.pfn;
      check int "first domain" 1 rc.R.first_dom;
      check int "second domain" 2 rc.R.second_dom;
      check bool "write/write" true (rc.R.first_write && rc.R.second_write)
  | _ -> fail "expected exactly one race");
  check int "accesses counted" 2 r.R.accesses;
  check int "objects counted" 1 r.R.objects;
  check int "domains counted" 2 r.R.domains

let test_spawn_join_edges_order () =
  (* parent writes, spawns a child that writes, joins, writes again:
     every pair is ordered by an edge — clean. *)
  let r = R.check [ mw 0 0 7; sp 0 1; mw 1 0 7; jn 0 1; mw 0 0 7 ] in
  check bool "spawn/join-ordered accesses are clean" true (R.is_clean r);
  check int "edges counted" 2 r.R.edges

let test_post_spawn_parent_races_child () =
  (* The parent's write AFTER the spawn is concurrent with the child:
     the spawn edge orders only pre-spawn parent work. *)
  let r = R.check [ sp 0 1; mw 0 0 7; mw 1 0 7; jn 0 1 ] in
  check int "post-spawn parent write races the child" 1 (races r)

let test_sibling_domains_race () =
  let r = R.check [ sp 0 1; sp 0 2; mw 1 0 3; mw 2 0 3; jn 0 1; jn 0 2 ] in
  check int "siblings share no edge" 1 (races r);
  let r = R.check [ sp 0 1; sp 0 2; mw 1 0 3; mw 2 0 4; jn 0 1; jn 0 2 ] in
  check bool "disjoint pfns are clean" true (R.is_clean r)

let test_concurrent_reads_clean () =
  let r = R.check [ sp 0 1; sp 0 2; mr 1 0 3; mr 2 0 3; jn 0 1; jn 0 2 ] in
  check bool "read/read is not a race" true (R.is_clean r)

let test_read_write_races () =
  let r = R.check [ sp 0 1; sp 0 2; mr 1 0 3; mw 2 0 3; jn 0 1; jn 0 2 ] in
  check int "read vs concurrent write races" 1 (races r);
  match r.R.races with
  | [ rc ] ->
      check bool "first access was the read" false rc.R.first_write;
      check bool "second access was the write" true rc.R.second_write
  | _ -> fail "expected exactly one race"

let test_write_read_after_join_clean () =
  let r = R.check [ sp 0 1; mw 1 0 9; jn 0 1; mr 0 0 9 ] in
  check bool "parent read after join sees the child's write in order" true (R.is_clean r)

let test_mem_id_disambiguates () =
  (* Two shards legitimately own distinct Phys_mem instances with
     overlapping pfn ranges: same pfn, different mem — no race. *)
  let r = R.check [ sp 0 1; sp 0 2; mw 1 0 3; mw 2 1 3; jn 0 1; jn 0 2 ] in
  check bool "(mem_id, pfn) keying keeps distinct machines apart" true (R.is_clean r)

let test_race_dedup_per_pair () =
  (* Many conflicting accesses to one object by one domain pair
     collapse into a single finding. *)
  let r = R.check [ sp 0 1; sp 0 2; mw 1 0 3; mw 2 0 3; mw 1 0 3; mw 2 0 3; jn 0 1; jn 0 2 ] in
  check int "deduped per (mem, pfn, domain pair)" 1 (races r)

let test_transitive_join_spawn_order () =
  (* d1 is joined before d2 is spawned: d2 inherits d1's work through
     the parent — ordered, clean. *)
  let r = R.check [ sp 0 1; mw 1 0 3; jn 0 1; sp 0 2; mw 2 0 3; jn 0 2 ] in
  check bool "join-then-spawn chains order sibling generations" true (R.is_clean r)

(* ------------------------------------------------------------------ *)
(* Live captures                                                       *)
(* ------------------------------------------------------------------ *)

(* Run [f] with the recorder attached and Phys_mem tracing enabled,
   return (result, racecheck report). *)
let with_race_capture ?capacity f =
  P.set_mem_trace true;
  Fun.protect
    ~finally:(fun () -> P.set_mem_trace false)
    (fun () ->
      let x, trace = Analysis.Trace.with_recorder ?capacity f in
      (x, R.of_trace trace))

let test_shared_machine_across_lanes_caught () =
  (* The seeded dynamic race fixture: two lanes on two domains mutate
     frame metadata of ONE shared machine — exactly the sharing the
     per-lane discipline forbids, and the checker must flag it. *)
  let mem = Hw.Phys_mem.create ~frames:64 in
  let (), report =
    with_race_capture (fun () ->
        ignore
          (Hw.Domain_shard.map ~domains:2 ~lanes:2 (fun i ->
               Hw.Phys_mem.set_owner mem 3 (Hw.Phys_mem.Container i))))
  in
  check bool "shared machine across lanes is flagged" false (R.is_clean report);
  (match report.R.races with
  | rc :: _ ->
      check int "the shared machine's mem_id" (Hw.Phys_mem.mem_id mem) rc.R.mem;
      check int "the contended frame" 3 rc.R.pfn
  | [] -> fail "expected a race");
  check int "two spawn + two join edges" 4 report.R.edges

let test_disjoint_lanes_clean () =
  (* The production discipline: each lane owns its machine. *)
  let (), report =
    with_race_capture (fun () ->
        ignore
          (Hw.Domain_shard.map ~domains:2 ~lanes:2 (fun i ->
               let mem = Hw.Phys_mem.create ~frames:64 in
               Hw.Phys_mem.set_owner mem 3 (Hw.Phys_mem.Container i);
               ignore (Hw.Phys_mem.owner mem 3))))
  in
  check bool "per-lane machines are clean" true (R.is_clean report);
  check bool "accesses were actually traced" true (report.R.accesses > 0)

let test_sequential_lanes_clean () =
  (* domains <= 1 runs lanes inline on the parent domain: same object,
     but one domain — never a race. *)
  let mem = Hw.Phys_mem.create ~frames:64 in
  let (), report =
    with_race_capture (fun () ->
        ignore
          (Hw.Domain_shard.map ~domains:1 ~lanes:2 (fun i ->
               Hw.Phys_mem.set_owner mem 3 (Hw.Phys_mem.Container i))))
  in
  check bool "sequential lanes share a domain — clean" true (R.is_clean report);
  check int "no spawn/join edges without workers" 0 report.R.edges

let test_mem_trace_off_by_default () =
  let mem = Hw.Phys_mem.create ~frames:16 in
  let (), trace =
    Analysis.Trace.with_recorder (fun () ->
        Hw.Phys_mem.set_owner mem 1 (Hw.Phys_mem.Container 0))
  in
  let has_mem_event =
    List.exists
      (function P.Mem_read _ | P.Mem_write _ -> true | _ -> false)
      (Analysis.Trace.events trace)
  in
  check bool "no Mem_* events unless set_mem_trace is on" false has_mem_event

let suite =
  [
    ( "racecheck-clocks",
      [
        test_case "unordered writes race" `Quick test_unordered_writes_race;
        test_case "spawn/join edges order accesses" `Quick test_spawn_join_edges_order;
        test_case "post-spawn parent work races child" `Quick test_post_spawn_parent_races_child;
        test_case "sibling domains race" `Quick test_sibling_domains_race;
        test_case "concurrent reads are clean" `Quick test_concurrent_reads_clean;
        test_case "read/write pair races" `Quick test_read_write_races;
        test_case "write then read after join is clean" `Quick test_write_read_after_join_clean;
        test_case "mem_id keeps machines apart" `Quick test_mem_id_disambiguates;
        test_case "races dedup per domain pair" `Quick test_race_dedup_per_pair;
        test_case "join-then-spawn orders generations" `Quick test_transitive_join_spawn_order;
      ] );
    ( "racecheck-live",
      [
        test_case "shared machine across lanes caught" `Quick test_shared_machine_across_lanes_caught;
        test_case "disjoint lanes clean" `Quick test_disjoint_lanes_clean;
        test_case "sequential lanes clean" `Quick test_sequential_lanes_clean;
        test_case "mem tracing off by default" `Quick test_mem_trace_off_by_default;
      ] );
  ]
