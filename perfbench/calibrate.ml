(* Host-speed calibration.

   On a shared cloud host (measured on a 2-vCPU VM) host speed drifts
   by up to 2x over minutes, because other tenants share its cores and
   caches: far beyond any useful bound on a wall-clock metric.  So the
   benchmark times this fixed reference computation before and after
   each unit, and scales the unit's host time to what it would have
   been at the reference speed: a unit that ran while the kernel took
   twice its nominal [reference_s] counts as having taken half its
   measured time.  The kernel allocates nothing, so the program's heap
   and GC debt cannot change its speed.  It chases pointers through a
   small hash table and indexes a small array, cache-resident work like
   most of the simulator's.  Kernels that also walked an 8 MiB array
   tracked the workloads worse: DRAM latency barely changes when the
   host is busy, while the simulator slows down with the cores. *)

type node = { key : int; next : node option; mutable hits : int }

let nodes = 4096
let table : (int, node) Hashtbl.t = Hashtbl.create nodes
let small = Array.make 4096 0

let () =
  let prev = ref None in
  for k = nodes - 1 downto 0 do
    let n = { key = k * 7919 land (nodes - 1); next = !prev; hits = 0 } in
    Hashtbl.replace table k n;
    prev := Some n
  done

let kernel () =
  let x = ref 0x2545F4914F6CDD1D in
  let acc = ref 0 in
  for i = 0 to 39_999 do
    let y = !x in
    let y = y lxor (y lsl 13) in
    let y = y lxor (y lsr 7) in
    let y = y lxor (y lsl 17) in
    x := y;
    let n = Hashtbl.find table (y land (nodes - 1)) in
    n.hits <- n.hits + 1;
    (match n.next with Some m -> acc := !acc + m.key | None -> ());
    small.((y lsr 5) land 4095) <- i;
    acc := !acc + small.((y lsr 27) land 4095)
  done;
  ignore (Sys.opaque_identity !acc)

(* The kernel's nominal time: the reference speed all scaled times are
   expressed at. *)
let reference_s = 0.002

(* One timing of the kernel, in seconds. *)
let sample () =
  let t0 = Measure.now_ns () in
  kernel ();
  Measure.seconds_since t0

(* [raw] host seconds at the reference speed, given kernel timings
   taken just before and just after them. *)
let scale ~raw ~before ~after = raw *. reference_s /. ((before +. after) /. 2.0)

(* Run [f] between two kernel timings; returns its result, its raw
   seconds and its seconds at the reference speed. *)
let scaled f =
  let before = sample () in
  let t0 = Measure.now_ns () in
  let v = f () in
  let raw = Measure.seconds_since t0 in
  (v, raw, scale ~raw ~before ~after:(sample ()))
