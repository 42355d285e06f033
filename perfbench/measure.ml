(* Host-side measurement primitives: a monotonic clock, GC counters,
   percentiles that refuse thin tails, and the metric/check records
   every workload fills in. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Words allocated by this domain so far: minor + major - promoted, the
   total Gc.counters documents. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [x] per [n], 0 when nothing was counted. *)
let per n x = if n > 0 then float_of_int x /. float_of_int n else 0.0

let peak_heap_mib () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

type pct = { p : float; value : float; n : int; beyond : int }

(* Nearest rank, as Report.Stats.percentile computes it. *)
let rank ~n p = max 1 (min n (int_of_float (ceil (p /. 100.0 *. float_of_int n))))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let r = rank ~n p in
    if n - r < 10 then None else Some { p; value = sorted.(r - 1); n; beyond = n - r }

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* The highest of these percentiles with at least ten samples beyond
   it. *)
let tail_candidates = [ 99.99; 99.9; 99.0; 95.0; 90.0; 75.0 ]

let tail sorted = List.find_map (percentile sorted) tail_candidates

let median_of l =
  match sorted_of_list l with
  | [||] -> nan
  | a -> a.(Array.length a / 2)

(* ------------------------------------------------------------------ *)
(* What a workload reports                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

type check = { what : string; ok : bool; detail : string }

let check what ok detail = { what; ok; detail }

(* [q] as a metric, or a failed check when the sample was too thin to
   give it. *)
let pct_metric ~checks name unit_ ~n q =
  match q with
  | Some q -> [ metric name unit_ q.value ~note:(Printf.sprintf "p%g, n=%d, %d beyond" q.p q.n q.beyond) ]
  | None ->
      checks := check (name ^ " has >= 10 samples beyond it") false (Printf.sprintf "n=%d" n) :: !checks;
      []
