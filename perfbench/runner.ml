(* The shape every workload shares: timed set-ups, then a measured
   phase of units (cycles or episodes) run until the time budget is
   spent, and with tracing on a second, traced phase over the same
   units. *)

type cfg = { seed : int; seconds : float; trace : bool }

(* Set-ups per run; setup_s is their median. *)
let setup_reps = 15

(* Time [setup_reps] runs of [build], after the measured phases, each
   after a full major collection so that one set-up's garbage is not
   collected inside the next one's timing.  (Collections forced before
   the measured phases would skew them: OCaml 5.1 then lets the heap
   grow.)  Returns the median set-up time, raw and at the reference
   host speed. *)
let time_setups build =
  let raws = ref [] and scaled = ref [] in
  for _ = 1 to setup_reps do
    Gc.full_major ();
    let _, raw, s = Calibrate.scaled build in
    raws := raw :: !raws;
    scaled := s :: !scaled
  done;
  (Measure.median_of !raws, Measure.median_of !scaled)

type phase = {
  ops : int;
  units : int;
  wall_s : float;  (** sum of the units' host times, calibration excluded *)
  raw_rate : float;  (** median over units of ops per host second *)
  rate : float;  (** median over units of ops per reference-speed second *)
  words : float;
  minor_collections : int;
  major_collections : int;
}

(* Run [step 0], [step 1], ... until [seconds] of units have passed and
   at least [min_units] units ran, timing the calibration kernel between
   units.  [ops ()] reads the phase's op counter. *)
let phase ~seconds ~min_units ~ops step =
  let g0 = Gc.quick_stat () in
  let w0 = Measure.alloc_words () in
  let i = ref 0 and wall = ref 0.0 and raw_rates = ref [] and rates = ref [] in
  let before = ref (Calibrate.sample ()) in
  while !i < min_units || !wall < seconds do
    let ops0 = ops () and t0 = Measure.now_ns () in
    step !i;
    let raw = Measure.seconds_since t0 in
    let after = Calibrate.sample () in
    let scaled = Calibrate.scale ~raw ~before:!before ~after in
    before := after;
    let n = float_of_int (ops () - ops0) in
    wall := !wall +. raw;
    raw_rates := (n /. raw) :: !raw_rates;
    rates := (n /. scaled) :: !rates;
    incr i
  done;
  let words = Measure.alloc_words () -. w0 in
  let g1 = Gc.quick_stat () in
  {
    ops = ops ();
    units = !i;
    wall_s = !wall;
    raw_rate = Measure.median_of !raw_rates;
    rate = Measure.median_of !rates;
    words;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* The untraced phase gets the whole budget; with tracing on it gets
   half and a traced phase over the same units gets the other half.
   [run tr seconds] runs one phase and returns what it accumulated. *)
let phases cfg run =
  if cfg.trace then begin
    let untraced = run (Spans.create ~enabled:false ()) (cfg.seconds /. 2.0) in
    let tr = Spans.create ~enabled:true () in
    let t0 = Measure.now_ns () in
    let traced = run tr (cfg.seconds /. 2.0) in
    (untraced, Some (traced, tr, t0))
  end
  else (run (Spans.create ~enabled:false ()) cfg.seconds, None)

(* What a workload hands back to the report. *)
type outcome = {
  setup_raw_s : float;
  setup_s : float;
  main : phase;  (** untraced *)
  traced : (phase * Spans.t * int) option;  (** phase, spans, start ns *)
  attempted : int;
  failed : int;
  lines : Measure.metric list;  (** workload-specific end-to-end metrics *)
  layer : Measure.metric list;  (** per-layer metrics the workload measured *)
  ledger : Ledger.t;  (** simulated ledger of the layer phase *)
  ledger_ops : int;
  checks : Measure.check list;
}
