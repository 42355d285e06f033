(* SLO-driven autoscaling over windowed tail latency.

   Decisions are made every [window] completed requests, on the p99 of
   exactly that window: a breach (p99 above the SLO) scales out, a
   calm streak ([idle_windows] consecutive windows comfortably under
   the SLO) scales back in.  The cooldown stops the controller from
   thrashing on the transient spike a fresh replica itself causes
   (clone + attach advance the simulated clock, and arrivals queued
   behind the spawn land with inflated latency).

   All state is a pure function of the observation stream and the
   decision clock — no wall time, no randomness — so the same traffic
   trace produces the same scaling trajectory on every run. *)

type config = {
  slo_p99_us : float;  (** the objective: windowed p99 must stay under this *)
  window : int;  (** completed requests per decision window *)
  min_replicas : int;
  max_replicas : int;
  cooldown_ns : float;  (** minimum simulated time between scaling actions *)
  idle_windows : int;  (** calm windows before scale-in *)
  scale_in_factor : float;  (** calm = p99 below [factor * slo] *)
}

let default_config =
  {
    slo_p99_us = 500.0;
    window = 200;
    min_replicas = 1;
    max_replicas = 8;
    cooldown_ns = 2e6;
    idle_windows = 3;
    scale_in_factor = 0.25;
  }

type decision = Hold | Scale_out | Scale_in [@@deriving show { with_path = false }, eq]

type t = {
  cfg : config;
  mutable samples : float list;  (** current window, newest first *)
  mutable nsamples : int;
  mutable last_action_ns : float;
  mutable calm_streak : int;
  mutable windows : int;
  mutable breaches : int;
}

let create ?(now = 0.0) cfg =
  if cfg.window < 1 then invalid_arg "Autoscaler.create: window must be positive";
  if cfg.min_replicas < 1 then invalid_arg "Autoscaler.create: min_replicas must be positive";
  if cfg.max_replicas < cfg.min_replicas then
    invalid_arg "Autoscaler.create: max_replicas below min_replicas";
  {
    cfg;
    samples = [];
    nsamples = 0;
    (* start inside a cooldown: the initial fleet should prove itself
       before the first scale-out *)
    last_action_ns = now;
    calm_streak = 0;
    windows = 0;
    breaches = 0;
  }

let observe t ~latency_us =
  t.samples <- latency_us :: t.samples;
  t.nsamples <- t.nsamples + 1

let decide t ~now ~replicas =
  if t.nsamples < t.cfg.window then Hold
  else begin
    let p99 = Report.Stats.percentile t.samples ~p:99.0 in
    t.samples <- [];
    t.nsamples <- 0;
    t.windows <- t.windows + 1;
    let cooled = now -. t.last_action_ns >= t.cfg.cooldown_ns in
    if p99 > t.cfg.slo_p99_us then begin
      t.breaches <- t.breaches + 1;
      t.calm_streak <- 0;
      if cooled && replicas < t.cfg.max_replicas then begin
        t.last_action_ns <- now;
        Scale_out
      end
      else Hold
    end
    else begin
      if p99 < t.cfg.scale_in_factor *. t.cfg.slo_p99_us then
        t.calm_streak <- t.calm_streak + 1
      else t.calm_streak <- 0;
      if t.calm_streak >= t.cfg.idle_windows && cooled && replicas > t.cfg.min_replicas then begin
        t.calm_streak <- 0;
        t.last_action_ns <- now;
        Scale_in
      end
      else Hold
    end
  end

let windows t = t.windows
let breaches t = t.breaches
