(** Mutation-testing harness: each mutant disables exactly one
    enforcement step (via an {!Hw.Mutation} knob, or by extending the
    attacker's alphabet) and the checker must kill it — a surviving
    mutant is a test failure, so the checker is itself checked. *)

type t = {
  id : string;
  description : string;
  expect : Property.id list;  (** properties that legitimately kill this mutant *)
  install : unit -> unit;  (** flip the Hw.Mutation knob(s) *)
  tweak : Transition.config -> Transition.config;  (** extend the alphabet if needed *)
}

val all : t list
(** The ten seeded mutants. *)

type verdict = {
  mutant : t;
  killed : bool;
  killed_by : Property.id option;  (** first (shortest-counterexample) killer *)
  cex : Explore.counterexample option;
  states : int;
  transitions : int;
}

val as_expected : verdict -> bool
(** Killed, and by one of the properties the mutant documents. *)

val run_one : ?config:Transition.config -> t -> verdict
(** Install the mutant (scoped — enforcement is restored even on
    exception), boot a fresh container, explore, judge. *)

val run_all : ?config:Transition.config -> unit -> verdict list
val all_killed : verdict list -> bool
val summary : verdict list -> string
