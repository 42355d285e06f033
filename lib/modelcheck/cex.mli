(** Counterexample rendering: shortest violating paths as numbered
    step traces, and as {!Report.Findings} entries. *)

val render : Explore.counterexample -> string
(** Multi-line rendering: the violated property, then the shortest
    path from the initial state, one numbered step per line with the
    resulting abstract state. *)

val report : ?title:string -> Explore.result -> string
(** Findings block (clean bill when empty) followed by one rendered
    counterexample per violated property. *)
