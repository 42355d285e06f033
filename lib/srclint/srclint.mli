(** Self-hosted source auditor: a static-analysis pass over the repo's
    own OCaml sources enforcing TCB write-sink containment, the
    inter-library layering DAG, a domain-safety (race) inventory of
    module-toplevel mutable state, the interprocedural domain-escape
    rule (which mutable values leak into [Domain.spawn] closures),
    source hygiene, and dead exports (library [val]s no other
    compilation unit names).

    {!Source} models the tree (dune libraries, the [bin/]/[bench/]
    executable scopes, the [examples/]/[perfbench/]/[test/]
    reference-only scopes, and compiler-libs ASTs); {!Facts} extracts
    per-file facts; {!Escape} runs the tree-wide sharing analysis;
    {!Rules} evaluates the rule families; {!Baseline} matches findings
    against the checked-in list of accepted exceptions. *)

module Source = Source
module Facts = Facts
module Escape = Escape
module Rules = Rules
module Baseline = Baseline

type stats = {
  files : int;
  loc : int;
  libraries : int;
  wall_ms : float;
  by_rule : (string * int) list;  (** finding count per rule, all rules that fired *)
}

type scan = { tree : Source.tree; findings : Rules.finding list; stats : stats }

val scan : ?arch:Rules.arch -> ?tcb:string list -> root:string -> unit -> scan
(** Parse and audit every [lib/**/*.ml] and [lib/**/*.mli] — plus
    [bin/*.ml] and [bench/*.ml] for the layering and escape families —
    under [root].  The [.ml] files of [examples/], [perfbench/] and
    [test/] are read only as callers for the dead-export rule. *)

val find_root : ?from:string -> unit -> string option
val find_root_exn : ?from:string -> unit -> string

type check = {
  fresh : Rules.finding list;  (** must fail the run *)
  baselined : Rules.finding list;
  stale : Baseline.entry list;  (** baseline lines that matched nothing *)
}

val check : baseline:Baseline.entry list -> Rules.finding list -> check

val to_findings : Rules.finding list -> Report.Findings.t list
(** Render-ready form, subject = [file:line]. *)

val pp_stats : Format.formatter -> stats -> unit
