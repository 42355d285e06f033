(** The rule families over a parsed source tree: trusted-sink,
    layering, domain-safety, hygiene, domain-escape and dead-export. *)

type finding = {
  rule : string;
  severity : Report.Findings.severity;
  file : string;  (** repo-relative; a .ml or a dune file *)
  line : int;
  symbol : string;  (** the fingerprint identifier (binding, sink, library...) *)
  detail : string;
}

val fingerprint : finding -> string
(** ["rule file symbol"] — line-free, so edits don't churn baselines. *)

type arch = (string * string list) list
(** [lib -> libraries it may reference]: the sanctioned layering DAG as
    an explicit allowlist. *)

val evaluate : ?arch:arch -> ?tcb:string list -> Source.tree -> finding list
(** Run every rule family; findings come back ordered by file and
    line, deduplicated per (rule, file, symbol, line). *)
