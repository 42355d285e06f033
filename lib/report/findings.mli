(** Rendering for analysis findings (invariant violations and trace
    lints). Generic over the producing rule: the analysis library turns
    its typed violations into [t] values; this module only formats. *)

type severity = Critical | Warning | Info

type t = {
  severity : severity;
  rule : string;  (** short rule identifier, e.g. "I1-undeclared-ptp" *)
  subject : string;  (** what the finding is about, e.g. "container 0" *)
  detail : string;  (** one-line human-readable description *)
}

val make : severity:severity -> rule:string -> subject:string -> detail:string -> t

val render : title:string -> t list -> string
(** An aligned report block; an empty list renders a clean-bill line. *)

val print : title:string -> t list -> unit

val summary : t list -> string
(** One line: "3 findings (2 critical, 1 warning)" or "clean". *)
