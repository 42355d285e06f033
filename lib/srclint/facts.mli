(** Per-file fact extraction over the compiler-libs AST: everything the
    rule families consume, collected in one iterator pass plus a
    shallow toplevel walk. *)

type toplevel_mutable = {
  tm_name : string;  (** the binding's name *)
  tm_kind : string;  (** what made it mutable, e.g. ["ref"] *)
  tm_line : int;
}

type t = {
  module_refs : (string * int) list;
      (** head module of every dotted path, with the first line it
          appears on — deduplicated per head *)
  sink_refs : (string * int) list;  (** raw-memory write sinks, every occurrence *)
  toplevel_mutables : toplevel_mutable list;
  undocumented_annots : (string * int) list;
      (** [@@single_domain] without a reason string *)
  single_domain_annots : (string * int * bool) list;
      (** every toplevel [@@single_domain] annotation as
          (binding, line, suppresses): [suppresses] is true when the
          binding really is module-toplevel mutable state, i.e. the
          annotation earns its keep; a [false] entry is stale. *)
  gate_enters : int list;  (** lines constructing [Probe.Gate_enter] *)
  gate_exits : int list;
  obj_magics : int list;
  assert_falses : int list;
}

val extract : Parsetree.structure -> t

(** {2 Dead-export facts} *)

val exports : Parsetree.signature -> (string list * int) list
(** Every [val] of an interface, including those of nested
    [module X : sig ... end], as (path below the compilation unit,
    line), e.g. [(["Lane"; "send"], 12)]. *)

type uses = {
  values : string list list;  (** value paths, e.g. [["Hw"; "Clock"; "charge"]] *)
  modules : string list list;
      (** module paths used as a module expression ([include], a
          functor argument, first-class packing): every value below
          them counts as used *)
}

val uses : Parsetree.structure -> uses
(** The value and module paths an implementation names, each under
    every reading its aliases and opens allow.  Paths are not yet
    qualified with the referrer's own library. *)

(** {2 Shared AST helpers}

    Also used by the interprocedural {!Escape} analysis, which
    classifies local [let] bindings with the same mutability test the
    toplevel inventory uses. *)

val line_of : Location.t -> int

val record_types_of : Parsetree.structure -> (string list * bool) list
(** Record types declared in a file, as (labels, has-mutable-field). *)

val mutable_kind :
  (string list * bool) list -> Parsetree.expression -> string option
(** Does this right-hand side (syntactically) build shared mutable
    state — a [ref], [Hashtbl.t], [Bytes.t], array, [Bigarray], mutable
    record literal...?  Descends through scaffolding but never into
    functions; [Atomic.make] is deliberately not mutable (atomics are
    the sanctioned domain-safe form). *)

val binding_name : Parsetree.value_binding -> string option

val annotation_reason :
  string -> Parsetree.value_binding -> (string, unit) result option
(** [annotation_reason name vb] is [None] when [vb] has no [@@name]
    attribute, [Some (Ok reason)] when it carries a non-empty reason
    string, and [Some (Error ())] when the payload is missing or
    empty. *)
