(** A minimal s-expression reader, just enough for dune files (atoms,
    quoted strings, nested lists, [;] line comments). *)

type t = Atom of string | List of t list

exception Parse_error of string

val parse_file : string -> t list
