(** Minimal JSON emitter + parser for benchmark artifacts
    ([BENCH_*.json]).

    The parser exists so CI can prove the checked-in artifacts are
    well-formed and carry the expected fields; it accepts exactly the
    JSON this module emits (standard JSON minus NaN/Infinity, which the
    emitter never produces) and needs no external dependency. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Obj of (string * value) list

val to_string : value -> string
(** Pretty-printed (2-space indent), newline-terminated. Non-finite
    floats emit [null]. *)

val write_file : string -> value -> unit

val parse : string -> (value, string) result
(** Recursive-descent parse of a complete JSON document. Rejects
    trailing garbage, NaN/Infinity literals, malformed escapes, raw
    control characters inside strings, numbers outside the JSON
    grammar ([01], [1.], [-.5]) and numbers that overflow to a
    non-finite float ([1e999]); the error string carries a byte
    offset. [parse (to_string v)]
    round-trips every value the emitter can produce (non-finite floats
    come back as [Null], which is what was emitted). *)

val parse_file : string -> (value, string) result
(** [parse] over the whole contents of a file. *)

val member : string -> value -> value option
(** [member k (Obj fields)] is the first binding of [k]; [None] for
    non-objects or missing keys. *)
