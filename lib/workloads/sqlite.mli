(** A miniature SQLite-like relational engine on tmpfs, driven by the
    seven access patterns of leveldb's db_bench_sqlite3 (Figures
    14/15).

    Real file I/O for everything SQLite hits the filesystem for:
    database page writes, rollback-journal create/write/sync/delete per
    transaction, and reads on cache misses — the syscall-per-op mix
    behind PVM's 19-24% write-pattern losses. *)

type db

val open_db : Virt.Backend.t -> name:string -> db

val txn_begin : db -> unit
val txn_commit : db -> unit
(** Rollback-journal commit: journal header + page image writes, two
    fsyncs, db write-back, journal unlink. *)

val insert : db -> key:int -> unit
val read : db -> key:int -> bool

type pattern =
  | Fillseq
  | Fillseqbatch
  | Fillrandom
  | Fillrandbatch
  | Overwritebatch
  | Readseq
  | Readrandom

val all_patterns : pattern list
val pattern_name : pattern -> string

type result = {
  ops_per_sec : float;
  syscalls_per_op : float;
  syscall_freq_per_sec : float;  (** the second axis of Figure 14 *)
}

val run_pattern : Virt.Backend.t -> pattern -> ops:int -> result
