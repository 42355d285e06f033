(* A miniature SQLite-like relational engine on tmpfs, driven by the
   seven access patterns of leveldb's db_bench_sqlite3 (Figures 14/15).

   The engine keeps a primary B-tree-ish index in user space (hash map
   standing in for the page cache + index) but performs *real file
   I/O* through the kernel for everything SQLite would hit the
   filesystem for: database page writes, rollback-journal create/
   write/sync/delete per transaction, and reads on cache misses.  The
   resulting syscall-per-op mix is what makes PVM lose 19-24% on the
   write patterns and nothing on reads. *)

type db = {
  backend : Virt.Backend.t;
  task : Kernel_model.Task.t;
  db_fd : int;
  name : string;
  index : (int, int) Hashtbl.t;  (** key -> file offset *)
  mutable next_off : int;
  mutable in_txn : bool;
  mutable txn_ops : int;
  row_bytes : int;
}

let page_bytes = 1024

let fd_of = function
  | Kernel_model.Syscall.Rint fd -> fd
  | _ -> failwith "sqlite: expected fd"

let open_db (b : Virt.Backend.t) ~name =
  let task = Virt.Backend.spawn b in
  let db_fd =
    fd_of (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/" ^ name; create = true }))
  in
  {
    backend = b;
    task;
    db_fd;
    name;
    index = Hashtbl.create 4096;
    next_off = 0;
    in_txn = false;
    txn_ops = 0;
    row_bytes = 116 (* 16-byte key + 100-byte value, as db_bench *);
  }

let sys db sc = Virt.Backend.syscall_exn db.backend db.task sc

(* SQL parsing/planning/codegen per statement. *)
let statement_compute = 1_400.0

let journal_path db = "/" ^ db.name ^ "-journal"

(* Rollback-journal transaction commit: journal header write, page
   image write, two fsyncs, db page write, journal delete. *)
let txn_begin db =
  assert (not db.in_txn);
  db.in_txn <- true;
  db.txn_ops <- 0;
  let jfd = fd_of (sys db (Kernel_model.Syscall.Open { path = journal_path db; create = true })) in
  ignore (sys db (Kernel_model.Syscall.Write { fd = jfd; data = Bytes.create 28 (* header *) }));
  ignore (sys db (Kernel_model.Syscall.Close jfd))

let txn_commit db =
  assert db.in_txn;
  let jfd = fd_of (sys db (Kernel_model.Syscall.Open { path = journal_path db; create = true })) in
  ignore (sys db (Kernel_model.Syscall.Write { fd = jfd; data = Bytes.create page_bytes }));
  ignore (sys db (Kernel_model.Syscall.Fsync jfd));
  ignore (sys db (Kernel_model.Syscall.Close jfd));
  ignore (sys db (Kernel_model.Syscall.Fsync db.db_fd));
  ignore (sys db (Kernel_model.Syscall.Unlink (journal_path db)));
  db.in_txn <- false

let insert db ~key =
  Profile.compute db.backend statement_compute;
  let off = db.next_off in
  db.next_off <- off + db.row_bytes;
  ignore (sys db (Kernel_model.Syscall.Lseek { fd = db.db_fd; pos = off }));
  ignore (sys db (Kernel_model.Syscall.Write { fd = db.db_fd; data = Bytes.create db.row_bytes }));
  Hashtbl.replace db.index key off;
  db.txn_ops <- db.txn_ops + 1

let read db ~key =
  Profile.compute db.backend (statement_compute *. 0.55);
  match Hashtbl.find_opt db.index key with
  | None -> false
  | Some off ->
      (* Page-cache hit most of the time; read through on 1/64 ops. *)
      if key land 63 = 0 then begin
        ignore (sys db (Kernel_model.Syscall.Lseek { fd = db.db_fd; pos = off }));
        ignore (sys db (Kernel_model.Syscall.Read { fd = db.db_fd; n = db.row_bytes }))
      end;
      true

type pattern =
  | Fillseq
  | Fillseqbatch
  | Fillrandom
  | Fillrandbatch
  | Overwritebatch
  | Readseq
  | Readrandom

let all_patterns =
  [ Fillseq; Fillseqbatch; Fillrandom; Fillrandbatch; Overwritebatch; Readseq; Readrandom ]

let pattern_name = function
  | Fillseq -> "fillseq"
  | Fillseqbatch -> "fillseqbatch"
  | Fillrandom -> "fillrandom"
  | Fillrandbatch -> "fillrandbatch"
  | Overwritebatch -> "overwritebatch"
  | Readseq -> "readseq"
  | Readrandom -> "readrandom"

let batch_of = function
  | Fillseq | Fillrandom -> 1
  | Fillseqbatch | Fillrandbatch | Overwritebatch -> 1000
  | Readseq | Readrandom -> 1

type result = {
  ops_per_sec : float;
  syscalls_per_op : float;
  syscall_freq_per_sec : float;  (** the second axis of Figure 14 *)
}

(* Run one pattern for [ops] operations; returns throughput and syscall
   frequency.  Reads run against a database pre-filled (batched, not
   measured). *)
let run_pattern (b : Virt.Backend.t) (p : pattern) ~ops =
  let db = open_db b ~name:(pattern_name p) in
  let rng = Profile.Rng.create ~seed:77L () in
  let k = b.Virt.Backend.kernel in
  let prefill () =
    let batch = 1000 in
    let done_ = ref 0 in
    while !done_ < ops do
      txn_begin db;
      let n = min batch (ops - !done_) in
      for i = 1 to n do
        insert db ~key:(!done_ + i)
      done;
      txn_commit db;
      done_ := !done_ + n
    done
  in
  (match p with Readseq | Readrandom | Overwritebatch -> prefill () | Fillseq | Fillseqbatch | Fillrandom | Fillrandbatch -> ());
  let sys0 = Kernel_model.Kernel.syscall_count k in
  let batch = batch_of p in
  let total_ns =
    Profile.timed b (fun () ->
        let done_ = ref 0 in
        while !done_ < ops do
          let n = min batch (ops - !done_) in
          (match p with
          | Fillseq | Fillseqbatch ->
              txn_begin db;
              for i = 1 to n do
                insert db ~key:(1_000_000 + !done_ + i)
              done;
              txn_commit db
          | Fillrandom | Fillrandbatch ->
              txn_begin db;
              for _ = 1 to n do
                insert db ~key:(Profile.Rng.int rng 1_000_000)
              done;
              txn_commit db
          | Overwritebatch ->
              txn_begin db;
              for _ = 1 to n do
                insert db ~key:(1 + Profile.Rng.int rng ops)
              done;
              txn_commit db
          | Readseq ->
              for i = 1 to n do
                ignore (read db ~key:(((!done_ + i - 1) mod ops) + 1))
              done
          | Readrandom ->
              for _ = 1 to n do
                ignore (read db ~key:(1 + Profile.Rng.int rng ops))
              done);
          done_ := !done_ + n
        done)
  in
  let syscalls = Kernel_model.Kernel.syscall_count k - sys0 in
  let per_op = total_ns /. float_of_int ops in
  {
    ops_per_sec = 1e9 /. per_op;
    syscalls_per_op = float_of_int syscalls /. float_of_int ops;
    syscall_freq_per_sec = float_of_int syscalls /. (total_ns /. 1e9);
  }
