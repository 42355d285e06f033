(* The model kernel: tasks + scheduler + VFS + pipes + sockets + VirtIO
   frontends, all running over a [Platform.t].

   Instantiated once per container guest kernel (and once natively for
   RunC).  Syscall dispatch charges the platform's syscall round trip —
   native for RunC/HVM/CKI, redirected for PVM — then performs real
   work against the in-memory structures. *)

(* The VirtIO queue triple, created lazily on first virtualized I/O so
   freshly assembled (or snapshot-restored) containers that never did
   I/O own no ring frames — which keeps snapshot re-capture
   byte-identical. *)
type io = { tx : Virtio.t; rx : Virtio.t; blk : Virtio.t }

type kick_target = [ `Net_tx | `Net_rx | `Blk ]

(* Host-side I/O plane hooks (installed by Ioplane.Loop).  When absent
   the kernel self-services its queues synchronously, preserving the
   standalone workload semantics. *)
type io_backend = {
  kicked : kick_target -> unit;  (** a doorbell of this kernel rang *)
  service_now : unit -> unit;
      (** synchronous host service pass — the backpressure path and
          [flush_net] delegate here so a full ring drains through the
          plane (switch routing, block store) rather than a stub *)
  blk_sink : (Bytes.t -> unit) option;
      (** host block store; when present, fsync flushes ride the
          virtio-blk queue into it *)
}

type t = {
  id : int;  (** per-process unique, for queue naming *)
  platform : Platform.t;
  fs : Tmpfs.t;
  sched : Sched.t;
  tasks : (int, Task.t) Hashtbl.t;
  sockets : (int, Net.endpoint) Hashtbl.t;
  wire : Net.t;
  mutable io : io option;
  mutable io_queue_size : int;
  mutable io_window : int;
  mutable io_backend : io_backend option;
  mutable next_pid : int;
  mutable syscall_count : int;
  mutable irq_count : int;
  mutable tx_stalls : int;
      (** times the guest blocked on a full ring until a host service
          pass made room (graceful backpressure, not an error) *)
}

(* Process-wide id allocator.  [Atomic.t] so kernels instantiated from
   different domains (the planned container-sharding engine) never mint
   the same queue-naming id; single-domain behaviour is unchanged. *)
let next_kernel_id = Atomic.make 0

let create platform =
  let clock = platform.Platform.clock in
  {
    id = Atomic.fetch_and_add next_kernel_id 1 + 1;
    platform;
    fs = Tmpfs.create clock;
    sched = Sched.create platform;
    tasks = Hashtbl.create 16;
    sockets = Hashtbl.create 16;
    wire = Net.create clock;
    io = None;
    io_queue_size = 64;
    io_window = 1;
    io_backend = None;
    next_pid = 1;
    syscall_count = 0;
    irq_count = 0;
    tx_stalls = 0;
  }

let clock t = t.platform.Platform.clock
let fs t = t.fs
let syscall_count t = t.syscall_count

(* ------------------------------------------------------------------ *)
(* VirtIO data path                                                    *)
(* ------------------------------------------------------------------ *)

let ensure_io t =
  match t.io with
  | Some io -> io
  | None ->
      let q suffix =
        Virtio.create ~size:t.io_queue_size ~window:t.io_window
          ~name:(Printf.sprintf "%s%d-%s" t.platform.Platform.name t.id suffix)
          t.platform
      in
      let io = { tx = q "net-tx"; rx = q "net-rx"; blk = q "blk" } in
      t.io <- Some io;
      io

let configure_io ?queue_size ?window t =
  (match queue_size with
  | None -> ()
  | Some s ->
      if t.io <> None then invalid_arg "Kernel.configure_io: queues already created";
      t.io_queue_size <- s);
  match window with
  | None -> ()
  | Some w ->
      t.io_window <- w;
      Option.iter
        (fun io ->
          Virtio.set_window io.tx w;
          Virtio.set_window io.rx w;
          Virtio.set_window io.blk w)
        t.io

let set_io_backend t backend = t.io_backend <- backend
let virtualized_io t = t.platform.Platform.virtualized_io
let io_devices t = Option.map (fun io -> (io.tx, io.rx, io.blk)) t.io
let io_window t = t.io_window

let io_unreclaimed t =
  match t.io with
  | None -> []
  | Some io ->
      List.filter_map
        (fun q ->
          let n = Virtio.unreclaimed q in
          if n > 0 then Some (Virtio.name q, n) else None)
        [ io.tx; io.rx; io.blk ]

let tx_stalls t = t.tx_stalls

(* Host side: service a device-readable queue (TX or blk), inject the
   completion interrupt ([force_irq] bounds batch latency), then run the
   guest's reclaim as its interrupt handler. *)
let host_service_queue ?(force_irq = true) t q ~handle =
  let n = Virtio.service q ~handle in
  let injected =
    Virtio.complete ~force:force_irq q ~inject:(fun () ->
        t.irq_count <- t.irq_count + 1;
        t.platform.Platform.deliver_irq ())
  in
  if injected then ignore (Virtio.reclaim q);
  n

let host_service_net_tx ?force_irq t ~handle =
  match t.io with None -> 0 | Some io -> host_service_queue ?force_irq t io.tx ~handle

let host_service_blk ?force_irq t ~handle =
  match t.io with
  | None -> 0
  | Some io ->
      let sink =
        match t.io_backend with Some { blk_sink = Some f; _ } -> f | _ -> handle
      in
      host_service_queue ?force_irq t io.blk ~handle:(fun data ->
          sink data;
          Hw.Clock.charge (clock t) "blk_io"
            (float_of_int (max 1 ((Bytes.length data + 511) / 512)) *. Hw.Cost.blk_sector))

(* Guest blocked on a full ring: run one synchronous host service pass
   to make room.  Through the plane when attached, self-serviced when
   standalone. *)
let host_service_pass t =
  match t.io_backend with
  | Some b -> b.service_now ()
  | None ->
      ignore (host_service_net_tx t ~handle:ignore);
      ignore (host_service_blk t ~handle:ignore)

(* Guest: post [data] with graceful backpressure, then ring-or-not. *)
let guest_post_kick t q ~data ~(kind : Platform.io_kind) ~(target : kick_target) =
  let rec post attempts =
    match Virtio.post q ~data with
    | `Posted -> ()
    | `Full ->
        if attempts > 3 * Virtio.size q then
          failwith (Printf.sprintf "virtio %s: ring wedged under backpressure" (Virtio.name q));
        t.tx_stalls <- t.tx_stalls + 1;
        Hw.Clock.charge (clock t) "virtio_tx_stall" Hw.Cost.virtio_frontend_work;
        host_service_pass t;
        post (attempts + 1)
  in
  post 0;
  ignore
    (Virtio.kick q ~doorbell:(fun () ->
         t.platform.Platform.hypercall kind;
         match t.io_backend with Some b -> b.kicked target | None -> ()))

let spawn t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let mm = Mm.create t.platform in
  let task = Task.create ~pid ~parent:0 mm in
  Hashtbl.replace t.tasks pid task;
  task

let task t pid = Hashtbl.find_opt t.tasks pid

(* Live tasks sorted by pid — the kernel's task-table state for
   snapshot capture. *)
let tasks t =
  Hashtbl.fold (fun _ task acc -> task :: acc) t.tasks []
  |> List.sort (fun (a : Task.t) b -> compare a.Task.pid b.Task.pid)

let next_pid t = t.next_pid
let set_next_pid t pid = t.next_pid <- pid

(* Snapshot restore: adopt an already-reconstructed task at its
   captured pid. *)
let restore_task t (task : Task.t) =
  Hashtbl.replace t.tasks task.Task.pid task;
  if task.Task.pid >= t.next_pid then t.next_pid <- task.Task.pid + 1

(* Touch user memory (demand paging) outside any syscall. *)
let touch t (task : Task.t) va ~write =
  ignore t;
  Mm.touch task.Task.mm va ~write

let touch_range t (task : Task.t) ~start ~pages ~write =
  ignore t;
  Mm.touch_range task.Task.mm ~start ~pages ~write

(* Context-switch between two tasks of this kernel. *)
let context_switch t ~from_pid ~to_pid =
  ignore from_pid;
  match Hashtbl.find_opt t.tasks to_pid with
  | None -> invalid_arg "Kernel.context_switch: unknown pid"
  | Some target -> Sched.switch_to t.sched to_pid target.Task.mm

(* ------------------------------------------------------------------ *)
(* Syscall implementation                                              *)
(* ------------------------------------------------------------------ *)

let file_obj (task : Task.t) fd =
  match Task.fd task fd with
  | Some (Task.File f) -> Some f
  | Some (Task.Pipe_read _ | Task.Pipe_write _ | Task.Socket _) | None -> None

let do_read t task fd n : Syscall.result =
  match Task.fd task fd with
  | Some (Task.File f) ->
      let data = Tmpfs.read t.fs f.Task.inode ~off:f.Task.pos ~n in
      f.Task.pos <- f.Task.pos + Bytes.length data;
      Syscall.Rbytes data
  | Some (Task.Pipe_read p) -> (
      match Pipe.read p ~n with
      | Ok data -> Syscall.Rbytes data
      | Error `Would_block -> Syscall.Rerr "EAGAIN")
  | Some (Task.Socket sid) -> (
      match Hashtbl.find_opt t.sockets sid with
      | None -> Syscall.Rerr "EBADF"
      | Some ep -> (
          match Net.recv ep with
          | Ok data -> Syscall.Rbytes data
          | Error `Would_block -> Syscall.Rerr "EAGAIN"))
  | Some (Task.Pipe_write _) -> Syscall.Rerr "EBADF"
  | None -> Syscall.Rerr "EBADF"

let do_write t task fd data : Syscall.result =
  match Task.fd task fd with
  | Some (Task.File f) ->
      let n = Tmpfs.write t.fs f.Task.inode ~off:f.Task.pos data in
      f.Task.pos <- f.Task.pos + n;
      Syscall.Rint n
  | Some (Task.Pipe_write p) -> (
      match Pipe.write p data with
      | Ok n -> Syscall.Rint n
      | Error `Would_block -> Syscall.Rerr "EAGAIN"
      | Error `Epipe -> Syscall.Rerr "EPIPE")
  | Some (Task.Socket sid) -> (
      match Hashtbl.find_opt t.sockets sid with
      | None -> Syscall.Rerr "EBADF"
      | Some ep ->
          (* TX goes through the virtio-net frontend (post + doorbell +
             backend service) on virtualized platforms; OS-level
             containers hit the host NIC natively.  A full ring blocks
             the guest until a host service pass makes room. *)
          if t.platform.Platform.virtualized_io then begin
            let io = ensure_io t in
            guest_post_kick t io.tx ~data ~kind:Platform.Net_tx ~target:`Net_tx
          end;
          (match Net.send t.wire ep data with
          | Ok n -> Syscall.Rint n
          | Error `Not_connected -> Syscall.Rerr "ENOTCONN"))
  | Some (Task.Pipe_read _) -> Syscall.Rerr "EBADF"
  | None -> Syscall.Rerr "EBADF"

let do_fork t (task : Task.t) =
  let child_mm = Mm.fork task.Task.mm in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let child = Task.create ~pid ~parent:task.Task.pid child_mm in
  (* Share the fd table contents (re-register same objects). *)
  Hashtbl.iter (fun fd obj -> Hashtbl.replace child.Task.fds fd obj) task.Task.fds;
  child.Task.next_fd <- task.Task.next_fd;
  Hashtbl.replace t.tasks pid child;
  pid

let do_exit t (task : Task.t) code =
  task.Task.state <- Task.Zombie;
  task.Task.exit_code <- Some code;
  Mm.destroy task.Task.mm;
  Hashtbl.remove t.tasks task.Task.pid

(* Execute one syscall on behalf of [task].  Charges the platform's
   syscall round trip + the call's own work; returns the result. *)
let syscall t (task : Task.t) (sc : Syscall.t) : Syscall.result =
  t.syscall_count <- t.syscall_count + 1;
  t.platform.Platform.syscall_round_trip ();
  Hw.Clock.charge_id (clock t) (Syscall.event_id sc) (Syscall.base_work sc);
  match sc with
  | Syscall.Getpid -> Syscall.Rint task.Task.pid
  | Syscall.Read { fd; n } -> do_read t task fd n
  | Syscall.Write { fd; data } -> do_write t task fd data
  | Syscall.Open { path; create } -> (
      let inode =
        if create then Some (Tmpfs.open_or_create t.fs path) else Tmpfs.resolve_opt t.fs path
      in
      match inode with
      | None -> Syscall.Rerr "ENOENT"
      | Some inode -> Syscall.Rint (Task.install_fd task (Task.File { inode; pos = 0 })))
  | Syscall.Close fd ->
      Task.close_fd task fd;
      Syscall.Runit
  | Syscall.Stat path -> (
      match Tmpfs.resolve_opt t.fs path with
      | None -> Syscall.Rerr "ENOENT"
      | Some i -> Syscall.Rstat { size = Tmpfs.size i; ino = Tmpfs.ino i; is_dir = Tmpfs.is_dir i })
  | Syscall.Fstat fd -> (
      match file_obj task fd with
      | None -> Syscall.Rerr "EBADF"
      | Some f ->
          Syscall.Rstat
            {
              size = Tmpfs.size f.Task.inode;
              ino = Tmpfs.ino f.Task.inode;
              is_dir = Tmpfs.is_dir f.Task.inode;
            })
  | Syscall.Lseek { fd; pos } -> (
      match file_obj task fd with
      | None -> Syscall.Rerr "EBADF"
      | Some f ->
          f.Task.pos <- pos;
          Syscall.Rint pos)
  | Syscall.Fsync fd -> (
      (* tmpfs fsync is a no-op beyond its base work; with a host block
         store attached (I/O plane), the dirty bytes ride virtio-blk. *)
      match file_obj task fd with
      | None -> Syscall.Rerr "EBADF"
      | Some f ->
          (match t.io_backend with
          | Some { blk_sink = Some _; _ } when t.platform.Platform.virtualized_io ->
              let size = min (Tmpfs.size f.Task.inode) (8 * 4096) in
              let data = Tmpfs.read t.fs f.Task.inode ~off:0 ~n:(max size 1) in
              let io = ensure_io t in
              guest_post_kick t io.blk ~data ~kind:Platform.Blk_write ~target:`Blk
          | _ -> ());
          Syscall.Runit)
  | Syscall.Unlink path -> (
      match Tmpfs.unlink t.fs path with
      | () -> Syscall.Runit
      | exception Tmpfs.Not_found_path _ -> Syscall.Rerr "ENOENT")
  | Syscall.Mkdir path -> (
      match Tmpfs.mkdir t.fs path with
      | _ -> Syscall.Runit
      | exception Tmpfs.Exists _ -> Syscall.Rerr "EEXIST")
  | Syscall.Mmap { pages; prot } ->
      Syscall.Rint (Mm.mmap task.Task.mm ~pages ~prot ~backing:Vma.Anon)
  | Syscall.Munmap { addr; pages } ->
      Mm.munmap task.Task.mm ~start:addr ~pages;
      Syscall.Runit
  | Syscall.Mprotect { addr; pages; prot } ->
      Mm.mprotect task.Task.mm ~start:addr ~pages ~prot;
      Syscall.Runit
  | Syscall.Brk { delta_pages } -> Syscall.Rint (Mm.brk task.Task.mm ~delta_pages)
  | Syscall.Fork -> Syscall.Rint (do_fork t task)
  | Syscall.Execve ->
      (* Replace the address space: tear down and rebuild text/heap. *)
      let mm = task.Task.mm in
      let pages = Mm.resident_pages mm in
      Hw.Clock.charge (clock t) "execve_teardown" (float_of_int pages *. Hw.Cost.per_pte_copy);
      Syscall.Runit
  | Syscall.Exit code ->
      do_exit t task code;
      Syscall.Runit
  | Syscall.Pipe ->
      let p = Pipe.create (clock t) in
      let rfd = Task.install_fd task (Task.Pipe_read p) in
      let wfd = Task.install_fd task (Task.Pipe_write p) in
      Syscall.Rpair (rfd, wfd)
  | Syscall.Socket ->
      let ep = Net.endpoint t.wire in
      Hashtbl.replace t.sockets ep.Net.id ep;
      Syscall.Rint (Task.install_fd task (Task.Socket ep.Net.id))
  | Syscall.Send { fd; data } -> do_write t task fd data
  | Syscall.Recv { fd; n } -> do_read t task fd n
  | Syscall.Sched_yield -> Syscall.Runit
  | Syscall.Nanosleep ns ->
      Hw.Clock.advance (clock t) ns;
      Syscall.Runit

let syscall_exn t task sc =
  match syscall t task sc with
  | Syscall.Rerr e -> failwith (Printf.sprintf "syscall %s failed: %s" (Syscall.name sc) e)
  | r -> r

(* ------------------------------------------------------------------ *)
(* Device-side entry points (called by the host / client models)       *)
(* ------------------------------------------------------------------ *)

(* Drain the TX queue: host backend services posted descriptors and
   raises one completion interrupt for the batch.  Callers decide the
   batching granularity (per request for unpipelined servers, per
   event-loop iteration for pipelined ones).  Through the plane's
   service pass when one is attached. *)
let flush_net t =
  if t.platform.Platform.virtualized_io then
    match t.io_backend with
    | Some b -> b.service_now ()
    | None -> ignore (host_service_net_tx t ~handle:ignore)

(* A batch of packets arrives from outside for socket [sid]: the guest
   replenishes RX buffer credit (kicking through EVENT_IDX), the host
   DMAs the payloads into the posted buffers and injects one interrupt
   for the batch; the guest's handler reclaims them into the socket
   queue. *)
let deliver_packets t ~sid payloads =
  match Hashtbl.find_opt t.sockets sid with
  | None -> Error `No_socket
  | Some ep ->
      let enqueue payload =
        Queue.add (-1, payload) ep.Net.rx;
        ep.Net.rx_packets <- ep.Net.rx_packets + 1
      in
      if t.platform.Platform.virtualized_io && payloads <> [] then begin
        let io = ensure_io t in
        List.iter
          (fun p ->
            match Virtio.post_buffer io.rx ~capacity:(max 64 (Bytes.length p)) with
            | `Posted | `Full -> ())
          payloads;
        ignore
          (Virtio.kick io.rx ~doorbell:(fun () ->
               t.platform.Platform.hypercall Platform.Net_rx_ack;
               match t.io_backend with Some b -> b.kicked `Net_rx | None -> ()));
        Hw.Clock.charge_id (clock t) Hw.Clock.id_virtio_service Hw.Cost.virtio_backend_service;
        let missed = List.filter (fun p -> not (Virtio.fill io.rx ~data:p)) payloads in
        let injected =
          Virtio.complete ~force:true io.rx ~inject:(fun () ->
              t.irq_count <- t.irq_count + 1;
              t.platform.Platform.deliver_irq ())
        in
        let received = if injected then Virtio.reclaim io.rx else [] in
        List.iter enqueue received;
        (* Ring credit exhausted (undersized test queues): deliver the
           overflow directly so no packet is lost, with the legacy
           per-batch interrupt if the ring path injected nothing. *)
        List.iter enqueue missed;
        if not injected then begin
          t.irq_count <- t.irq_count + 1;
          t.platform.Platform.deliver_irq ()
        end
      end
      else begin
        List.iter enqueue payloads;
        t.irq_count <- t.irq_count + 1;
        t.platform.Platform.deliver_irq ()
      end;
      Ok ()

(* A single packet arrives from outside for socket [sid]. *)
let deliver_packet t ~sid payload = deliver_packets t ~sid [ payload ]

let socket_endpoint t sid = Hashtbl.find_opt t.sockets sid
let wire t = t.wire
let irq_count t = t.irq_count
