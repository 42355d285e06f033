(* Web-server workloads of Figure 5: nginx serving static files, nginx
   as a reverse proxy, and Apache httpd.

   Per request:
     - static: RX interrupt (batched), recv, stat + open + read of the
       file from tmpfs, send, close;
     - proxy: static's front half plus an upstream connection
       (send + RX interrupt + recv on the upstream socket) — double
       the virtio traffic;
     - httpd: like static with a heavier syscall footprint
       (per-request accept4/setsockopt/writev and logging write). *)

type kind = Nginx_static | Nginx_proxy | Httpd

type server = {
  backend : Virt.Backend.t;
  task : Kernel_model.Task.t;
  sock_fd : int;
  sock_id : int;
  upstream_fd : int;
  upstream_id : int;
  file_path : string;
  kind : kind;
}

let file_bytes = 8192
let rx_batch = 4

let fd_of = function
  | Kernel_model.Syscall.Rint fd -> fd
  | _ -> failwith "webserver: expected fd"

let mk_socket (b : Virt.Backend.t) task =
  let fd = fd_of (Virt.Backend.syscall_exn b task Kernel_model.Syscall.Socket) in
  let id =
    match Kernel_model.Task.fd task fd with
    | Some (Kernel_model.Task.Socket id) -> id
    | _ -> failwith "webserver: no socket id"
  in
  let wire = Kernel_model.Kernel.wire b.Virt.Backend.kernel in
  let peer = Kernel_model.Net.endpoint wire in
  (match Kernel_model.Kernel.socket_endpoint b.Virt.Backend.kernel id with
  | Some ep -> Kernel_model.Net.connect wire ep peer
  | None -> failwith "webserver: endpoint lookup failed");
  (fd, id, peer)

let create (b : Virt.Backend.t) kind =
  let task = Virt.Backend.spawn b in
  let sock_fd, sock_id, _ = mk_socket b task in
  let upstream_fd, upstream_id, _ = mk_socket b task in
  let file_path = "/www_index.html" in
  let fd = fd_of (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = file_path; create = true })) in
  ignore
    (Virt.Backend.syscall_exn b task
       (Kernel_model.Syscall.Write { fd; data = Bytes.create file_bytes }));
  ignore (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Close fd));
  { backend = b; task; sock_fd; sock_id; upstream_fd; upstream_id; file_path; kind }

let request_compute = function
  | Nginx_static -> 1_800.0
  | Nginx_proxy -> 2_400.0
  | Httpd -> 3_600.0

let serve_one srv =
  let b = srv.backend in
  let sys sc = ignore (Virt.Backend.syscall_exn b srv.task sc) in
  sys (Kernel_model.Syscall.Recv { fd = srv.sock_fd; n = 512 });
  Profile.compute b (request_compute srv.kind);
  (match srv.kind with
  | Nginx_static ->
      sys (Kernel_model.Syscall.Stat srv.file_path);
      let fd = ref 0 in
      (match Virt.Backend.syscall_exn b srv.task (Kernel_model.Syscall.Open { path = srv.file_path; create = false }) with
      | Kernel_model.Syscall.Rint f -> fd := f
      | _ -> failwith "open");
      sys (Kernel_model.Syscall.Read { fd = !fd; n = file_bytes });
      sys (Kernel_model.Syscall.Close !fd)
  | Nginx_proxy ->
      (* forward to upstream and await its reply *)
      sys (Kernel_model.Syscall.Send { fd = srv.upstream_fd; data = Bytes.create 512 });
      (match
         Kernel_model.Kernel.deliver_packets b.Virt.Backend.kernel ~sid:srv.upstream_id
           [ Bytes.create file_bytes ]
       with
      | Ok () -> ()
      | Error `No_socket -> failwith "proxy upstream");
      sys (Kernel_model.Syscall.Recv { fd = srv.upstream_fd; n = file_bytes })
  | Httpd ->
      sys (Kernel_model.Syscall.Stat srv.file_path);
      let fd = ref 0 in
      (match Virt.Backend.syscall_exn b srv.task (Kernel_model.Syscall.Open { path = srv.file_path; create = false }) with
      | Kernel_model.Syscall.Rint f -> fd := f
      | _ -> failwith "open");
      sys (Kernel_model.Syscall.Read { fd = !fd; n = file_bytes });
      sys (Kernel_model.Syscall.Close !fd);
      (* access log + extra per-request socket bookkeeping *)
      sys Kernel_model.Syscall.Sched_yield;
      sys Kernel_model.Syscall.Sched_yield;
      sys (Kernel_model.Syscall.Stat srv.file_path));
  sys (Kernel_model.Syscall.Send { fd = srv.sock_fd; data = Bytes.create 600 })

(* Requests per second over [requests] simulated requests. *)
let run (b : Virt.Backend.t) kind ~requests =
  let srv = create b kind in
  let k = b.Virt.Backend.kernel in
  let total_ns =
    Profile.timed b (fun () ->
        let served = ref 0 in
        while !served < requests do
          let n = min rx_batch (requests - !served) in
          (match
             Kernel_model.Kernel.deliver_packets k ~sid:srv.sock_id
               (List.init n (fun _ -> Bytes.create 512))
           with
          | Ok () -> ()
          | Error `No_socket -> failwith "webserver delivery");
          for _ = 1 to n do
            serve_one srv
          done;
          Kernel_model.Kernel.flush_net k;
          (* drain client-side queues *)
          served := !served + n
        done)
  in
  float_of_int requests /. (total_ns /. 1e9)
