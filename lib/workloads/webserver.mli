(** Web-server workloads of Figure 5: nginx static files, nginx as a
    reverse proxy (double virtio traffic), and Apache httpd (heavier
    per-request syscall footprint). *)

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

val create : Virt.Backend.t -> kind -> server

val serve_one : server -> unit
(** Handle one already-delivered request (recv + file work + send);
    the reply rides the TX queue, flushed by the caller. *)

val run : Virt.Backend.t -> kind -> requests:int -> float
(** Requests per simulated second. *)
