(* Traffic serving through the host I/O plane: an open-loop load
   generator drives a container fleet over the shared-memory virtio
   rings and the software switch, comparing notification costs across
   backends and EVENT_IDX coalescing windows.

     dune exec examples/traffic_serving.exe *)

let serve cfg =
  Analysis.checked
    ~label:(Printf.sprintf "traffic_serving/%s-w%d" cfg.Ioplane.Serve.backend cfg.Ioplane.Serve.window)
    (fun () -> Ioplane.Serve.run cfg)

let () =
  let base =
    {
      Ioplane.Serve.default_config with
      Ioplane.Serve.containers = 4;
      requests_per_container = 100;
      rate_rps = 200_000.0;
    }
  in
  Printf.printf "Four-container fleets, open-loop memcached load, naive notification:\n\n";
  List.iter
    (fun backend -> Format.printf "%a@." Ioplane.Serve.pp_result (serve { base with Ioplane.Serve.backend; window = 0 }))
    [ "runc"; "hvm"; "pvm"; "cki" ];
  Printf.printf "\nCKI with EVENT_IDX interrupt coalescing (the batch window caps how long\n";
  Printf.printf "a completion can sit unsignaled; doorbells and interrupts collapse):\n\n";
  List.iter
    (fun window -> Format.printf "%a@." Ioplane.Serve.pp_result (serve { base with Ioplane.Serve.backend = "cki"; window }))
    [ 1; 4; 8 ];
  Printf.printf "\nEight CKI replicas, coalesced, multiplexed over preempted vCPU timeslices\n";
  Printf.printf "(one fleet tenant at a fixed replica count; fleet_autoscale scales it):\n\n";
  let tenant =
    {
      Fleet.Controller.default_tenant with
      Fleet.Controller.name = "mux-8";
      rate_rps = 8.0 *. base.Ioplane.Serve.rate_rps;
      requests = 8 * base.Ioplane.Serve.requests_per_container;
    }
  in
  let fixed =
    { Fleet.Autoscaler.default_config with Fleet.Autoscaler.min_replicas = 8; max_replicas = 8 }
  in
  let r =
    Fleet.Controller.run
      {
        Fleet.Controller.default_config with
        Fleet.Controller.tenants = [ tenant ];
        autoscaler = fixed;
        initial_replicas = 8;
        cpu_quota = None;
        io_window = 4;
      }
  in
  List.iter (Format.printf "%a@." Fleet.Controller.pp_tenant_result) r.Fleet.Controller.tenants
