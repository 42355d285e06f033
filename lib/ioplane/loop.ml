(* The host I/O event loop: multiplexes device work across the
   container fleet.

   Each attached kernel gets a switch port and the io-backend hooks.
   Doorbells either trigger an immediate service pass (naive mode,
   window = 0 — the doorbell exit lands in the backend and it services
   right away) or mark the attachment pending for the next batch
   window (EVENT_IDX coalescing: the guest suppresses most kicks and
   the host polls the avail ring on its own schedule, NAPI-style).

   One [tick] is one event-loop iteration: pump inbound frames into
   the guests, then run a service pass over every attachment with
   outstanding work — TX frames are forwarded through the switch, blk
   writes land in the block store, and each serviced batch gets one
   forced completion interrupt (the batch-boundary latency bound). *)

type attachment = {
  kernel : Kernel_model.Kernel.t;
  port : Switch.port;
  mutable rx_sid : int option;  (** socket inbound frames are delivered to *)
  mutable pending_tx : bool;
  mutable pending_blk : bool;
}

type t = {
  switch : Switch.t;
  blkstore : Blkstore.t;
  mutable attachments : attachment list;
  mutable service_passes : int;
}

let create clock =
  {
    switch = Switch.create clock;
    blkstore = Blkstore.create ();
    attachments = [];
    service_passes = 0;
  }

let switch t = t.switch
let blkstore t = t.blkstore

(* One service pass over [att]: drain its TX queue through the switch
   and its blk queue into the store, forcing the completion interrupts
   (batch boundary). *)
let service t att =
  att.pending_tx <- false;
  att.pending_blk <- false;
  t.service_passes <- t.service_passes + 1;
  let tx =
    Kernel_model.Kernel.host_service_net_tx att.kernel
      ~handle:(fun payload -> Switch.forward t.switch ~src:att.port payload)
  in
  let blk = Kernel_model.Kernel.host_service_blk att.kernel ~handle:(Blkstore.write t.blkstore) in
  tx + blk

let attach t kernel ~name =
  let port = Switch.port t.switch ~name in
  let att = { kernel; port; rx_sid = None; pending_tx = false; pending_blk = false } in
  let immediate () = Kernel_model.Kernel.io_window kernel = 0 in
  let backend =
    {
      Kernel_model.Kernel.kicked =
        (fun target ->
          match target with
          | `Net_tx -> if immediate () then ignore (service t att) else att.pending_tx <- true
          | `Blk -> if immediate () then ignore (service t att) else att.pending_blk <- true
          | `Net_rx ->
              (* RX buffer-credit replenish: the delivery path services
                 the queue inline, nothing for the loop to do. *)
              ());
      service_now = (fun () -> ignore (service t att));
      blk_sink = Some (Blkstore.write t.blkstore);
    }
  in
  Kernel_model.Kernel.set_io_backend kernel (Some backend);
  t.attachments <- att :: t.attachments;
  att

let detach t att =
  Kernel_model.Kernel.set_io_backend att.kernel None;
  t.attachments <- List.filter (fun a -> a != att) t.attachments

let set_rx_socket att sid = att.rx_sid <- Some sid

(* Deliver inbound frames queued at the attachment's port into its
   kernel (RX ring fill + one interrupt per batch). *)
let pump att =
  match att.rx_sid with
  | None -> 0
  | Some sid -> (
      match Switch.drain att.port with
      | [] -> 0
      | frames -> (
          match Kernel_model.Kernel.deliver_packets att.kernel ~sid frames with
          | Ok () -> List.length frames
          | Error `No_socket -> 0))

let outstanding att =
  att.pending_tx || att.pending_blk
  ||
  match Kernel_model.Kernel.io_devices att.kernel with
  | None -> false
  | Some (tx, _rx, blk) ->
      Kernel_model.Virtio.in_flight tx > 0 || Kernel_model.Virtio.in_flight blk > 0

(* One event-loop iteration over the fleet. *)
let tick t =
  let progressed = ref 0 in
  List.iter
    (fun att ->
      progressed := !progressed + pump att;
      if outstanding att then progressed := !progressed + service t att)
    t.attachments;
  !progressed

let service_passes t = t.service_passes
