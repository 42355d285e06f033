(* A multi-host fabric: N independent machines (own physical memory,
   clock, CKI host, I/O-plane switch) joined by inter-host links with
   simulated bandwidth and latency.

   Time model: a transfer charges [latency + bytes/bw] to *both* ends'
   clocks and then synchronizes them to the later of the two — the two
   machines block on the same wire, so their clocks agree at every
   rendezvous point.  Between transfers the clocks run free, which is
   exactly the semantics the migration engine needs: source serving
   time accrues on the source clock only.

   Endpoints are the re-homable half of the model: a named service
   port that client traffic is addressed to.  [deliver] lands frames
   in the port's inbox on whichever host currently homes the endpoint;
   [freeze] buffers them instead (the cutover window); [rehome] moves
   the port to another host atomically and [unfreeze] replays the
   buffer into the new inbox — the "no dropped traffic" half of live
   migration.

   [crash_host] and [partition]/[heal] are the chaos surface: a dead
   host refuses transfers and deliveries; a partitioned pair refuses
   transfers while both stay alive. *)

type link = { bw_bytes_per_ns : float; latency_ns : float }

type node = {
  hid : int;
  machine : Hw.Machine.t;
  host : Cki.Host.t;
  switch : Ioplane.Switch.t;
  mutable alive : bool;
}

type endpoint = {
  ep_name : string;
  mutable ep_home : int;
  mutable ep_port : Ioplane.Switch.port;
  mutable ep_frozen : bool;
  ep_buffer : Bytes.t Queue.t;
  mutable ep_delivered : int;
  mutable ep_dropped : int;
}

type t = {
  nodes : node array;
  link : link;
  mutable partitions : (int * int) list;
  endpoints : (string, endpoint) Hashtbl.t;
  mutable xfer_bytes : int;
}

let default_link = { bw_bytes_per_ns = 1.0 (* 1 GB/s *); latency_ns = 20_000.0 }

let create ?(mem_mib = 512) ?(link = default_link) ~hosts () =
  if hosts < 1 then invalid_arg "Fabric.create";
  let nodes =
    Array.init hosts (fun hid ->
        let machine = Hw.Machine.create ~mem_mib () in
        {
          hid;
          machine;
          host = Cki.Host.create machine;
          switch = Ioplane.Switch.create (Hw.Machine.clock machine);
          alive = true;
        })
  in
  { nodes; link; partitions = []; endpoints = Hashtbl.create 4; xfer_bytes = 0 }

let node t hid =
  if hid < 0 || hid >= Array.length t.nodes then invalid_arg "Fabric.node";
  t.nodes.(hid)

let host t hid = (node t hid).host
let machine t hid = (node t hid).machine
let alive t hid = (node t hid).alive
let clock t hid = Hw.Machine.clock (node t hid).machine

(* ------------------------------------------------------------------ *)
(* Links                                                               *)
(* ------------------------------------------------------------------ *)

let pair a b = (min a b, max a b)
let partitioned t a b = List.mem (pair a b) t.partitions

let partition t a b =
  if not (partitioned t a b) then t.partitions <- pair a b :: t.partitions

let heal t a b = t.partitions <- List.filter (fun p -> p <> pair a b) t.partitions
let crash_host t hid = (node t hid).alive <- false

(* Synchronize two clocks to the later one — both ends of a blocking
   transfer leave the rendezvous at the same simulated instant. *)
let sync_clocks ca cb =
  let m = Float.max (Hw.Clock.now ca) (Hw.Clock.now cb) in
  Hw.Clock.advance ca (m -. Hw.Clock.now ca);
  Hw.Clock.advance cb (m -. Hw.Clock.now cb)

let transfer_ns t ~bytes = t.link.latency_ns +. (float_of_int bytes /. t.link.bw_bytes_per_ns)

let transfer t ~src ~dst ~bytes =
  let s = node t src and d = node t dst in
  if not s.alive then Error (Printf.sprintf "source host %d is down" src)
  else if not d.alive then Error (Printf.sprintf "target host %d is down" dst)
  else if partitioned t src dst then
    Error (Printf.sprintf "link %d<->%d is partitioned" src dst)
  else begin
    let ns = transfer_ns t ~bytes in
    let cs = Hw.Machine.clock s.machine and cd = Hw.Machine.clock d.machine in
    sync_clocks cs cd;
    Hw.Clock.charge cs "fabric_transfer" ns;
    Hw.Clock.charge cd "fabric_transfer" ns;
    t.xfer_bytes <- t.xfer_bytes + bytes;
    Ok ns
  end

let transferred_bytes t = t.xfer_bytes

(* ------------------------------------------------------------------ *)
(* Endpoints                                                           *)
(* ------------------------------------------------------------------ *)

let expose t ~name ~home =
  if Hashtbl.mem t.endpoints name then invalid_arg "Fabric.expose: endpoint exists";
  let n = node t home in
  let ep =
    {
      ep_name = name;
      ep_home = home;
      ep_port = Ioplane.Switch.port n.switch ~name;
      ep_frozen = false;
      ep_buffer = Queue.create ();
      ep_delivered = 0;
      ep_dropped = 0;
    }
  in
  Hashtbl.replace t.endpoints name ep;
  ep

let endpoint t name =
  match Hashtbl.find_opt t.endpoints name with
  | Some ep -> ep
  | None -> invalid_arg ("Fabric.endpoint: no endpoint " ^ name)

let endpoint_home t name = (endpoint t name).ep_home
let endpoint_port t name = (endpoint t name).ep_port
let buffered t name = Queue.length (endpoint t name).ep_buffer
let delivered t name = (endpoint t name).ep_delivered
let dropped t name = (endpoint t name).ep_dropped

(* Client traffic addressed to the endpoint: lands in the live inbox,
   or the cutover buffer while frozen.  A dead home host drops (and
   counts) the frame — clients see loss, not silent buffering. *)
let deliver t ~name frame =
  let ep = endpoint t name in
  if ep.ep_frozen then Queue.add frame ep.ep_buffer
  else if not (node t ep.ep_home).alive then ep.ep_dropped <- ep.ep_dropped + 1
  else begin
    Queue.add frame ep.ep_port.Ioplane.Switch.inbox;
    ep.ep_delivered <- ep.ep_delivered + 1
  end

let freeze t ~name = (endpoint t name).ep_frozen <- true

(* Atomic re-home: the endpoint's port moves to [to_]'s switch.  Frames
   buffered while frozen survive the move and are replayed by
   [unfreeze] — cutover loses nothing. *)
let rehome t ~name ~to_ =
  let ep = endpoint t name in
  let n = node t to_ in
  if not n.alive then invalid_arg "Fabric.rehome: target host is down";
  ep.ep_home <- to_;
  ep.ep_port <- Ioplane.Switch.port n.switch ~name:ep.ep_name

let unfreeze t ~name =
  let ep = endpoint t name in
  ep.ep_frozen <- false;
  let replayed = Queue.length ep.ep_buffer in
  Queue.iter
    (fun frame ->
      Queue.add frame ep.ep_port.Ioplane.Switch.inbox;
      ep.ep_delivered <- ep.ep_delivered + 1)
    ep.ep_buffer;
  Queue.clear ep.ep_buffer;
  replayed

(* ------------------------------------------------------------------ *)
(* Frame accounting (the chaos leak check)                             *)
(* ------------------------------------------------------------------ *)

(* Frames on host [hid] still owned by container [container] (data or
   KSM).  After a migration completes — or aborts — the losing copy
   must account for exactly zero. *)
let owned_frames t ~hid ~container =
  let mem = Hw.Machine.mem (node t hid).machine in
  let n = ref 0 in
  Hw.Phys_mem.iter_owned mem ~id:container (fun _ -> incr n);
  !n
