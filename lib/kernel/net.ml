(* A minimal network: endpoints with RX queues connected pairwise.

   Client models (memtier, netperf, web clients) sit on one endpoint;
   the container's server kernel sits on the other.  Latency per packet
   is charged by the transport (virtio + wire cost), not here. *)

type endpoint = {
  id : int;
  rx : (int * Bytes.t) Queue.t;  (** (src endpoint, payload) *)
  mutable peer : int option;
  mutable rx_packets : int;
  mutable tx_packets : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
}

type t = {
  endpoints : (int, endpoint) Hashtbl.t;
  mutable next_id : int;
  clock : Hw.Clock.t;
}

let create clock = { endpoints = Hashtbl.create 16; next_id = 0; clock }

let endpoint t =
  let id = t.next_id in
  t.next_id <- id + 1;
  let e =
    { id; rx = Queue.create (); peer = None; rx_packets = 0; tx_packets = 0; rx_bytes = 0; tx_bytes = 0 }
  in
  Hashtbl.replace t.endpoints id e;
  e

let connect t a b =
  a.peer <- Some b.id;
  b.peer <- Some a.id;
  ignore t

let get t id = Hashtbl.find t.endpoints id

let id_net_wire = Hw.Clock.intern "net_wire"

(* Send [payload] from [src] to its peer.  Wire time is *not* charged
   on the sender's clock: the NIC drains the queue asynchronously, so
   for server-throughput measurements only CPU-side costs (syscalls,
   virtio, interrupts) count. *)
let send t (src : endpoint) payload =
  match src.peer with
  | None -> Error `Not_connected
  | Some pid ->
      let dst = get t pid in
      Queue.add (src.id, payload) dst.rx;
      src.tx_packets <- src.tx_packets + 1;
      dst.rx_packets <- dst.rx_packets + 1;
      src.tx_bytes <- src.tx_bytes + Bytes.length payload;
      dst.rx_bytes <- dst.rx_bytes + Bytes.length payload;
      Hw.Clock.count_id t.clock id_net_wire;
      Ok (Bytes.length payload)

let recv (e : endpoint) =
  match Queue.take_opt e.rx with None -> Error `Would_block | Some (_, p) -> Ok p

let pending (e : endpoint) = Queue.length e.rx
