(* A minimal network: endpoints with RX queues connected pairwise.

   Client models (memtier, netperf, web clients) sit on one endpoint;
   the container's server kernel sits on the other.  Latency per packet
   is charged by the transport (virtio + wire cost), not here. *)

(* A FIFO of frames: a growable power-of-two ring of payload
   references.  Pushing and popping allocate nothing once the ring has
   grown to the traffic's high-water mark.  A frame is the sender's
   [Bytes.t] itself, not a copy: a sender that reuses its buffer must
   not expect the contents a receiver reads later to be the ones it
   pushed (the simulator charges only a frame's length). *)
module Frames = struct
  type t = { mutable slots : Bytes.t array; mutable head : int; mutable len : int }

  let create () = { slots = Array.make 16 Bytes.empty; head = 0; len = 0 }
  let length t = t.len

  let push t b =
    let cap = Array.length t.slots in
    if t.len = cap then begin
      let bigger = Array.make (2 * cap) Bytes.empty in
      for i = 0 to t.len - 1 do
        bigger.(i) <- t.slots.((t.head + i) land (cap - 1))
      done;
      t.slots <- bigger;
      t.head <- 0
    end;
    t.slots.((t.head + t.len) land (Array.length t.slots - 1)) <- b;
    t.len <- t.len + 1

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Net.Frames.get";
    t.slots.((t.head + i) land (Array.length t.slots - 1))

  (* Drop the [n] oldest frames. *)
  let drop t n =
    if n < 0 || n > t.len then invalid_arg "Net.Frames.drop";
    for _ = 1 to n do
      t.slots.(t.head) <- Bytes.empty;
      t.head <- (t.head + 1) land (Array.length t.slots - 1)
    done;
    t.len <- t.len - n

  let pop t =
    let b = get t 0 in
    drop t 1;
    b
end

type endpoint = {
  id : int;
  rx : Frames.t;
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
    { id; rx = Frames.create (); peer = None; rx_packets = 0; tx_packets = 0; rx_bytes = 0; tx_bytes = 0 }
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
      Frames.push dst.rx payload;
      src.tx_packets <- src.tx_packets + 1;
      dst.rx_packets <- dst.rx_packets + 1;
      src.tx_bytes <- src.tx_bytes + Bytes.length payload;
      dst.rx_bytes <- dst.rx_bytes + Bytes.length payload;
      Hw.Clock.count_id t.clock id_net_wire;
      Ok (Bytes.length payload)

let recv (e : endpoint) = if Frames.length e.rx = 0 then Error `Would_block else Ok (Frames.pop e.rx)
let pending (e : endpoint) = Frames.length e.rx

(* Drop every pending frame; returns how many there were. *)
let discard (e : endpoint) =
  let n = Frames.length e.rx in
  Frames.drop e.rx n;
  n
