(* Bounded event recorder over an int-encoded probe ring.

   Recording costs a few array stores per event (no allocation); the
   stream is decoded back into [Hw.Probe.event] values only when the
   lint pass asks for it.  Overflow drops the oldest records, so long
   scenarios degrade gracefully instead of growing without bound. *)

type t = { ring : Hw.Probe.ring }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { ring = Hw.Probe.ring_create ~capacity () }

let record t ev = Hw.Probe.ring_record t.ring ev
let attach t = Hw.Probe.set_ring t.ring
let detach () = Hw.Probe.clear_sink ()
let events t = Hw.Probe.ring_events t.ring
let tagged_events t = Hw.Probe.ring_events_tagged t.ring
let dropped t = Hw.Probe.ring_dropped t.ring

let with_recorder ?capacity f =
  let t = create ?capacity () in
  attach t;
  Fun.protect ~finally:detach (fun () ->
      let r = f () in
      (r, t))
