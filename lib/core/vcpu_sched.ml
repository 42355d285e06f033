(* Host-side vCPU scheduling with timer preemption.

   The host kernel schedules container vCPUs like ordinary threads
   (Section 3.3: "The host kernel schedules the vCPUs of the guests").
   Preemption relies on the interrupt-abuse defences of Section 4.4:
   the timer interrupt always reaches the host through the container's
   interrupt gate — the guest cannot disable interrupts (cli blocked,
   sysret pins IF), cannot re-point the IDT, and cannot forge or
   monopolize vectors — so even a deadlooping guest kernel is preempted
   on schedule and DoS is contained to the guest's own timeslice.

   Quotas are cgroup cpu.max semantics: a vCPU with [quota = (period,
   budget)] may consume at most [budget] ns of guest runtime per
   [period] ns window; once the budget is spent the scheduler skips it
   (a throttle event) until the window rolls over.  When every runnable
   vCPU is throttled the host idles the CPU forward to the earliest
   refill instead of busy-waiting. *)

type vcpu_entry = {
  container : Container.t;
  vcpu : int;
  mutable work : (unit -> unit) Queue.t;  (** pending guest work items *)
  mutable executed : int;  (** work items completed *)
  mutable slices : int;  (** timeslices received *)
  mutable spinning : bool;  (** models a compromised deadlooping guest *)
  quota : (float * float) option;  (** (period_ns, budget_ns) runtime cap *)
  mutable q_used : float;  (** runtime consumed in the current period *)
  mutable q_period_start : float;
  mutable throttles : int;  (** times skipped with an exhausted budget *)
}

type t = {
  host : Host.t;
  clock : Hw.Clock.t;
  slice_ns : float;
  mutable entries : vcpu_entry list;  (** round-robin order *)
  mutable preemptions : int;
  mutable throttle_events : int;
}

let create ?(slice_ns = 1_000_000.0) host =
  {
    host;
    clock = Hw.Machine.clock (Host.machine host);
    slice_ns;
    entries = [];
    preemptions = 0;
    throttle_events = 0;
  }

let add_vcpu ?quota t container ~vcpu =
  (match quota with
  | Some (period, budget) when period <= 0.0 || budget <= 0.0 ->
      invalid_arg "Vcpu_sched.add_vcpu: quota period and budget must be positive"
  | _ -> ());
  let e =
    {
      container;
      vcpu;
      work = Queue.create ();
      executed = 0;
      slices = 0;
      spinning = false;
      quota;
      q_used = 0.0;
      q_period_start = Hw.Clock.now t.clock;
      throttles = 0;
    }
  in
  t.entries <- t.entries @ [ e ];
  e

let remove_vcpu t e = t.entries <- List.filter (fun e' -> e' != e) t.entries
let submit_work e f = Queue.add f e.work
let mark_spinning e = e.spinning <- true

(* Roll the entry's quota window forward to the one containing now. *)
let refresh_quota t e =
  match e.quota with
  | None -> ()
  | Some (period, _) ->
      let now = Hw.Clock.now t.clock in
      if now >= e.q_period_start +. period then begin
        let periods = floor ((now -. e.q_period_start) /. period) in
        e.q_period_start <- e.q_period_start +. (periods *. period);
        e.q_used <- 0.0
      end

let throttled t e =
  refresh_quota t e;
  match e.quota with None -> false | Some (_, budget) -> e.q_used >= budget

(* Run one timeslice on [e]: resume the guest (virtual-interrupt
   injection), execute work until the slice expires (or spin), then the
   host timer fires and preempts through the interrupt gate.  The
   runtime actually consumed is charged against the entry's quota. *)
let run_slice t e =
  e.slices <- e.slices + 1;
  let cpu = Container.cpu e.container e.vcpu in
  Container.enter_guest_kernel cpu;
  Host.inject_virq t.host;
  let t0 = Hw.Clock.now t.clock in
  let slice_end = t0 +. t.slice_ns in
  if e.spinning then
    (* a compromised guest burns its whole slice *)
    Hw.Clock.advance t.clock t.slice_ns
  else begin
    let rec drain () =
      if Hw.Clock.now t.clock < slice_end then
        match Queue.take_opt e.work with
        | Some f ->
            f ();
            e.executed <- e.executed + 1;
            drain ()
        | None -> ()
    in
    drain ()
  end;
  e.q_used <- e.q_used +. (Hw.Clock.now t.clock -. t0);
  (* Timer preemption: hardware interrupt -> interrupt gate -> host.
     The PKS-switch extension fires regardless of guest state. *)
  match
    Gates.interrupt (Container.gates e.container) cpu ~vcpu:e.vcpu ~vector:Hw.Idt.vec_timer
      ~kind:Hw.Idt.Hardware
      (fun v -> Host.handle_hw_interrupt t.host ~vector:v)
  with
  | Ok () -> t.preemptions <- t.preemptions + 1
  | Error e -> failwith ("Vcpu_sched: timer gate failed: " ^ Gates.show_error e)

(* Earliest quota refill among the entries; infinity when none. *)
let next_refill t =
  List.fold_left
    (fun acc e ->
      match e.quota with Some (period, _) -> Float.min acc (e.q_period_start +. period) | None -> acc)
    infinity t.entries

(* Round-robin for [slices] total timeslices.  [after_slice] runs in
   host context between slices — the I/O plane's device-service window
   (flush coalesced queues, pump the switch) multiplexed with guest
   execution.  Throttled vCPUs are skipped without consuming a slice;
   if every vCPU is throttled the clock idles forward to the earliest
   refill, so the budget cap costs wall-clock latency, not livelock. *)
let run ?(after_slice = fun () -> ()) t ~slices =
  let remaining = ref slices in
  let rec go entries =
    if !remaining > 0 then
      match entries with
      | [] -> go t.entries
      | e :: rest ->
          if throttled t e then begin
            e.throttles <- e.throttles + 1;
            t.throttle_events <- t.throttle_events + 1;
            if List.for_all (fun e' -> throttled t e') t.entries then begin
              let refill = next_refill t in
              let now = Hw.Clock.now t.clock in
              if refill > now && refill < infinity then Hw.Clock.advance t.clock (refill -. now)
            end;
            go rest
          end
          else begin
            run_slice t e;
            after_slice ();
            decr remaining;
            go rest
          end
  in
  if t.entries <> [] then go t.entries

let preemptions t = t.preemptions
let throttle_events t = t.throttle_events
