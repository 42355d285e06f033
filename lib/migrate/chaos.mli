(** Chaos injection for live migration, plus the shared app harness.

    Each scenario must end with exactly one live, analysis-clean copy
    and zero frames of the losing copy on the losing host — no split
    brain, no leaked frames.  {!run} executes one scenario on a fresh
    2-host fabric and checks exactly that; [leak_inject] plants a
    frame owned by the losing copy before the check, proving the leak
    checker catches what it claims to (the verdict must flip to not
    ok). *)

type scenario =
  | Source_crash  (** source host dies mid-round; failover to checkpoint *)
  | Target_crash  (** target daemon dies before the ack; target copy torn down *)
  | Partition  (** fabric partitions before the ack; target copy torn down *)

val scenario_name : scenario -> string

type verdict = {
  scenario : scenario;
  outcome : Engine.outcome;
  live_hid : int;
  analysis_findings : int;  (** sanitizer findings on the live copy *)
  leaked_frames : int;  (** losing copy's frames left on the losing host *)
  split_brain : bool;
  downtime_ns : float;
  ok : bool;
}

(** {2 App harness} (shared by tests, CLI and the bench) *)

type app = {
  container : Cki.Container.t;
  task : Kernel_model.Task.t;
  heap : Hw.Addr.va;
  heap_pages : int;
}

val boot_app : ?heap_pages:int -> Fabric.t -> hid:int -> app
(** Container with a dirty [heap_pages]-page heap (default 1024) and a
    tmpfs config file on fabric host [hid]. *)

val dirt : app -> round:int -> writes:int -> unit
(** Dirty [writes] pseudo-random heap pages, deterministic in
    [round], through {!Kernel_model.Mm.touch} — protected pages take
    the write-protect fault and land in the dirty log. *)

val work_of : ?rate:float -> app -> round:int -> budget_ns:float -> unit
(** An {!Engine.migrate} [work] callback dirtying [rate * budget]
    pages per round. *)

val all : ?leak_inject:bool -> unit -> verdict list
(** All three scenarios, each on a fresh fabric. *)
