(** Future-work extension 1 (Section 9): sandboxing untrusted kernel
    drivers directly within ring 0.

    The same machinery that deprivileges a container guest kernel — a
    PKS domain + the E2 instruction-blocking extension + call gates —
    isolates a buggy or malicious driver inside the host kernel,
    avoiding the microkernel alternative of a ring-3 driver server
    behind IPC. {!invoke} vs {!invoke_microkernel_style} quantifies
    the per-call saving. *)

type fault = Memory_escape of Hw.Addr.va | Priv_instruction of Hw.Priv.t

type t = private {
  name : string;
  key : int;
  clock : Hw.Clock.t;
  cpu : Hw.Cpu.t;
  driver_rights : Hw.Pks.rights;
  heap : (Hw.Addr.va, int) Hashtbl.t;
  mutable invocations : int;
  mutable faults : fault list;
  mutable dead : bool;
}

type registry

exception No_free_keys

val create_registry : Hw.Machine.t -> registry

val load : registry -> name:string -> heap_pages:int -> t
(** Load a driver into its own PKS domain: full access to its own key,
    read-only kernel text, no access to anything else.
    @raise No_free_keys when 13 drivers are already live. *)

val unload : registry -> t -> unit
(** Free the driver's heap and recycle its key. *)

val loaded_count : registry -> int
val free_key_count : registry -> int

val invoke : t -> (t -> 'a) -> ('a, fault) result
(** Enter the driver domain (two wrpkrs switches), run the body, exit.
    Fails fast once the driver has been killed. *)

val invoke_microkernel_style : t -> (t -> 'a) -> 'a
(** The ring-3 alternative: each call pays two ring crossings, two
    address-space switches and IPC bookkeeping — the ablation baseline. *)

val heap_write : t -> Hw.Addr.va -> unit
(** Driver body: write driver-private memory (allowed). *)

val attempt_kernel_write : t -> Hw.Addr.va -> [ `Escaped | `Killed ]
(** Driver body: write kernel memory. The PKS check fails and the
    driver domain is killed. *)

val attempt_priv : t -> Hw.Priv.t -> [ `Blocked | `Escaped | `Harmless ]
(** Driver body: execute a privileged instruction; extension E2 blocks
    the destructive ones exactly as for guest kernels. *)

val fault_count : t -> int
val invocation_count : t -> int
val is_dead : t -> bool
