(* Future-work extension 2 (Section 9): kernel-level syscall
   optimization — running a syscall-intensive application *inside* the
   kernel, in its own PKS domain, so syscalls become function calls.

   The application is deprivileged exactly like a guest kernel
   (PKRS != 0 blocks destructive instructions; PKS walls off kernel
   data), but it shares the kernel's address space, so invoking a
   kernel service costs a gate transition instead of a ring crossing.

   [wrap_backend] produces a Virt.Backend.t view whose syscall path
   charges the in-kernel cost, so any existing workload (e.g. the
   SQLite db_bench patterns) can run "in-kernel" unchanged — that is
   the ablation `bench/main.exe ablation` reports. *)

(* A syscall by an in-kernel app: PKS gate in and out, no swapgs/
   sysret, no stack switch beyond the secure stack. *)
let in_kernel_syscall_cost = 2.0 *. Hw.Cost.pks_switch (* = 63 ns *)

type t = {
  backend : Virt.Backend.t;  (** the wrapped, in-kernel view *)
  mutable syscalls_elided : int;
}

(* Wrap a CKI container backend so that syscall round trips charge the
   in-kernel gate cost instead of the hardware syscall path.  Page
   faults, hypercalls and device I/O are unchanged — only the
   user/kernel boundary moves. *)
let wrap_backend (b : Virt.Backend.t) : t =
  let clock = b.Virt.Backend.clock in
  let t_ref = ref None in
  let platform =
    {
      b.Virt.Backend.platform with
      Kernel_model.Platform.name = b.Virt.Backend.platform.Kernel_model.Platform.name ^ "+inkernel";
      syscall_round_trip =
        (fun () ->
          (match !t_ref with Some t -> t.syscalls_elided <- t.syscalls_elided + 1 | None -> ());
          Hw.Clock.charge clock "inkernel_syscall" in_kernel_syscall_cost);
    }
  in
  let kernel = Kernel_model.Kernel.create platform in
  let backend =
    { b with Virt.Backend.label = b.Virt.Backend.label ^ "+inkernel"; kernel; platform }
  in
  let t = { backend; syscalls_elided = 0 } in
  t_ref := Some t;
  t

let backend t = t.backend
let syscalls_elided t = t.syscalls_elided

(* Expected speedup on a workload whose per-op cost is [op_ns] with
   [syscalls_per_op] syscalls — the analytical check the tests compare
   the measured ablation against. *)
let predicted_speedup ~op_ns ~syscalls_per_op =
  let saved = syscalls_per_op *. (Hw.Cost.syscall_entry_exit -. in_kernel_syscall_cost) in
  op_ns /. (op_ns -. saved)
