(* The context-switch path.  A switch between tasks with different
   address spaces pays the platform's address-space switch (which is
   where PVM's hypercall-per-CR3-load shows up). *)

type t = { platform : Platform.t; mutable current : int option }

let create platform = { platform; current = None }

(* Switch to [pid] whose mm is [mm]; charges switch work + address
   space change. *)
let switch_to t pid (mm : Mm.t) =
  (match t.current with
  | Some c when c = pid -> ()
  | _ ->
      Hw.Clock.charge t.platform.Platform.clock "ctx_switch" Hw.Cost.ctx_switch_work;
      t.platform.Platform.as_switch (Mm.aspace mm));
  t.current <- Some pid
