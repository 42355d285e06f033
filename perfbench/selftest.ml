(* Every output check must be able to fail.  Each self-test feeds one
   check a deliberately broken input and passes only if the check
   rejects it (and accepts the unbroken input).  They run at the start
   of every benchmark run. *)

let self_test name ~accepts_good ~rejects_bad =
  Measure.check ("self-test: " ^ name) (accepts_good && rejects_bad)
    (Printf.sprintf "accepts good input: %b, rejects broken input: %b" accepts_good rejects_bad)

(* fleet-serve's per-tenant check, on a real result with one
   completion dropped. *)
let dropped_completion () =
  let cfg = Fleet_serve.config ~seed:1 0 in
  let tenant = { (List.hd cfg.Fleet.Controller.tenants) with Fleet.Controller.requests = 1_200 } in
  let r = Fleet.Controller.run { cfg with Fleet.Controller.tenants = [ tenant ] } in
  let tr = List.hd r.Fleet.Controller.tenants in
  self_test "a dropped completion fails the fleet-serve tenant check"
    ~accepts_good:(Fleet_serve.tenant_problems tr = [])
    ~rejects_bad:
      (Fleet_serve.tenant_problems { tr with Fleet.Controller.tr_completed = tr.Fleet.Controller.tr_completed - 1 }
      <> [])

(* clone-migrate's leak check, with a frame planted in the name of a
   destroyed container. *)
let planted_frame () =
  let machine = Hw.Machine.create ~cpus:1 ~mem_mib:64 () in
  let mem = Hw.Machine.mem machine in
  let host = Cki.Host.create machine in
  let free_before = Hw.Phys_mem.free_frames mem in
  let c = Cki.Container.create ~cfg:Clone_migrate.container_cfg host in
  let id = Cki.Container.container_id c in
  Cki.Container.destroy c;
  let good = Clone_migrate.leaked_frames mem ~free_before = 0 in
  let pfn = Hw.Phys_mem.alloc mem ~owner:(Hw.Phys_mem.Container id) ~kind:Hw.Phys_mem.Data in
  let bad = Clone_migrate.leaked_frames mem ~free_before <> 0 in
  Hw.Phys_mem.free mem pfn;
  self_test "a planted leaked frame fails the clone-migrate leak check" ~accepts_good:good ~rejects_bad:bad

(* clone-migrate's re-capture check, with one byte of the re-capture
   flipped. *)
let perturbed_recapture () =
  let c, _, _ = Clone_migrate.boot (Cki.Host.create (Hw.Machine.create ~cpus:1 ~mem_mib:64 ())) 16 in
  match Snapshot.Capture.capture c with
  | Error e -> Measure.check "self-test: re-capture" false (Snapshot.Capture.show_error e)
  | Ok img ->
      let golden = Snapshot.Image.encode img in
      let b = Bytes.of_string golden in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      self_test "a perturbed re-capture byte fails the re-capture check"
        ~accepts_good:(Clone_migrate.recapture_matches ~golden ~recaptured:golden)
        ~rejects_bad:(not (Clone_migrate.recapture_matches ~golden ~recaptured:(Bytes.to_string b)))

(* The probe-trace check, with extension E4's PKRS restore on iret
   switched off: every interrupt then returns to the guest kernel with
   monitor rights. *)
let mutation_knob () =
  let good = (Verify.lint_check (Fleet_serve.verification ~seed:1)).Measure.ok in
  let bad =
    Hw.Mutation.with_mutant
      (fun () -> Hw.Mutation.knobs.Hw.Mutation.e4_restore_on_iret <- false)
      (fun () -> not (Verify.lint_check (Fleet_serve.verification ~seed:1)).Measure.ok)
  in
  self_test "the Hw.Mutation e4_restore_on_iret knob fails the probe-trace check" ~accepts_good:good
    ~rejects_bad:bad

(* The ledger check, with a cost id the layer table does not know. *)
let unknown_cost_id () =
  let ledger names =
    let clock = Hw.Clock.create () in
    let l = Ledger.create () in
    let before = Ledger.mark clock in
    List.iter (fun n -> Hw.Clock.charge clock n 1.0) names;
    Ledger.add l ~before clock;
    (Ledger.check l).Measure.ok
  in
  self_test "an unmapped cost id fails the ledger check"
    ~accepts_good:(ledger [ "tlb_hit"; "ksm_call"; "sys_getpid" ])
    ~rejects_bad:(not (ledger [ "tlb_hit"; "perfbench_unknown_cost" ]))

(* The percentile rule, on a sample too small for a p99. *)
let thin_tail () =
  let sample n = Array.init n float_of_int in
  self_test "a p99 of 100 samples is refused"
    ~accepts_good:(Measure.percentile (sample 1_000) 99.0 <> None)
    ~rejects_bad:(Measure.percentile (sample 100) 99.0 = None)

let run () =
  [ dropped_completion (); planted_frame (); perturbed_recapture (); mutation_knob (); unknown_cost_id (); thin_tail () ]
