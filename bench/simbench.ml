(* Bechamel microbenchmarks of the simulator's own primitives (real
   wall-clock time, not simulated time): these keep the substrate
   honest — a page-table walk or a KSM-validated map should cost
   microseconds of host time at most, or the app-level experiments
   above would not be runnable. *)

open Bechamel
open Toolkit

let make_tests () =
  let mem = Hw.Phys_mem.create ~frames:65536 in
  let pt = Hw.Page_table.create mem ~owner:Hw.Phys_mem.Host in
  (* Pre-map a region to walk. *)
  for i = 0 to 511 do
    ignore
      (Hw.Page_table.map pt ~va:(0x1000_0000 + (i * 4096)) ~pfn:(i + 100)
         ~flags:Hw.Pte.default_flags ())
  done;
  let counter = ref 0 in
  let walk =
    Test.make ~name:"page_table.walk"
      (Staged.stage (fun () ->
           counter := (!counter + 1) land 511;
           ignore (Hw.Page_table.walk pt (0x1000_0000 + (!counter * 4096)))))
  in
  let tlb = Hw.Tlb.create () in
  Hw.Tlb.insert tlb ~pcid:1 ~va:0x5000 ~pfn:5
    ~meta:(Hw.Tlb.meta_of_pte (Hw.Pte.make ~pfn:5 ~flags:Hw.Pte.default_flags) ~level:1);
  let tlb_lookup =
    Test.make ~name:"tlb.lookup" (Staged.stage (fun () -> ignore (Hw.Tlb.lookup tlb ~pcid:1 0x5000)))
  in
  let buddy = Kernel_model.Buddy.create ~base:0 ~frames:4096 in
  let buddy_cycle =
    Test.make ~name:"buddy.alloc+free"
      (Staged.stage (fun () ->
           let f = Kernel_model.Buddy.alloc buddy in
           Kernel_model.Buddy.free buddy f))
  in
  (* Free lists that grow long: one run frees 4,096 single frames in a
     seeded shuffled order and allocates them all again. *)
  let frag = Kernel_model.Buddy.create ~base:0 ~frames:4096 in
  let frames = Array.init 4096 (fun _ -> Kernel_model.Buddy.alloc frag) in
  let order = Array.init 4096 Fun.id in
  let rng = Random.State.make [| 14 |] in
  for i = 4095 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let buddy_fragmented =
    Test.make ~name:"buddy.free (fragmented)"
      (Staged.stage (fun () ->
           Array.iter (fun i -> Kernel_model.Buddy.free frag frames.(i)) order;
           Array.iteri (fun i _ -> frames.(i) <- Kernel_model.Buddy.alloc frag) frames))
  in
  let c = Cki.Container.create_standalone ~mem_mib:256 () in
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  let getpid =
    Test.make ~name:"cki.syscall(getpid)"
      (Staged.stage (fun () ->
           ignore (Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid)))
  in
  let pkrs_check =
    Test.make ~name:"pks.allows"
      (Staged.stage (fun () ->
           ignore (Hw.Pks.allows Hw.Pks.pkrs_guest ~key:Hw.Pks.pkey_ptp Hw.Pks.Write)))
  in
  [ walk; tlb_lookup; buddy_cycle; buddy_fragmented; getpid; pkrs_check ]

let run () =
  Printf.printf "\nSimulator-primitive microbenchmarks (host wall-clock)\n";
  Printf.printf "=====================================================\n";
  let tests = make_tests () in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let tbl = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-24s %10.1f ns/op\n" name est
          | Some _ | None -> Printf.printf "  %-24s (no estimate)\n" name)
        tbl)
    tests
