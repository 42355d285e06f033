(* The PARSEC / vmitosis page-fault-intensive applications of
   Figures 4 and 12: canneal, dedup, fluidanimate, freqmine.

   Each is modelled by its working profile:
     - pages: distinct page touches (demand faults) over the run;
     - compute_per_page: app computation between faults;
     - churn: fraction of memory that is freed and re-allocated
       (malloc/free cycling).  Churn matters because a recycled guest
       page keeps its second-stage mapping under HVM (no EPT violation)
       while every backend still takes the guest-level fault — it is
       what separates apps where nested HVM collapses (fresh
       allocations) from apps where it merely limps;
     - syscalls: file-I/O per 100 pages (dedup's pipeline writes its
       output; the others barely touch the filesystem). *)

type profile = {
  name : string;
  pages : int;
  compute_per_page : float;
  churn : float;  (** 0.0 = all allocations fresh, 0.9 = mostly recycled *)
  syscalls_per_100_pages : int;
}

let canneal =
  { name = "canneal"; pages = 12_000; compute_per_page = 3_800.0; churn = 0.85; syscalls_per_100_pages = 4 }

let dedup =
  { name = "dedup"; pages = 10_000; compute_per_page = 2_600.0; churn = 0.72; syscalls_per_100_pages = 90 }

let fluidanimate =
  { name = "fluidanimate"; pages = 8_000; compute_per_page = 14_000.0; churn = 0.3; syscalls_per_100_pages = 2 }

let freqmine =
  { name = "freqmine"; pages = 6_000; compute_per_page = 26_000.0; churn = 0.6; syscalls_per_100_pages = 2 }

let chunk_pages = 64

let run (b : Virt.Backend.t) (p : profile) =
  let task = Virt.Backend.spawn b in
  let rng = Profile.Rng.create ~seed:3L () in
  let out_fd =
    match
      Virt.Backend.syscall_exn b task
        (Kernel_model.Syscall.Open { path = "/" ^ p.name ^ ".out"; create = true })
    with
    | Kernel_model.Syscall.Rint fd -> fd
    | _ -> failwith "parsec: open failed"
  in
  let payload = Bytes.create 512 in
  Profile.timed b (fun () ->
      let touched = ref 0 in
      let sys_budget = ref 0 in
      while !touched < p.pages do
        let n = min chunk_pages (p.pages - !touched) in
        let addr =
          match
            Virt.Backend.syscall_exn b task
              (Kernel_model.Syscall.Mmap { pages = n; prot = Kernel_model.Vma.prot_rw })
          with
          | Kernel_model.Syscall.Rint v -> v
          | _ -> failwith "parsec: mmap failed"
        in
        ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:addr ~pages:n ~write:true);
        Profile.compute b (float_of_int n *. p.compute_per_page);
        sys_budget := !sys_budget + (n * p.syscalls_per_100_pages);
        while !sys_budget >= 100 do
          sys_budget := !sys_budget - 100;
          ignore
            (Virt.Backend.syscall_exn b task
               (Kernel_model.Syscall.Write { fd = out_fd; data = payload }))
        done;
        (* malloc/free churn: release this chunk so the allocator hands
           its frames back out (recycled gPAs keep their EPT mapping
           under HVM; everyone still takes the guest fault next time). *)
        if Profile.Rng.float rng < p.churn then
          ignore
            (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Munmap { addr; pages = n }));
        touched := !touched + n
      done)
