(* CKI reproduction benchmark harness.

   Regenerates every table and figure of the paper's evaluation (see
   DESIGN.md section 4) plus the attack suite, the snapshot/warm-clone
   bench and Bechamel benches of the simulator primitives.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig12      # one experiment
     dune exec bench/main.exe snapshot   # snapshot/restore/clone bench
     dune exec bench/main.exe list       # list experiment ids

   --json additionally writes machine-readable results for the benches
   that support it: snapshot -> BENCH_snapshot.json, modelcheck ->
   BENCH_modelcheck.json, micro -> BENCH_micro.json, srclint ->
   BENCH_srclint.json, racecheck -> BENCH_racecheck.json, ioplane ->
   BENCH_ioplane.json, engine -> BENCH_engine.json, fleet ->
   BENCH_fleet.json, migration -> BENCH_migration.json.

   `validate` parses every BENCH_*.json in the current directory with
   Report.Json.parse and fails if any is malformed — the CI check that
   the checked-in artifacts stay well-formed.  It also rescans the
   source tree and fails if BENCH_srclint.json is stale: any field but
   scan_ms differing from the fresh scan. *)

let validate_artifacts () =
  let files =
    Sys.readdir "."
    |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6 && String.sub f 0 6 = "BENCH_" && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if files = [] then begin
    Printf.eprintf "validate: no BENCH_*.json in the current directory\n";
    exit 1
  end;
  let bad = ref 0 in
  List.iter
    (fun f ->
      match Report.Json.parse_file f with
      | Ok (Report.Json.Obj fields as v) -> (
          let bench =
            match List.assoc_opt "bench" fields with
            | Some (Report.Json.String s) -> s
            | _ -> "?"
          in
          match if bench = "srclint" then Srclint_bench.stale_fields v else [] with
          | [] ->
              Printf.printf "  %-24s ok (bench=%s, %d top-level fields)\n" f bench
                (List.length fields)
          | stale ->
              Printf.printf
                "  %-24s STALE: %s differ from a fresh scan; regenerate with `bench/main.exe \
                 srclint --json`\n"
                f (String.concat ", " stale);
              incr bad)
      | Ok _ ->
          Printf.printf "  %-24s MALFORMED: top level is not an object\n" f;
          incr bad
      | Error e ->
          Printf.printf "  %-24s MALFORMED: %s\n" f e;
          incr bad)
    files;
  if !bad > 0 then begin
    Printf.eprintf "validate: %d malformed or stale artifact(s)\n" !bad;
    exit 1
  end

(* Table 2's primitives, re-measured into a JSON artifact. *)
let micro_json () =
  let row mk =
    let getpid = Micro.getpid_ns (mk ()) in
    let pgfault = Micro.pgfault_ns (mk ()) in
    let hypercall = Micro.hypercall_ns (mk ()) in
    Report.Json.Obj
      [
        ("getpid_ns", Report.Json.Float getpid);
        ("pgfault_ns", Report.Json.Float pgfault);
        ("hypercall_ns", Report.Json.Float hypercall);
      ]
  in
  Report.Json.write_file "BENCH_micro.json"
    (Report.Json.Obj
       [
         ("bench", Report.Json.String "micro");
         ("runc", row Backends.runc);
         ("hvm_bm", row (fun () -> Backends.hvm_bm ()));
         ("pvm_bm", row Backends.pvm_bm);
         ("cki", row (fun () -> Backends.cki_bm ()));
       ]);
  Printf.printf "wrote BENCH_micro.json\n"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--json") args in
  let run_special name =
    match name with
    | "simbench" ->
        Simbench.run ();
        true
    | "snapshot" ->
        Snap_bench.run ~json ();
        true
    | "modelcheck" ->
        Mc_bench.run ~json ();
        true
    | "ioplane" ->
        Ioplane_bench.run ~json ();
        true
    | "srclint" ->
        Srclint_bench.run ~json ();
        true
    | "racecheck" ->
        Racecheck_bench.run ~json ();
        true
    | "engine" ->
        Engine_bench.run ~json ();
        true
    | "fleet" ->
        Fleet_bench.run ~json ();
        true
    | "migration" ->
        Migration_bench.run ~json ();
        true
    | "validate" ->
        validate_artifacts ();
        true
    | "micro" ->
        if json then micro_json ()
        else Printf.printf "micro: use --json to write BENCH_micro.json (table form is table2)\n";
        true
    | _ -> false
  in
  match args with
  | [ "list" ] ->
      List.iter (fun (name, _) -> print_endline name) Experiments.all;
      List.iter print_endline
        [
          "snapshot"; "modelcheck"; "ioplane"; "fleet"; "migration"; "micro"; "srclint";
          "racecheck"; "engine"; "simbench"; "validate";
        ]
  | [] ->
      Printf.printf "CKI (EuroSys'25) reproduction — full benchmark run\n";
      Printf.printf "===================================================\n";
      List.iter
        (fun (_, f) ->
          f ();
          flush stdout)
        Experiments.all;
      Snap_bench.run ~json ();
      Mc_bench.run ~json ();
      Ioplane_bench.run ~json ();
      Fleet_bench.run ~json ();
      Migration_bench.run ~json ();
      Srclint_bench.run ~json ();
      Racecheck_bench.run ~json ();
      Engine_bench.run ~json ();
      if json then micro_json ();
      Simbench.run ()
  | names ->
      List.iter
        (fun name ->
          if not (run_special name) then
            match List.assoc_opt name Experiments.all with
            | Some f -> f ()
            | None ->
                Printf.eprintf "unknown experiment %S (try: dune exec bench/main.exe list)\n" name;
                exit 1)
        names
