(* Live migration end to end: iterative pre-copy over a two-host
   fabric, compared against pure stop-and-copy, then a source crash
   mid-round failing over to the round-0 checkpoint.

     dune exec examples/live_migration.exe *)

let () =
  Printf.printf "== Iterative pre-copy: the source serves while frames ship ==\n\n";
  Printf.printf
    "Round 0 ships a consistent checkpoint while the app keeps writing;\n\
     every writable page is then write-protected through the KSM (and\n\
     its translation flushed) so writes fault into a dirty log.  Each round\n\
     re-sends only what the previous round's wire time let the app dirty —\n\
     the dirty set shrinks geometrically until only a handful of frames\n\
     ship inside the blackout.\n\n";
  let fab = Migrate.Fabric.create ~hosts:2 () in
  let a = Migrate.Chaos.boot_app fab ~hid:0 in
  ignore (Migrate.Fabric.expose fab ~name:"svc" ~home:0);
  let st =
    match
      Migrate.Engine.migrate fab ~src:0 ~dst:1 ~name:"svc" a.Migrate.Chaos.container
        ~work:(Migrate.Chaos.work_of a) Migrate.Engine.default_opts
    with
    | Ok st -> st
    | Error e -> failwith (Migrate.Engine.show_error e)
  in
  List.iter
    (fun r ->
      Printf.printf "  round %d: %4d dirty frames shipped in %.0f ns\n" r.Migrate.Engine.r_round
        r.Migrate.Engine.r_dirty r.Migrate.Engine.r_transfer_ns)
    st.Migrate.Engine.rounds;
  Printf.printf "\n  downtime %.0f ns, %d full + %d resent frames, verified before cutover\n\n"
    st.Migrate.Engine.downtime_ns st.Migrate.Engine.frames_full st.Migrate.Engine.frames_resent;

  Printf.printf "== The baseline: stop-and-copy ships everything in the blackout ==\n\n";
  let fab2 = Migrate.Fabric.create ~hosts:2 () in
  let b = Migrate.Chaos.boot_app fab2 ~hid:0 in
  ignore (Migrate.Fabric.expose fab2 ~name:"svc" ~home:0);
  let sc =
    match
      Migrate.Engine.migrate fab2 ~src:0 ~dst:1 ~name:"svc" b.Migrate.Chaos.container
        ~work:(Migrate.Chaos.work_of b)
        { Migrate.Engine.default_opts with Migrate.Engine.rounds_max = 0 }
    with
    | Ok st -> st
    | Error e -> failwith (Migrate.Engine.show_error e)
  in
  Printf.printf "  stop-and-copy downtime %.0f ns — pre-copy cut it to %.1f%%\n\n"
    sc.Migrate.Engine.downtime_ns
    (100.0 *. st.Migrate.Engine.downtime_ns /. sc.Migrate.Engine.downtime_ns);

  Printf.printf "== Chaos: a source crash mid-round fails over, cleanly ==\n\n";
  Printf.printf
    "Rounds are wire traffic, not target state: the only consistent restore\n\
     points are the checkpoint and final images, so a crashed source fails\n\
     over to the (re-verified) checkpoint — never a half-applied round.\n\n";
  List.iter
    (fun (v : Migrate.Chaos.verdict) ->
      Printf.printf "  %-12s -> host %d live, %d findings, %d leaked frames: %s\n"
        (Migrate.Chaos.scenario_name v.Migrate.Chaos.scenario)
        v.Migrate.Chaos.live_hid v.Migrate.Chaos.analysis_findings v.Migrate.Chaos.leaked_frames
        (if v.Migrate.Chaos.ok then "ok" else "VIOLATION"))
    (Migrate.Chaos.all ());
  Printf.printf "\nEvery scenario ends with exactly one analysis-clean live copy.\n"
