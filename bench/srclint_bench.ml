(* Source-auditor bench: scan the repo's own tree and track scan wall
   time and finding counts, so the perf trajectory catches both a
   slowing scanner and creeping baselined debt.

   --json -> BENCH_srclint.json.  [stale_fields] rescans and names the
   fields of a checked-in artifact that no longer match, which is how
   `bench/main.exe validate` keeps BENCH_srclint.json fresh. *)

let scan () =
  let root = Srclint.find_root_exn () in
  let scan = Srclint.scan ~root () in
  let entries =
    match Srclint.Baseline.load (Filename.concat root "srclint.baseline") with
    | Ok e -> e
    | Error msg -> failwith msg
  in
  (scan.Srclint.stats, Srclint.check ~baseline:entries scan.Srclint.findings)

let artifact (s : Srclint.stats) (chk : Srclint.check) =
  [
    ("bench", Report.Json.String "srclint");
    ("files", Report.Json.Int s.Srclint.files);
    ("loc", Report.Json.Int s.Srclint.loc);
    ("libraries", Report.Json.Int s.Srclint.libraries);
    ("scan_ms", Report.Json.Float s.Srclint.wall_ms);
    ( "findings_by_rule",
      Report.Json.Obj (List.map (fun (rule, n) -> (rule, Report.Json.Int n)) s.Srclint.by_rule) );
    ("baselined", Report.Json.Int (List.length chk.Srclint.baselined));
    ("new", Report.Json.Int (List.length chk.Srclint.fresh));
    ("stale_baseline", Report.Json.Int (List.length chk.Srclint.stale));
  ]

(* Every field but the scan time must equal a fresh scan's. *)
let stale_fields checked_in =
  let s, chk = scan () in
  List.filter_map
    (fun (k, v) ->
      if k = "scan_ms" || Report.Json.member k checked_in = Some v then None else Some k)
    (artifact s chk)

let run ~json () =
  let s, chk = scan () in
  Printf.printf "\nsrclint: %s; %d baselined, %d new, %d stale baseline entr%s\n"
    (Format.asprintf "%a" Srclint.pp_stats s)
    (List.length chk.Srclint.baselined)
    (List.length chk.Srclint.fresh)
    (List.length chk.Srclint.stale)
    (if List.length chk.Srclint.stale = 1 then "y" else "ies");
  if json then begin
    Report.Json.write_file "BENCH_srclint.json" (Report.Json.Obj (artifact s chk));
    Printf.printf "wrote BENCH_srclint.json\n"
  end
