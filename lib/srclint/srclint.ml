(* Self-hosted source auditor.

   Statically scans the repo's *own* OCaml sources (every lib/**/*.ml,
   parsed with compiler-libs) and enforces what the runtime checkers
   cannot: that raw physical-memory mutation stays inside the TCB
   allowlist (the CKI security argument), that the inter-library
   layering DAG has no upward or cross edges, that module-toplevel
   mutable state — the race hazards blocking the domain-sharding
   engine overhaul — is inventoried or fixed, and a hygiene family
   (missing .mli, Obj.magic / assert false in TCB files, unpaired
   Gate_enter/Gate_exit probe emissions), and dead exports: a [val] in
   a lib/ interface that no other compilation unit — library,
   executable, example, perfbench or test — names.

   `cki_demo lint-src` drives this with a checked-in baseline of
   accepted exceptions; `bench/main.exe srclint --json` tracks scan
   time and finding counts in BENCH_srclint.json. *)

module Source = Source
module Facts = Facts
module Escape = Escape
module Rules = Rules
module Baseline = Baseline

type stats = {
  files : int;
  loc : int;
  libraries : int;
  wall_ms : float;
  by_rule : (string * int) list;  (** finding count per rule, all rules that fired *)
}

type scan = { tree : Source.tree; findings : Rules.finding list; stats : stats }

let count_by_rule findings =
  List.fold_left
    (fun acc (f : Rules.finding) ->
      let n = Option.value ~default:0 (List.assoc_opt f.Rules.rule acc) in
      (f.Rules.rule, n + 1) :: List.remove_assoc f.Rules.rule acc)
    [] findings
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let scan ?arch ?tcb ~root () =
  let t0 = Sys.time () in
  let tree = Source.load_tree ~root in
  let findings = Rules.evaluate ?arch ?tcb tree in
  let wall_ms = (Sys.time () -. t0) *. 1000.0 in
  {
    tree;
    findings;
    stats =
      {
        files = List.length tree.Source.files;
        loc = List.fold_left (fun n (f : Source.file) -> n + f.Source.loc) 0 tree.Source.files;
        libraries = List.length tree.Source.libs;
        wall_ms;
        by_rule = count_by_rule findings;
      };
  }

let find_root = Source.find_root
let find_root_exn = Source.find_root_exn

type check = {
  fresh : Rules.finding list;  (** must fail the run *)
  baselined : Rules.finding list;
  stale : Baseline.entry list;  (** baseline lines that matched nothing *)
}

let check ~baseline findings =
  let baselined, fresh, stale = Baseline.apply baseline findings in
  { fresh; baselined; stale }

let to_findings fs =
  List.map
    (fun (f : Rules.finding) ->
      Report.Findings.make ~severity:f.Rules.severity ~rule:f.Rules.rule
        ~subject:(Printf.sprintf "%s:%d" f.Rules.file f.Rules.line)
        ~detail:f.Rules.detail)
    fs

let pp_stats fmt (s : stats) =
  Format.fprintf fmt "scanned %d files / %d LoC across %d libraries in %.0f ms" s.files s.loc
    s.libraries s.wall_ms
