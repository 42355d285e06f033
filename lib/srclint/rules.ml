(* The rule families over a parsed source tree.

   Findings carry a stable fingerprint (rule, file, symbol — no line
   numbers, so unrelated edits don't churn the baseline) and render
   through [Report.Findings]. *)

type finding = {
  rule : string;
  severity : Report.Findings.severity;
  file : string;  (** repo-relative; a .ml or a dune file *)
  line : int;
  symbol : string;  (** the fingerprint identifier (binding, sink, library...) *)
  detail : string;
}

let fingerprint f = Printf.sprintf "%s %s %s" f.rule f.file f.symbol

(* ------------------------------------------------------------------ *)
(* Architecture: the sanctioned inter-library DAG                      *)
(* ------------------------------------------------------------------ *)

(* [lib -> libraries it may reference].  This is the layering
   `hw <- kernel <- virt <- core <- {analysis, snapshot, modelcheck,
   ioplane} <- workload drivers` written out as an explicit allowlist;
   an edge absent here is an upward or cross edge and a finding, even
   when OCaml would resolve it through dune's implicit transitive
   dependencies.  A new library must be added here deliberately. *)
type arch = (string * string list) list

let default_arch =
  [
    ("report", []);
    ("hw", []);
    ("kernel_model", [ "hw" ]);
    ("virt", [ "hw"; "kernel_model" ]);
    ("cki", [ "hw"; "kernel_model"; "virt" ]);
    ("workloads", [ "hw"; "kernel_model"; "virt" ]);
    ("analysis", [ "hw"; "cki"; "report" ]);
    ("snapshot", [ "hw"; "kernel_model"; "virt"; "cki"; "analysis"; "report" ]);
    ("modelcheck", [ "hw"; "kernel_model"; "virt"; "cki"; "report" ]);
    ("ioplane", [ "hw"; "kernel_model"; "virt"; "cki"; "workloads"; "report" ]);
    (* The fleet controller composes the serving plane: it may see the
       I/O plane, snapshots and the verifier, and nothing may see it. *)
    ("fleet",
      [ "hw"; "kernel_model"; "virt"; "cki"; "workloads"; "ioplane"; "snapshot"; "analysis"; "report" ]);
    (* Live migration sits above the whole serving stack: it moves
       containers between fabric hosts over snapshot images and
       re-verifies them with the analysis scanner before cutover.
       Only the executables may see it. *)
    ("migrate",
      [ "hw"; "kernel_model"; "virt"; "cki"; "ioplane"; "snapshot"; "fleet"; "analysis"; "report" ]);
    ("srclint", [ "report" ]);
    (* Executable scope: the demo driver and the bench harness sit on
       top of the whole stack — any library, no library sees them. *)
    ( "bin",
      [ "report"; "hw"; "kernel_model"; "virt"; "cki"; "workloads"; "analysis"; "snapshot";
        "modelcheck"; "ioplane"; "fleet"; "migrate"; "srclint" ] );
    ( "bench",
      [ "report"; "hw"; "kernel_model"; "virt"; "cki"; "workloads"; "analysis"; "snapshot";
        "modelcheck"; "ioplane"; "fleet"; "migrate"; "srclint" ] );
  ]

(* ------------------------------------------------------------------ *)
(* Trusted computing base                                              *)
(* ------------------------------------------------------------------ *)

(* Files allowed to reach the raw physical-memory write sinks: the
   hardware model itself, the security monitor (KSM) and its per-vCPU
   root copies, the snapshot restore/freeze paths, and the VirtIO data
   path (guest-word access + ring layout).  Everything else must
   mutate memory through a KSM call.  Entries ending in '/' cover a
   directory. *)
let default_tcb =
  [
    "lib/hw/";
    "lib/core/ksm.ml";
    "lib/core/pervcpu.ml";
    "lib/snapshot/restore.ml";
    "lib/snapshot/template.ml";
    "lib/kernel/platform.ml";
    "lib/kernel/virtio.ml";
  ]

let in_tcb tcb path =
  List.exists
    (fun entry ->
      if String.length entry > 0 && entry.[String.length entry - 1] = '/' then
        String.length path >= String.length entry && String.sub path 0 (String.length entry) = entry
      else path = entry)
    tcb

(* ------------------------------------------------------------------ *)
(* Rule evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let crit = Report.Findings.Critical
let warn = Report.Findings.Warning

let mk rule severity file line symbol detail = { rule; severity; file; line; symbol; detail }

(* dead-export: a library [val] that no compilation unit other than
   its own implementation names — not another module of the library,
   another library, an executable, an example, perfbench or a test. *)
let dead_exports (tree : Source.tree) emit =
  let unit_of path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path)) in
  let units = Hashtbl.create 16 in
  List.iter
    (fun (i : Source.intf) ->
      Hashtbl.add units i.Source.intf_library.Source.lib_module (unit_of i.Source.intf_path))
    tree.Source.interfaces;
  (* "v:Hw.Clock.charge" / "m:Hw.Clock" -> the files naming it *)
  let users = Hashtbl.create 4096 in
  let note file key =
    if not (List.mem file (Hashtbl.find_all users key)) then Hashtbl.add users key file
  in
  List.iter
    (fun (file : Source.file) ->
      let lib_module = file.Source.library.Source.lib_module in
      let siblings = Hashtbl.find_all units lib_module in
      let note kind path =
        note file.Source.path (kind ^ String.concat "." path);
        (* [Clock.charge] inside hw is [Hw.Clock.charge] *)
        match path with
        | head :: _ when List.mem head siblings ->
            note file.Source.path (kind ^ String.concat "." (lib_module :: path))
        | _ -> ()
      in
      let u = Facts.uses file.Source.ast in
      List.iter (note "v:") u.Facts.values;
      List.iter (note "m:") u.Facts.modules)
    (tree.Source.files @ tree.Source.referrers);
  List.iter
    (fun (i : Source.intf) ->
      let path = i.Source.intf_path in
      match i.Source.intf_error with
      | Some (line, msg) ->
          emit
            (mk "parse-error" crit path line (Filename.basename path)
               ("compiler front end rejected this file: " ^ msg))
      | None ->
          let impl = Filename.chop_suffix path ".mli" ^ ".ml" in
          let unit = unit_of path and lib_module = i.Source.intf_library.Source.lib_module in
          (* The module named after its library is the library itself. *)
          let unit_path = if unit = lib_module then [ unit ] else [ lib_module; unit ] in
          let used kind p =
            List.exists (( <> ) impl) (Hashtbl.find_all users (kind ^ String.concat "." p))
          in
          List.iter
            (fun (rel, line) ->
              let full = unit_path @ rel in
              let enclosing =
                List.init (List.length full - 1) (fun n -> List.filteri (fun i _ -> i <= n) full)
              in
              if not (used "v:" full || List.exists (used "m:") enclosing) then
                emit
                  (mk "dead-export" warn path line
                     (String.concat "." (unit :: rel))
                     (Printf.sprintf
                        "%s is exported but nothing outside %s names it; delete it and \
                         whatever only it kept alive"
                        (String.concat "." full) impl)))
            (Facts.exports i.Source.intf_sig))
    tree.Source.interfaces

let evaluate ?(arch = default_arch) ?(tcb = default_tcb) (tree : Source.tree) : finding list =
  let out = ref [] in
  let emit f = out := f :: !out in
  let lib_of_module m =
    List.find_opt (fun (l : Source.lib) -> l.lib_module = m) tree.Source.libs
  in
  let repo_lib_names = List.map (fun (l : Source.lib) -> l.Source.lib_name) tree.Source.libs in
  (* Per-library checks: the dune file itself must not declare an edge
     the architecture forbids, and every library must be in the table. *)
  List.iter
    (fun (lib : Source.lib) ->
      match List.assoc_opt lib.Source.lib_name arch with
      | None ->
          emit
            (mk "layering" crit lib.Source.lib_dune 1 lib.Source.lib_name
               (Printf.sprintf
                  "library %S is not in the architecture table; add it (and its allowed \
                   dependencies) to the layering DAG deliberately"
                  lib.Source.lib_name))
      | Some allowed ->
          List.iter
            (fun dep ->
              if List.mem dep repo_lib_names && not (List.mem dep allowed) then
                emit
                  (mk "layering" crit lib.Source.lib_dune 1 dep
                     (Printf.sprintf
                        "dune declares dependency %s -> %s, an upward or cross edge the \
                         layering DAG forbids"
                        lib.Source.lib_name dep)))
            lib.Source.lib_deps)
    tree.Source.libs;
  (* Per-file checks. *)
  List.iter
    (fun (file : Source.file) ->
      let path = file.Source.path in
      let lib = file.Source.library in
      let tcb_file = in_tcb tcb path in
      (match file.Source.parse_error with
      | Some (line, msg) ->
          emit
            (mk "parse-error" crit path line (Filename.basename path)
               ("compiler front end rejected this file: " ^ msg))
      | None -> ());
      let facts = Facts.extract file.Source.ast in
      (* Executable scope ([bin/], [bench/]) gets the layering family
         (parse-error, layering, undeclared-dep) plus the tree-wide
         escape analysis below; the lib-only families — trusted-sink,
         domain-safety, hygiene — stay scoped to lib/ code. *)
      let exe = lib.Source.lib_exe in
      (* (1) trusted-sink *)
      if (not tcb_file) && not exe then
        List.iter
          (fun (sink, line) ->
            emit
              (mk "trusted-sink" crit path line sink
                 (Printf.sprintf
                    "raw physical-memory mutation outside the TCB allowlist; route this \
                     through a KSM call or add the file to the allowlist deliberately")))
          facts.Facts.sink_refs;
      (* (2) layering: module references vs the DAG and the dune file *)
      let allowed = Option.value ~default:[] (List.assoc_opt lib.Source.lib_name arch) in
      List.iter
        (fun (head, line) ->
          match lib_of_module head with
          | None -> () (* stdlib / compiler-libs / external *)
          | Some target when target.Source.lib_name = lib.Source.lib_name -> ()
          | Some target ->
              let tname = target.Source.lib_name in
              if not (List.mem tname allowed) then
                emit
                  (mk "layering" crit path line tname
                     (Printf.sprintf
                        "reference to library %s from %s is an upward or cross edge \
                         (allowed dependencies: %s)"
                        tname lib.Source.lib_name
                        (match allowed with [] -> "none" | l -> String.concat ", " l)))
              else if not (List.mem tname lib.Source.lib_deps) then
                emit
                  (mk "undeclared-dep" warn path line tname
                     (Printf.sprintf
                        "reference to library %s resolves only through dune's implicit \
                         transitive dependencies; declare it in %s"
                        tname lib.Source.lib_dune)))
        facts.Facts.module_refs;
      (* (3) domain-safety *)
      if not exe then begin
        List.iter
          (fun (tm : Facts.toplevel_mutable) ->
            emit
              (mk "domain-safety" warn path tm.Facts.tm_line tm.Facts.tm_name
                 (Printf.sprintf
                    "module-toplevel mutable state (%s) is a race hazard for domain \
                     sharding; thread it through machine/host state, use Atomic.t, or \
                     document it with [@@single_domain \"reason\"]"
                    tm.Facts.tm_kind)))
          facts.Facts.toplevel_mutables;
        List.iter
          (fun (name, line) ->
            emit
              (mk "undocumented-annotation" warn path line name
                 "[@@single_domain] carries no reason string; say why single-domain use \
                  is sound"))
          facts.Facts.undocumented_annots;
        List.iter
          (fun (name, line, suppresses) ->
            if not suppresses then
              emit
                (mk "stale-annotation" warn path line name
                   "[@@single_domain] on a binding that is not module-toplevel mutable \
                    state; the annotation suppresses nothing — remove it"))
          facts.Facts.single_domain_annots
      end;
      (* (4) hygiene *)
      if (not file.Source.has_mli) && not exe then
        emit
          (mk "missing-mli" warn path 1 (Filename.basename path)
             "no interface file; every lib/ module must state its API in a .mli");
      if tcb_file then begin
        List.iter
          (fun line ->
            emit
              (mk "tcb-unsafe" warn path line "Obj.magic"
                 "Obj.magic inside a TCB file defeats the type system where it matters most"))
          facts.Facts.obj_magics;
        List.iter
          (fun line ->
            emit
              (mk "tcb-unsafe" warn path line "assert-false"
                 "assert false inside a TCB file; make the impossible case a typed error"))
          facts.Facts.assert_falses
      end;
      let n_enter = List.length facts.Facts.gate_enters
      and n_exit = List.length facts.Facts.gate_exits in
      if n_enter <> n_exit && not exe then
        emit
          (mk "probe-pairing" warn path
             (match (facts.Facts.gate_enters, facts.Facts.gate_exits) with
             | l :: _, _ | [], l :: _ -> l
             | [], [] -> 1)
             "Gate_enter/Gate_exit"
             (Printf.sprintf
                "file constructs %d Gate_enter but %d Gate_exit probe events; every gate \
                 entry emission needs a matching exit emission"
                n_enter n_exit)))
    tree.Source.files;
  (* (5) domain-escape: the tree-wide interprocedural sharing analysis,
     plus the [@@domain_shared] annotation ledger it maintains. *)
  let esc = Escape.analyze tree in
  List.iter
    (fun (e : Escape.escape) ->
      emit
        (mk "domain-escape" crit e.Escape.e_file e.Escape.e_line e.Escape.e_name
           (Printf.sprintf
              "mutable value %s (%s, defined at %s:%d) is reachable from this \
               Domain.spawn closure%s and escapes its spawning domain; make it Atomic, \
               guard every closure use with Mutex.protect, thread it through per-lane \
               state, or bless the sharing with [@@domain_shared \"reason\"]"
              e.Escape.e_name e.Escape.e_kind e.Escape.e_def_file e.Escape.e_def_line
              (match e.Escape.e_via with Some v -> " via " ^ v | None -> ""))))
    esc.Escape.escapes;
  List.iter
    (fun (a : Escape.shared_annot) ->
      if not a.Escape.s_used then
        emit
          (mk "stale-annotation" warn a.Escape.s_file a.Escape.s_line a.Escape.s_name
             "[@@domain_shared] never sanctions a spawn capture of this binding; the \
              annotation is stale — remove it");
      if a.Escape.s_reason = Error () then
        emit
          (mk "undocumented-annotation" warn a.Escape.s_file a.Escape.s_line a.Escape.s_name
             "[@@domain_shared] carries no reason string; say why cross-domain sharing \
              of this value is sound"))
    esc.Escape.shared_annots;
  (* (6) dead-export *)
  dead_exports tree emit;
  (* Deduplicate identical (rule, file, symbol, line) — e.g. a module
     referenced from several syntactic positions on one line — then
     order by file and line for stable output. *)
  let seen = Hashtbl.create 64 in
  !out
  |> List.filter (fun f ->
         let key = (f.rule, f.file, f.symbol, f.line) in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.add seen key ();
           true
         end)
  |> List.sort (fun a b ->
         match String.compare a.file b.file with
         | 0 -> ( match compare a.line b.line with 0 -> String.compare a.rule b.rule | c -> c)
         | c -> c)
