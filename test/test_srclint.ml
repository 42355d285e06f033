(* Source-auditor tests.

   Fault-injection style, like test_analysis.ml: seed violating sources
   into a temporary tree and assert that each rule family fires with the
   right file:line span — and that the compliant variant stays silent.
   Plus a golden scan: the real repo must come back clean modulo the
   checked-in baseline, with an empty domain-safety baseline for
   lib/{hw,kernel,virt,core}. *)

open Alcotest

let check_bool = check bool

(* ------------------------------------------------------------------ *)
(* Temp-tree scaffolding                                               *)
(* ------------------------------------------------------------------ *)

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let write_file root rel content =
  let path = Filename.concat root rel in
  mkdirs (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* Build a throwaway tree from [(relative path, content)] pairs, run
   [f root], clean up even on failure. *)
let with_tree files f =
  let dir = Filename.temp_file "srclint_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      List.iter (fun (rel, content) -> write_file dir rel content) files;
      f dir)

let lib_dune ?(deps = []) name =
  Printf.sprintf "(library\n (name %s)\n (libraries %s))\n" name (String.concat " " deps)

let scan ?arch ?tcb files =
  with_tree files (fun root -> (Srclint.scan ?arch ?tcb ~root ()).Srclint.findings)

let fires name rule ~file ~line findings =
  check_bool
    (Printf.sprintf "%s: %s fires at %s:%d" name rule file line)
    true
    (List.exists
       (fun (f : Srclint.Rules.finding) ->
         f.Srclint.Rules.rule = rule && f.Srclint.Rules.file = file && f.Srclint.Rules.line = line)
       findings)

let silent name rule findings =
  check_bool
    (Printf.sprintf "%s: no %s finding" name rule)
    true
    (not (List.exists (fun (f : Srclint.Rules.finding) -> f.Srclint.Rules.rule = rule) findings))

(* ------------------------------------------------------------------ *)
(* (1) trusted-sink                                                    *)
(* ------------------------------------------------------------------ *)

let app_arch = [ ("app", []) ]

let test_sink_fires () =
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/evil.ml",
          "(* a compromised guest component *)\n\n\
           let smash mem = Hw.Phys_mem.write_entry mem ~pfn:0 ~index:0 0L\n" );
        ("lib/app/evil.mli", "val smash : 'a -> unit\n");
      ]
  in
  fires "raw write outside TCB" "trusted-sink" ~file:"lib/app/evil.ml" ~line:3 findings

let test_sink_open_fires () =
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/evil.ml", "open Hw.Phys_mem\n\nlet f mem = write_entry mem ~pfn:0 ~index:0 0L\n");
        ("lib/app/evil.mli", "val f : 'a -> unit\n");
      ]
  in
  fires "open of the sink module" "trusted-sink" ~file:"lib/app/evil.ml" ~line:1 findings

let test_sink_allowlisted_silent () =
  let findings =
    scan ~arch:app_arch ~tcb:[ "lib/app/" ]
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/trusted.ml", "let f mem = Hw.Phys_mem.write_entry mem ~pfn:0 ~index:0 0L\n");
        ("lib/app/trusted.mli", "val f : 'a -> unit\n");
      ]
  in
  silent "TCB file may write" "trusted-sink" findings

let test_sink_reads_silent () =
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/reader.ml", "let f mem = Hw.Phys_mem.read_entry mem ~pfn:0 ~index:0\n");
        ("lib/app/reader.mli", "val f : 'a -> int64\n");
      ]
  in
  silent "raw reads are not sinks" "trusted-sink" findings

(* ------------------------------------------------------------------ *)
(* (2) layering                                                        *)
(* ------------------------------------------------------------------ *)

let layered_arch = [ ("base", []); ("upper", [ "base" ]); ("top", [ "base"; "upper" ]) ]

let test_layering_upward_edge () =
  let findings =
    scan ~arch:layered_arch
      [
        ("lib/base/dune", lib_dune "base");
        ("lib/base/b.ml", "(* reaches up *)\nlet f () = Upper.secret ()\n");
        ("lib/base/b.mli", "val f : unit -> unit\n");
        ("lib/upper/dune", lib_dune ~deps:[ "base" ] "upper");
        ("lib/upper/u.ml", "let secret () = ()\n");
        ("lib/upper/u.mli", "val secret : unit -> unit\n");
      ]
  in
  fires "upward reference" "layering" ~file:"lib/base/b.ml" ~line:2 findings

let test_layering_sanctioned_edge_silent () =
  let findings =
    scan ~arch:layered_arch
      [
        ("lib/base/dune", lib_dune "base");
        ("lib/base/b.ml", "let v = 1\n");
        ("lib/base/b.mli", "val v : int\n");
        ("lib/upper/dune", lib_dune ~deps:[ "base" ] "upper");
        ("lib/upper/u.ml", "let f () = Base.v\n");
        ("lib/upper/u.mli", "val f : unit -> int\n");
      ]
  in
  silent "sanctioned downward edge" "layering" findings;
  silent "declared dep" "undeclared-dep" findings

let test_layering_undeclared_dep () =
  (* top may use base per the DAG, but its dune only declares upper —
     the reference resolves through implicit transitive deps. *)
  let findings =
    scan ~arch:layered_arch
      [
        ("lib/base/dune", lib_dune "base");
        ("lib/base/b.ml", "let v = 1\n");
        ("lib/base/b.mli", "val v : int\n");
        ("lib/upper/dune", lib_dune ~deps:[ "base" ] "upper");
        ("lib/upper/u.ml", "let f () = Base.v\n");
        ("lib/upper/u.mli", "val f : unit -> int\n");
        ("lib/top/dune", lib_dune ~deps:[ "upper" ] "top");
        ("lib/top/t.ml", "let g () = Base.v + Upper.f ()\n");
        ("lib/top/t.mli", "val g : unit -> int\n");
      ]
  in
  fires "transitive-only reference" "undeclared-dep" ~file:"lib/top/t.ml" ~line:1 findings

let test_layering_dune_drift () =
  (* The dune file itself declares a forbidden edge, even though no
     source references it yet. *)
  let findings =
    scan ~arch:layered_arch
      [
        ("lib/base/dune", lib_dune ~deps:[ "upper" ] "base");
        ("lib/base/b.ml", "let v = 1\n");
        ("lib/base/b.mli", "val v : int\n");
        ("lib/upper/dune", lib_dune ~deps:[ "base" ] "upper");
        ("lib/upper/u.ml", "let secret () = ()\n");
        ("lib/upper/u.mli", "val secret : unit -> unit\n");
      ]
  in
  fires "dune declares forbidden edge" "layering" ~file:"lib/base/dune" ~line:1 findings

let test_layering_unknown_library () =
  let findings =
    scan ~arch:layered_arch
      [
        ("lib/rogue/dune", lib_dune "rogue");
        ("lib/rogue/r.ml", "let v = 1\n");
        ("lib/rogue/r.mli", "val v : int\n");
      ]
  in
  fires "library missing from the DAG" "layering" ~file:"lib/rogue/dune" ~line:1 findings

(* ------------------------------------------------------------------ *)
(* (3) domain-safety                                                   *)
(* ------------------------------------------------------------------ *)

let test_domain_safety_fires () =
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/state.ml",
          "let table = Hashtbl.create 16\n\
           let counter = ref 0\n\n\
           type cell = { mutable v : int }\n\n\
           let shared = { v = 0 }\n" );
        ("lib/app/state.mli", "val table : (int, int) Hashtbl.t\nval counter : int ref\n");
      ]
  in
  fires "toplevel Hashtbl" "domain-safety" ~file:"lib/app/state.ml" ~line:1 findings;
  fires "toplevel ref" "domain-safety" ~file:"lib/app/state.ml" ~line:2 findings;
  fires "toplevel mutable record" "domain-safety" ~file:"lib/app/state.ml" ~line:6 findings

let test_domain_safety_safe_forms_silent () =
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/state.ml",
          "let next_id = Atomic.make 0\n\n\
           let fresh_table () = Hashtbl.create 16\n\n\
           type cfg = { depth : int }\n\n\
           let default = { depth = 4 }\n\n\
           let documented = ref 0 [@@single_domain \"test-only scratch state\"]\n" );
        ("lib/app/state.mli", "val next_id : int Atomic.t\n");
      ]
  in
  silent "Atomic / closures / immutable records / documented" "domain-safety" findings

let test_domain_safety_undocumented_annotation () =
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/state.ml", "let sneaky = ref 0 [@@single_domain]\n");
        ("lib/app/state.mli", "val sneaky : int ref\n");
      ]
  in
  fires "annotation without a reason" "undocumented-annotation" ~file:"lib/app/state.ml" ~line:1
    findings

(* ------------------------------------------------------------------ *)
(* (4) hygiene                                                         *)
(* ------------------------------------------------------------------ *)

let test_hygiene_missing_mli () =
  let findings =
    scan ~arch:app_arch
      [ ("lib/app/dune", lib_dune "app"); ("lib/app/naked.ml", "let v = 1\n") ]
  in
  fires "no interface file" "missing-mli" ~file:"lib/app/naked.ml" ~line:1 findings

let test_hygiene_tcb_unsafe () =
  let findings =
    scan ~arch:app_arch ~tcb:[ "lib/app/" ]
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/monitor.ml",
          "let coerce x = Obj.magic x\n\nlet impossible () = assert false\n" );
        ("lib/app/monitor.mli", "val coerce : 'a -> 'b\nval impossible : unit -> 'a\n");
      ]
  in
  fires "Obj.magic in TCB" "tcb-unsafe" ~file:"lib/app/monitor.ml" ~line:1 findings;
  fires "assert false in TCB" "tcb-unsafe" ~file:"lib/app/monitor.ml" ~line:3 findings;
  (* outside the TCB the same text is silent *)
  let findings =
    scan ~arch:app_arch ~tcb:[]
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/monitor.ml", "let coerce x = Obj.magic x\n");
        ("lib/app/monitor.mli", "val coerce : 'a -> 'b\n");
      ]
  in
  silent "Obj.magic outside TCB" "tcb-unsafe" findings

let test_hygiene_probe_pairing () =
  let enter = "Hw.Probe.emit (Hw.Probe.Gate_enter { cpu = 0; gate; pkrs = 1 })" in
  let exit_ = "Hw.Probe.emit (Hw.Probe.Gate_exit { cpu = 0; gate; entry_pkrs = 1; pkrs = 0 })" in
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/gates.ml", Printf.sprintf "let enter gate = %s\n" enter);
        ("lib/app/gates.mli", "val enter : Hw.Probe.gate -> unit\n");
      ]
  in
  fires "enter without exit" "probe-pairing" ~file:"lib/app/gates.ml" ~line:1 findings;
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/gates.ml",
          Printf.sprintf "let enter gate = %s\nlet exit_ gate = %s\n" enter exit_ );
        ("lib/app/gates.mli", "val enter : Hw.Probe.gate -> unit\nval exit_ : Hw.Probe.gate -> unit\n");
      ]
  in
  silent "paired emissions" "probe-pairing" findings

let test_parse_error_reported () =
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/broken.ml", "let = in garbage ))\n");
        ("lib/app/broken.mli", "")
      ]
  in
  fires "unparseable file" "parse-error" ~file:"lib/app/broken.ml" ~line:1 findings

(* ------------------------------------------------------------------ *)
(* (5) domain-escape: the interprocedural sharing analysis             *)
(* ------------------------------------------------------------------ *)

let ml lines = String.concat "\n" lines ^ "\n"

let test_escape_shared_ref_fires () =
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/racy.ml",
          ml
            [
              "let t () =";
              "  let r = ref 0 in";
              "  let a = Domain.spawn (fun () -> r := 1) in";
              "  let b = Domain.spawn (fun () -> r := 2) in";
              "  Domain.join a;";
              "  Domain.join b;";
              "  !r";
            ] );
        ("lib/app/racy.mli", "val t : unit -> int\n");
      ]
  in
  fires "ref captured by first sibling" "domain-escape" ~file:"lib/app/racy.ml" ~line:3 findings;
  fires "ref captured by second sibling" "domain-escape" ~file:"lib/app/racy.ml" ~line:4 findings

let test_escape_mutable_field_fires () =
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/cellular.ml",
          ml
            [
              "type cell = { mutable v : int }";
              "";
              "let t () =";
              "  let c = { v = 0 } in";
              "  let a = Domain.spawn (fun () -> c.v <- 1) in";
              "  let b = Domain.spawn (fun () -> c.v <- 2) in";
              "  Domain.join a;";
              "  Domain.join b;";
              "  c.v";
            ] );
        ("lib/app/cellular.mli", "val t : unit -> int\n");
      ]
  in
  fires "mutable record shared by siblings" "domain-escape" ~file:"lib/app/cellular.ml" ~line:5
    findings

let test_escape_bigarray_replicated_fires () =
  (* A single spawn site inside an [Array.init] closure is replicated:
     every sibling captures the same Bigarray. *)
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/biga.ml",
          ml
            [
              "let t () =";
              "  let big = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 8 in";
              "  let ds = Array.init 2 (fun i -> Domain.spawn (fun () -> Bigarray.Array1.set big i i)) in";
              "  Array.iter Domain.join ds";
            ] );
        ("lib/app/biga.mli", "val t : unit -> unit\n");
      ]
  in
  fires "Bigarray captured by replicated spawn" "domain-escape" ~file:"lib/app/biga.ml" ~line:3
    findings

let test_escape_interprocedural_fires () =
  (* The spawn closure reaches another module's toplevel hashtable only
     through a call chain. *)
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/state.ml", "let table = Hashtbl.create 16\n");
        ("lib/app/state.mli", "val table : (int, int) Hashtbl.t\n");
        ( "lib/app/eng.ml",
          ml
            [
              "let bump k = Hashtbl.replace State.table k k";
              "";
              "let t () =";
              "  let d = Domain.spawn (fun () -> bump 1) in";
              "  Domain.join d";
            ] );
        ("lib/app/eng.mli", "val bump : int -> unit\nval t : unit -> unit\n");
      ]
  in
  fires "global reached via call chain" "domain-escape" ~file:"lib/app/eng.ml" ~line:4 findings;
  check_bool "finding names the escaping global" true
    (List.exists
       (fun (f : Srclint.Rules.finding) ->
         f.Srclint.Rules.rule = "domain-escape" && f.Srclint.Rules.symbol = "table")
       findings)

let test_escape_sanctioned_forms_silent () =
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/safe.ml",
          ml
            [
              "let t () =";
              "  let n = Atomic.make 0 in";
              "  let m = Mutex.create () in";
              "  let r = ref 0 in";
              "  let tbl = Hashtbl.create 8 [@@domain_shared \"slots are per-lane disjoint\"] in";
              "  let a = Domain.spawn (fun () -> Atomic.incr n; Mutex.protect m (fun () -> incr r); Hashtbl.replace tbl 1 1) in";
              "  let b = Domain.spawn (fun () -> Atomic.incr n; Mutex.protect m (fun () -> incr r); Hashtbl.replace tbl 2 2) in";
              "  Domain.join a;";
              "  Domain.join b";
            ] );
        ("lib/app/safe.mli", "val t : unit -> unit\n");
      ]
  in
  silent "Atomic / Mutex.protect / domain_shared" "domain-escape" findings;
  silent "used annotation is not stale" "stale-annotation" findings

let test_escape_sole_transfer_silent () =
  (* Handing a local mutable wholesale to one spawn is a transfer, not
     sharing — but touching it from the parent afterwards is. *)
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/handoff.ml",
          ml
            [
              "let t () =";
              "  let r = ref 0 in";
              "  let d = Domain.spawn (fun () -> r := 1; !r) in";
              "  Domain.join d";
            ] );
        ("lib/app/handoff.mli", "val t : unit -> int\n");
      ]
  in
  silent "sole transfer" "domain-escape" findings;
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/parent.ml",
          ml
            [
              "let t () =";
              "  let r = ref 0 in";
              "  let d = Domain.spawn (fun () -> incr r) in";
              "  r := 1;";
              "  Domain.join d";
            ] );
        ("lib/app/parent.mli", "val t : unit -> unit\n");
      ]
  in
  fires "closure plus spawning domain" "domain-escape" ~file:"lib/app/parent.ml" ~line:3 findings

let test_escape_annotation_ledger () =
  (* Stale [@@domain_shared]: sanctions nothing. *)
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/s.ml", "let tbl = Hashtbl.create 8 [@@domain_shared \"never shared\"]\n");
        ("lib/app/s.mli", "val tbl : (int, int) Hashtbl.t\n");
      ]
  in
  fires "unused domain_shared is stale" "stale-annotation" ~file:"lib/app/s.ml" ~line:1 findings;
  (* Stale [@@single_domain]: the binding isn't mutable state. *)
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/s.ml", "let immut = 42 [@@single_domain \"pointless\"]\n");
        ("lib/app/s.mli", "val immut : int\n");
      ]
  in
  fires "single_domain on immutable binding is stale" "stale-annotation" ~file:"lib/app/s.ml"
    ~line:1 findings;
  (* Undocumented [@@domain_shared]: sanctions the capture but needs a
     reason. *)
  let findings =
    scan ~arch:app_arch
      [
        ("lib/app/dune", lib_dune "app");
        ( "lib/app/s.ml",
          ml
            [
              "let t () =";
              "  let r = ref 0 [@@domain_shared] in";
              "  let a = Domain.spawn (fun () -> incr r) in";
              "  let b = Domain.spawn (fun () -> incr r) in";
              "  Domain.join a;";
              "  Domain.join b";
            ] );
        ("lib/app/s.mli", "val t : unit -> unit\n");
      ]
  in
  silent "annotation still sanctions the capture" "domain-escape" findings;
  fires "but without a reason it is undocumented" "undocumented-annotation" ~file:"lib/app/s.ml"
    ~line:2 findings

(* ------------------------------------------------------------------ *)
(* (6) executable scope                                                *)
(* ------------------------------------------------------------------ *)

let exe_arch = [ ("app", []); ("bin", [ "app" ]) ]

let test_exe_scope_layering () =
  let findings =
    scan ~arch:exe_arch
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/a.ml", "let v = 1\n");
        ("lib/app/a.mli", "val v : int\n");
        ("bin/dune", "(executable\n (name demo)\n (libraries))\n");
        ("bin/demo.ml", "let () = print_int App.A.v\n");
      ]
  in
  fires "exe reference not declared in its dune" "undeclared-dep" ~file:"bin/demo.ml" ~line:1
    findings;
  (* The lib-only families stay out of executable scope. *)
  silent "no missing-mli for executables" "missing-mli" findings

let test_exe_scope_forbidden_edge () =
  let findings =
    scan ~arch:[ ("app", []); ("bin", []) ]
      [
        ("lib/app/dune", lib_dune "app");
        ("lib/app/a.ml", "let v = 1\n");
        ("lib/app/a.mli", "val v : int\n");
        ("bin/dune", "(executable\n (name demo)\n (libraries app))\n");
        ("bin/demo.ml", "let () = print_int App.A.v\n");
      ]
  in
  fires "edge the DAG forbids, declared in the exe dune" "layering" ~file:"bin/dune" ~line:1
    findings

(* ------------------------------------------------------------------ *)
(* (7) dead-export                                                     *)
(* ------------------------------------------------------------------ *)

(* Library [app] exports [M.f] at the top level and [M.Sub.g] inside a
   [module Sub : sig]; each case adds the callers under test.  [m.ml]
   names both the way a caller would, and that still counts for
   nothing: the module's own implementation is not a caller. *)
let export_arch = [ ("app", []); ("user", [ "app" ]) ]

let exporting callers =
  scan ~arch:export_arch
    ([
       ("lib/app/dune", lib_dune "app");
       ( "lib/app/m.ml",
         "let f () = 1\nmodule Sub = struct let g () = 2 end\nlet _ = App.M.f () + M.Sub.g ()\n" );
       ("lib/app/m.mli", "val f : unit -> int\n\nmodule Sub : sig\n  val g : unit -> int\nend\n");
     ]
    @ callers)

let user code =
  [
    ("lib/user/dune", lib_dune ~deps:[ "app" ] "user");
    ("lib/user/u.ml", code);
    ("lib/user/u.mli", "");
  ]

let test_dead_export_fires () =
  (* The only use is the module's own implementation. *)
  let findings = exporting [] in
  fires "unused top-level val" "dead-export" ~file:"lib/app/m.mli" ~line:1 findings;
  fires "unused val in module X : sig" "dead-export" ~file:"lib/app/m.mli" ~line:4 findings;
  check_bool "symbol is the module path" true
    (List.exists
       (fun (f : Srclint.Rules.finding) ->
         f.Srclint.Rules.rule = "dead-export" && f.Srclint.Rules.symbol = "M.Sub.g")
       findings);
  (* A caller of [f] alone leaves [Sub.g] dead. *)
  let findings = exporting (user "let x = App.M.f ()\n") in
  fires "partly used module" "dead-export" ~file:"lib/app/m.mli" ~line:4 findings;
  check_bool "the used val is silent" true
    (not
       (List.exists
          (fun (f : Srclint.Rules.finding) ->
            f.Srclint.Rules.rule = "dead-export" && f.Srclint.Rules.line = 1)
          findings))

let test_dead_export_uses_silent () =
  List.iter
    (fun (name, callers) -> silent name "dead-export" (exporting callers))
    [
      ("library-qualified path", user "let x = App.M.f () + App.M.Sub.g ()\n");
      ( "bare path inside the library",
        [ ("lib/app/n.ml", "let x = M.f () + M.Sub.g ()\n"); ("lib/app/n.mli", "") ] );
      ("module aliases", user "module A = App.M\nmodule S = A.Sub\nlet x = A.f () + S.g ()\n");
      ("let module alias", user "let x = let module S = App.M.Sub in S.g () + App.M.f ()\n");
      ("structure open", user "open App\nopen M\nlet x = f () + Sub.g ()\n");
      ("let open", user "let x = let open App.M in f () + Sub.g ()\n");
      ("local open M.( ... )", user "let x = App.M.(f () + Sub.g ())\n");
      ("include", user "include App.M\n");
      ("functor argument", user "module F (X : sig end) = struct end\nmodule G = F (App.M)\n");
      ("test/ caller", [ ("test/t.ml", "let x = App.M.f () + App.M.Sub.g ()\n") ]);
      ("perfbench/ caller", [ ("perfbench/p.ml", "let x = App.M.f () + App.M.Sub.g ()\n") ]);
      ("examples/ caller", [ ("examples/e.ml", "let x = App.M.f () + App.M.Sub.g ()\n") ]);
    ];
  (* [@@deriving show, eq] code calls [M.pp_u] and [M.equal] for the
     types [M.u] and [M.t] it names. *)
  silent "deriving-generated calls" "dead-export"
    (scan ~arch:export_arch
       ([
          ("lib/app/dune", lib_dune "app");
          ( "lib/app/m.ml",
            "type t = int\ntype u = int\nlet equal = Int.equal\nlet pp_u = Format.pp_print_int\n" );
          ( "lib/app/m.mli",
            "type t\ntype u\nval equal : t -> t -> bool\nval pp_u : Format.formatter -> u -> unit\n" );
        ]
       @ user "type r = { a : App.M.t; b : App.M.u } [@@deriving show, eq]\n"))

let test_dead_export_reference_only_scope () =
  (* A reference-only file is read for its callers and audited by
     nothing: a missing interface and a forbidden edge stay silent. *)
  let findings = exporting [ ("test/t.ml", "let x = App.M.f () + App.M.Sub.g ()\n") ] in
  silent "no missing-mli in test/" "missing-mli" findings;
  silent "no layering in test/" "layering" findings

(* ------------------------------------------------------------------ *)
(* Baseline mechanics                                                  *)
(* ------------------------------------------------------------------ *)

let test_baseline_apply () =
  with_tree
    [
      ("lib/app/dune", lib_dune "app");
      ( "lib/app/evil.ml",
        "let smash mem = Hw.Phys_mem.write_entry mem ~pfn:0 ~index:0 0L\n" );
      ("lib/app/evil.mli", "val smash : 'a -> unit\n");
      ( "accepted.baseline",
        "# comment lines and blanks are fine\n\n\
         trusted-sink lib/app/evil.ml Hw.Phys_mem.write_entry\n\
         trusted-sink lib/app/gone.ml Hw.Phys_mem.write_entry  # stale\n" );
    ]
    (fun root ->
      let s = Srclint.scan ~arch:app_arch ~root () in
      let entries =
        match Srclint.Baseline.load (Filename.concat root "accepted.baseline") with
        | Ok e -> e
        | Error m -> fail m
      in
      let chk = Srclint.check ~baseline:entries s.Srclint.findings in
      check int "sink finding accepted by baseline" 1 (List.length chk.Srclint.baselined);
      check_bool "no fresh trusted-sink" true
        (not
           (List.exists
              (fun (f : Srclint.Rules.finding) -> f.Srclint.Rules.rule = "trusted-sink")
              chk.Srclint.fresh));
      check int "stale entry detected" 1 (List.length chk.Srclint.stale);
      match chk.Srclint.stale with
      | [ e ] -> check string "stale file" "lib/app/gone.ml" e.Srclint.Baseline.file
      | _ -> fail "expected exactly one stale entry")

let test_baseline_malformed () =
  with_tree
    [ ("bad.baseline", "trusted-sink lib/app/evil.ml\n") ]
    (fun root ->
      match Srclint.Baseline.load (Filename.concat root "bad.baseline") with
      | Ok _ -> fail "two-field line must be rejected"
      | Error msg -> check_bool "error names the file" true (String.length msg > 0))

(* ------------------------------------------------------------------ *)
(* Golden: the real repo                                               *)
(* ------------------------------------------------------------------ *)

(* Everything the domain-sharded serve engine executes inside a worker
   domain must be domain-safety-clean: the hardware/kernel/virt/core
   stack plus the ioplane harness itself and the analysis recorder its
   probe streams land in. *)
let core_dirs =
  [ "lib/hw/"; "lib/kernel/"; "lib/virt/"; "lib/core/"; "lib/ioplane/"; "lib/analysis/" ]

let in_core (file : string) =
  List.exists
    (fun d -> String.length file >= String.length d && String.sub file 0 (String.length d) = d)
    core_dirs

let test_golden_repo_clean () =
  let root = Srclint.find_root_exn () in
  let s = Srclint.scan ~root () in
  check_bool "scanned a real tree (>50 files)" true (s.Srclint.stats.Srclint.files > 50);
  let entries =
    match Srclint.Baseline.load (Filename.concat root "srclint.baseline") with
    | Ok e -> e
    | Error m -> fail m
  in
  let chk = Srclint.check ~baseline:entries s.Srclint.findings in
  (match chk.Srclint.fresh with
  | [] -> ()
  | fs ->
      fail
        (Printf.sprintf "repo must scan clean modulo baseline, got:\n%s"
           (Report.Findings.render ~title:"srclint" (Srclint.to_findings fs))));
  check int "no stale baseline entries" 0 (List.length chk.Srclint.stale)

let test_golden_domain_safety_core_empty () =
  (* The satellite fixes promise: no domain-safety debt — baselined or
     live — anywhere in lib/{hw,kernel,virt,core}. *)
  let root = Srclint.find_root_exn () in
  let s = Srclint.scan ~root () in
  let entries =
    match Srclint.Baseline.load (Filename.concat root "srclint.baseline") with
    | Ok e -> e
    | Error m -> fail m
  in
  List.iter
    (fun (e : Srclint.Baseline.entry) ->
      check_bool
        (Printf.sprintf "baseline has no domain-safety entry in core dirs (%s)" e.Srclint.Baseline.file)
        true
        (not (e.Srclint.Baseline.rule = "domain-safety" && in_core e.Srclint.Baseline.file)))
    entries;
  List.iter
    (fun (f : Srclint.Rules.finding) ->
      check_bool
        (Printf.sprintf "no domain-safety finding in core dirs (%s:%d)" f.Srclint.Rules.file
           f.Srclint.Rules.line)
        true
        (not (f.Srclint.Rules.rule = "domain-safety" && in_core f.Srclint.Rules.file)))
    s.Srclint.findings

let suite =
  [
    ( "srclint-sink",
      [
        test_case "raw write outside TCB fires" `Quick test_sink_fires;
        test_case "open of sink module fires" `Quick test_sink_open_fires;
        test_case "allowlisted TCB file is silent" `Quick test_sink_allowlisted_silent;
        test_case "raw reads are silent" `Quick test_sink_reads_silent;
      ] );
    ( "srclint-layering",
      [
        test_case "upward edge fires" `Quick test_layering_upward_edge;
        test_case "sanctioned edge is silent" `Quick test_layering_sanctioned_edge_silent;
        test_case "transitive-only dep fires" `Quick test_layering_undeclared_dep;
        test_case "dune drift fires" `Quick test_layering_dune_drift;
        test_case "unknown library fires" `Quick test_layering_unknown_library;
      ] );
    ( "srclint-domain-safety",
      [
        test_case "toplevel mutable state fires" `Quick test_domain_safety_fires;
        test_case "safe forms are silent" `Quick test_domain_safety_safe_forms_silent;
        test_case "undocumented annotation fires" `Quick test_domain_safety_undocumented_annotation;
      ] );
    ( "srclint-hygiene",
      [
        test_case "missing mli fires" `Quick test_hygiene_missing_mli;
        test_case "Obj.magic / assert false in TCB fire" `Quick test_hygiene_tcb_unsafe;
        test_case "unpaired gate probes fire" `Quick test_hygiene_probe_pairing;
        test_case "parse errors become findings" `Quick test_parse_error_reported;
      ] );
    ( "srclint-escape",
      [
        test_case "shared ref across siblings fires" `Quick test_escape_shared_ref_fires;
        test_case "mutable record field fires" `Quick test_escape_mutable_field_fires;
        test_case "replicated Bigarray capture fires" `Quick test_escape_bigarray_replicated_fires;
        test_case "call chain to global fires" `Quick test_escape_interprocedural_fires;
        test_case "sanctioned forms are silent" `Quick test_escape_sanctioned_forms_silent;
        test_case "sole transfer vs parent use" `Quick test_escape_sole_transfer_silent;
        test_case "annotation ledger" `Quick test_escape_annotation_ledger;
      ] );
    ( "srclint-exe-scope",
      [
        test_case "undeclared dep fires, lib families don't" `Quick test_exe_scope_layering;
        test_case "forbidden edge fires from exe dune" `Quick test_exe_scope_forbidden_edge;
      ] );
    ( "srclint-dead-export",
      [
        test_case "unused val fires" `Quick test_dead_export_fires;
        test_case "every kind of use is silent" `Quick test_dead_export_uses_silent;
        test_case "reference-only scopes are not audited" `Quick
          test_dead_export_reference_only_scope;
      ] );
    ( "srclint-baseline",
      [
        test_case "apply partitions and finds stale" `Quick test_baseline_apply;
        test_case "malformed line rejected" `Quick test_baseline_malformed;
      ] );
    ( "srclint-golden",
      [
        test_case "repo scans clean modulo baseline" `Quick test_golden_repo_clean;
        test_case "core dirs carry no domain-safety debt" `Quick test_golden_domain_safety_core_empty;
      ] );
  ]
