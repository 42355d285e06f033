(* Source-tree model: find the repo root, enumerate the dune libraries
   under lib/, and parse every implementation and interface file (plus
   the callers in the executable and reference-only scopes) with the installed
   compiler's own front end (compiler-libs), so the auditor sees the
   exact AST the build sees — ppx attributes and all (attributes parse
   without running the rewriters; the auditor never typechecks). *)

type lib = {
  lib_name : string;  (** dune library name, e.g. ["kernel_model"] *)
  lib_dir : string;  (** repo-relative, e.g. ["lib/kernel"] *)
  lib_module : string;  (** wrapped root module, e.g. ["Kernel_model"];
                            [""] for executable scope *)
  lib_deps : string list;  (** the dune [(libraries ...)] field, verbatim *)
  lib_dune : string;  (** repo-relative path of the dune file *)
  lib_exe : bool;
      (** executable scope ([bin/], [bench/]): a pseudo-library carrying
          the dune [(executable ...)] stanzas of one directory, scanned
          for the layering/escape rule families only *)
}

type file = {
  path : string;  (** repo-relative, forward slashes *)
  library : lib;
  loc : int;  (** physical source lines *)
  has_mli : bool;
  ast : Parsetree.structure;  (** empty when the parse failed *)
  parse_error : (int * string) option;  (** line, message *)
}

type intf = {
  intf_path : string;  (** repo-relative [.mli] *)
  intf_library : lib;
  intf_sig : Parsetree.signature;  (** empty when the parse failed *)
  intf_error : (int * string) option;
}

type tree = {
  root : string;
  libs : lib list;
  files : file list;
  interfaces : intf list;
  referrers : file list;
}

(* ------------------------------------------------------------------ *)
(* Root discovery                                                      *)
(* ------------------------------------------------------------------ *)

(* Walk up from [from] until a directory holding both [dune-project]
   and a [lib/] subdirectory appears.  Works from a checkout root and
   from inside dune's [_build/default] copy of the tree (which is where
   `dune runtest` executes), since dune copies both markers there. *)
let find_root ?from () =
  let start = match from with Some d -> d | None -> Sys.getcwd () in
  let is_root dir =
    Sys.file_exists (Filename.concat dir "dune-project")
    && (try Sys.is_directory (Filename.concat dir "lib") with Sys_error _ -> false)
  in
  let rec go dir =
    if is_root dir then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else go parent
  in
  go start

let find_root_exn ?from () =
  match find_root ?from () with
  | Some r -> r
  | None -> failwith "srclint: no repo root (dune-project + lib/) above the current directory"

(* ------------------------------------------------------------------ *)
(* Dune-file interpretation                                            *)
(* ------------------------------------------------------------------ *)

let atom_of = function Sexp.Atom a -> Some a | Sexp.List _ -> None

(* Pull [(name X)] and [(libraries ...)] out of a [(library ...)]
   stanza; non-library stanzas (rules, tests) yield nothing. *)
let library_of_stanza = function
  | Sexp.List (Sexp.Atom "library" :: fields) ->
      let name = ref None and deps = ref [] in
      List.iter
        (function
          | Sexp.List (Sexp.Atom "name" :: Sexp.Atom n :: _) -> name := Some n
          | Sexp.List (Sexp.Atom "libraries" :: ds) ->
              deps := List.filter_map atom_of ds
          | _ -> ())
        fields;
      Option.map (fun n -> (n, !deps)) !name
  | _ -> None

(* Pull the [(libraries ...)] out of an [(executable ...)] /
   [(executables ...)] stanza. *)
let executable_libraries_of_stanza = function
  | Sexp.List (Sexp.Atom ("executable" | "executables") :: fields) ->
      let deps = ref None in
      List.iter
        (function
          | Sexp.List (Sexp.Atom "libraries" :: ds) ->
              deps := Some (List.filter_map atom_of ds)
          | _ -> ())
        fields;
      Some (Option.value ~default:[] !deps)
  | _ -> None

let module_of_lib_name name = String.capitalize_ascii name

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let count_lines content =
  let lines = ref 0 in
  String.iter (fun c -> if c = '\n' then incr lines) content;
  if String.length content > 0 && content.[String.length content - 1] <> '\n' then incr lines;
  !lines

let parse parser ~path content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf path;
  try Ok (parser lexbuf)
  with exn ->
    let line =
      match exn with
      | Syntaxerr.Error e -> (Syntaxerr.location_of_error e).Location.loc_start.Lexing.pos_lnum
      | _ -> lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum
    in
    Error (line, Printexc.to_string exn)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Tree enumeration                                                    *)
(* ------------------------------------------------------------------ *)

let sorted_dir path = Sys.readdir path |> Array.to_list |> List.sort String.compare

(* Executable directories scanned as pseudo-libraries: parse-error,
   layering and domain-escape apply there too (the demo driver and the
   bench harness reference every library), while the lib-only families
   (missing-mli, domain-safety, TCB hygiene) do not. *)
let exe_dirs = [ "bin"; "bench" ]

(* Reference-only directories: parsed solely so the dead-export rule
   sees their callers; no rule family audits them. *)
let ref_dirs = [ "examples"; "perfbench"; "test" ]

let is_dir path = try Sys.is_directory path with Sys_error _ -> false

let load_tree ~root =
  let libdir = Filename.concat root "lib" in
  let libs =
    sorted_dir libdir
    |> List.filter_map (fun entry ->
           let dir = Filename.concat libdir entry in
           let dune = Filename.concat dir "dune" in
           if is_dir dir && Sys.file_exists dune then
             match List.find_map library_of_stanza (Sexp.parse_file dune) with
             | Some (name, deps) ->
                 Some
                   {
                     lib_name = name;
                     lib_dir = "lib/" ^ entry;
                     lib_module = module_of_lib_name name;
                     lib_deps = deps;
                     lib_dune = "lib/" ^ entry ^ "/dune";
                     lib_exe = false;
                   }
             | None -> None
           else None)
  in
  let exes =
    exe_dirs
    |> List.filter_map (fun entry ->
           let dir = Filename.concat root entry in
           let dune = Filename.concat dir "dune" in
           if is_dir dir && Sys.file_exists dune then
             match List.filter_map executable_libraries_of_stanza (Sexp.parse_file dune) with
             | [] -> None
             | per_stanza ->
                 Some
                   {
                     lib_name = entry;
                     lib_dir = entry;
                     (* No wrapped root module: nothing references an
                        executable, so this must never match a path head. *)
                     lib_module = "";
                     lib_deps = List.concat per_stanza |> List.sort_uniq String.compare;
                     lib_dune = entry ^ "/dune";
                     lib_exe = true;
                   }
           else None)
  in
  let libs = libs @ exes in
  let sources suffix lib =
    let dir = Filename.concat root lib.lib_dir in
    sorted_dir dir
    (* .pp.ml are ppx-expanded build artifacts, not sources *)
    |> List.filter (fun f ->
           Filename.check_suffix f suffix && not (Filename.check_suffix f (".pp" ^ suffix)))
    |> List.map (fun f -> (lib.lib_dir ^ "/" ^ f, read_file (Filename.concat dir f)))
  in
  let parse_file lib (path, content) =
    let ast, parse_error =
      match parse Parse.implementation ~path content with
      | Ok ast -> (ast, None)
      | Error e -> ([], Some e)
    in
    {
      path;
      library = lib;
      loc = count_lines content;
      has_mli = Sys.file_exists (Filename.concat root (Filename.chop_suffix path ".ml" ^ ".mli"));
      ast;
      parse_error;
    }
  in
  let files = List.concat_map (fun lib -> List.map (parse_file lib) (sources ".ml" lib)) libs in
  let interfaces =
    List.filter (fun l -> not l.lib_exe) libs
    |> List.concat_map (fun lib ->
           List.map
             (fun (path, content) ->
               let intf_sig, intf_error =
                 match parse Parse.interface ~path content with
                 | Ok s -> (s, None)
                 | Error e -> ([], Some e)
               in
               { intf_path = path; intf_library = lib; intf_sig; intf_error })
             (sources ".mli" lib))
  in
  let referrers =
    ref_dirs
    |> List.filter (fun d -> is_dir (Filename.concat root d))
    |> List.concat_map (fun d ->
           let lib =
             { lib_name = d; lib_dir = d; lib_module = ""; lib_deps = []; lib_dune = d ^ "/dune";
               lib_exe = true }
           in
           List.map (parse_file lib) (sources ".ml" lib))
  in
  { root; libs; files; interfaces; referrers }
