(* Per-file fact extraction over the compiler-libs AST.

   One [Ast_iterator] pass collects everything the rule families need:
   cross-library module references, raw-memory write-sink mentions,
   [Gate_enter]/[Gate_exit] constructions, [Obj.magic] / [assert false]
   occurrences; a separate shallow walk over structure items inventories
   module-toplevel mutable state (the domain-sharding race hazards),
   honouring the [@@single_domain "reason"] escape hatch.  For the
   dead-export rule, [exports] lists an interface's values and [uses]
   every value and module path an implementation names. *)

open Asttypes
open Parsetree

type toplevel_mutable = {
  tm_name : string;  (** the binding's name *)
  tm_kind : string;  (** what made it mutable, e.g. ["ref"] *)
  tm_line : int;
}

type t = {
  module_refs : (string * int) list;
      (** head module of every dotted path, with the first line it
          appears on — deduplicated per head *)
  sink_refs : (string * int) list;  (** raw-memory write sinks, every occurrence *)
  toplevel_mutables : toplevel_mutable list;
  undocumented_annots : (string * int) list;
      (** [@@single_domain] without a reason string *)
  single_domain_annots : (string * int * bool) list;
      (** every toplevel [@@single_domain] annotation as
          (binding, line, suppresses): [suppresses] is true when the
          binding really is module-toplevel mutable state, i.e. the
          annotation earns its keep; a [false] entry is stale. *)
  gate_enters : int list;  (** lines constructing [Probe.Gate_enter] *)
  gate_exits : int list;
  obj_magics : int list;
  assert_falses : int list;
}

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* The raw physical-memory mutators.  [Phys_mem] reads are fine
   anywhere (the invariant checker depends on them); these change frame
   contents or frame metadata and are the operations the CKI security
   argument says only the TCB may reach. *)
let write_sinks = [ "write_entry"; "write_bytes"; "clear_table"; "set_kind"; "set_owner"; "set_shared_ro" ]

let sink_module = "Phys_mem"

(* ------------------------------------------------------------------ *)
(* Longident classification                                            *)
(* ------------------------------------------------------------------ *)

let sink_of_path parts =
  match List.rev parts with
  | fn :: m :: _ when m = sink_module && List.mem fn write_sinks ->
      Some (String.concat "." parts)
  | _ -> None

(* `open Hw.Phys_mem` (or an alias of it) makes every sink reachable
   unqualified, which would blind the textual rule — flag the open
   itself. *)
let sink_of_module_path parts =
  match List.rev parts with
  | m :: _ when m = sink_module -> Some (String.concat "." parts ^ " (module access)")
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The iterator pass                                                   *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable refs : (string * int) list;
  mutable sinks : (string * int) list;
  mutable enters : int list;
  mutable exits : int list;
  mutable magics : int list;
  mutable asserts : int list;
}

let add_ref acc head line =
  if not (List.mem_assoc head acc.refs) then acc.refs <- (head, line) :: acc.refs

(* A dotted value/type/constructor path [A.B.x] references module [A];
   a bare [x] references nothing. *)
let value_path acc lid loc =
  match Longident.flatten lid with
  | head :: _ :: _ as parts ->
      add_ref acc head (line_of loc);
      (match sink_of_path parts with
      | Some s -> acc.sinks <- (s, line_of loc) :: acc.sinks
      | None -> ())
  | _ -> ()

(* A module path [A.B] (open, alias, functor argument) references [A]
   even when it is a single component. *)
let module_path acc lid loc =
  match Longident.flatten lid with
  | head :: _ as parts ->
      if String.length head > 0 && head.[0] >= 'A' && head.[0] <= 'Z' then begin
        add_ref acc head (line_of loc);
        match sink_of_module_path parts with
        | Some s -> acc.sinks <- (s, line_of loc) :: acc.sinks
        | None -> ()
      end
  | [] -> ()

let iterate_structure str =
  let acc = { refs = []; sinks = []; enters = []; exits = []; magics = []; asserts = [] } in
  let open Ast_iterator in
  let expr sub e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        value_path acc txt loc;
        match Longident.flatten txt with
        | [ "Obj"; "magic" ] -> acc.magics <- line_of loc :: acc.magics
        | _ -> ())
    | Pexp_construct ({ txt; loc }, _) -> (
        value_path acc txt loc;
        match Longident.last txt with
        | "Gate_enter" -> acc.enters <- line_of loc :: acc.enters
        | "Gate_exit" -> acc.exits <- line_of loc :: acc.exits
        | _ -> ())
    | Pexp_field (_, { txt; loc }) | Pexp_setfield (_, { txt; loc }, _) -> value_path acc txt loc
    | Pexp_record (fields, _) ->
        List.iter (fun ({ txt; loc }, _) -> value_path acc txt loc) fields
    | Pexp_new { txt; loc } -> value_path acc txt loc
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      ->
        acc.asserts <- line_of e.pexp_loc :: acc.asserts
    | _ -> ());
    default_iterator.expr sub e
  in
  let pat sub p =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; loc }, _) -> value_path acc txt loc
    | Ppat_record (fields, _) ->
        List.iter (fun ({ txt; loc }, _) -> value_path acc txt loc) fields
    | _ -> ());
    default_iterator.pat sub p
  in
  let typ sub t =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; loc }, _) | Ptyp_class ({ txt; loc }, _) -> value_path acc txt loc
    | _ -> ());
    default_iterator.typ sub t
  in
  let module_expr sub m =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> module_path acc txt loc
    | _ -> ());
    default_iterator.module_expr sub m
  in
  let iter = { default_iterator with expr; pat; typ; module_expr } in
  iter.structure iter str;
  acc

(* ------------------------------------------------------------------ *)
(* Toplevel mutable-state inventory                                    *)
(* ------------------------------------------------------------------ *)

(* Record types declared in this file that carry a [mutable] field,
   as (label set, all labels) — a toplevel literal is matched against
   these by label inclusion, which needs no type checker. *)
let record_types_of str =
  let out = ref [] in
  let rec item si =
    match si.pstr_desc with
    | Pstr_type (_, decls) ->
        List.iter
          (fun d ->
            match d.ptype_kind with
            | Ptype_record labels ->
                let names = List.map (fun l -> l.pld_name.Location.txt) labels in
                let has_mutable =
                  List.exists (fun l -> l.pld_mutable = Asttypes.Mutable) labels
                in
                out := (names, has_mutable) :: !out
            | _ -> ())
          decls
    | Pstr_module { pmb_expr; _ } -> module_expr pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> module_expr mb.pmb_expr) mbs
    | _ -> ()
  and module_expr me =
    match me.pmod_desc with
    | Pmod_structure s -> List.iter item s
    | Pmod_constraint (me, _) -> module_expr me
    | _ -> ()
  in
  List.iter item str;
  !out

(* Does this record literal inevitably build a mutable record?  True
   when every locally-declared record type its labels fit has a
   [mutable] field. *)
let literal_is_mutable record_types fields =
  let labels = List.map (fun ({ Location.txt; _ }, _) -> Longident.last txt) fields in
  let candidates =
    List.filter (fun (names, _) -> List.for_all (fun l -> List.mem l names) labels) record_types
  in
  candidates <> [] && List.for_all snd candidates

(* What (syntactically) makes a binding's right-hand side shared
   mutable state.  Descends through scaffolding but never into
   functions — a closure allocating a [ref] per call is fine.
   [Atomic.make] is deliberately absent: atomics are the sanctioned
   domain-safe form for module-level counters. *)
let creators =
  [
    ("Hashtbl", "create");
    ("Queue", "create");
    ("Stack", "create");
    ("Buffer", "create");
    ("Bytes", "create");
    ("Bytes", "make");
    ("Bytes", "of_string");
    ("Array", "make");
    ("Array", "init");
    ("Array", "create_float");
    ("Array", "make_matrix");
    ("Weak", "create");
    (* Bigarrays (the PTE arena, bench buffers): created through the
       per-dimension submodules, matched on the last two path
       components so both [Bigarray.Array1.create] and a post-[open]
       [Array1.create] are caught. *)
    ("Array1", "create");
    ("Array2", "create");
    ("Array3", "create");
    ("Genarray", "create");
  ]

let rec mutable_kind record_types e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> None
  | Pexp_newtype (_, e) | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) ->
      mutable_kind record_types e
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) | Pexp_open (_, body) ->
      mutable_kind record_types body
  | Pexp_ifthenelse (_, t, f) -> (
      match mutable_kind record_types t with
      | Some k -> Some k
      | None -> Option.bind f (mutable_kind record_types))
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match List.rev (Longident.flatten txt) with
      | "ref" :: rest when rest = [] || rest = [ "Stdlib" ] -> Some "ref"
      | fn :: m :: _ when List.mem (m, fn) creators -> Some (m ^ "." ^ fn)
      | _ -> None)
  | Pexp_record (fields, None) ->
      if literal_is_mutable record_types fields then Some "mutable record" else None
  | Pexp_array (_ :: _) -> Some "array literal"
  | Pexp_tuple es -> List.find_map (mutable_kind record_types) es
  | Pexp_construct (_, Some e) | Pexp_lazy e -> mutable_kind record_types e
  | _ -> None

let binding_name vb =
  let rec of_pat p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> of_pat p
    | _ -> None
  in
  of_pat vb.pvb_pat

let annotation_reason name vb =
  List.find_map
    (fun attr ->
      if attr.attr_name.Location.txt <> name then None
      else
        match attr.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ]
          when String.trim s <> "" ->
            Some (Ok s)
        | _ -> Some (Error ()))
    vb.pvb_attributes

let single_domain_reason vb = annotation_reason "single_domain" vb

let toplevel_inventory str =
  let record_types = record_types_of str in
  let mutables = ref [] and undocumented = ref [] and annots = ref [] in
  let rec item si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match binding_name vb with
            | None -> ()
            | Some name -> (
                let line = line_of vb.pvb_loc in
                match single_domain_reason vb with
                | Some reason ->
                    (* The annotation suppresses the domain-safety rule
                       whether or not its reason parses, but only a
                       binding that is actually mutable justifies it. *)
                    let suppresses = mutable_kind record_types vb.pvb_expr <> None in
                    annots := (name, line, suppresses) :: !annots;
                    if reason = Error () then undocumented := (name, line) :: !undocumented
                | None -> (
                    match mutable_kind record_types vb.pvb_expr with
                    | Some kind ->
                        mutables := { tm_name = name; tm_kind = kind; tm_line = line } :: !mutables
                    | None -> ())))
          vbs
    | Pstr_module { pmb_expr; _ } -> module_expr pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> module_expr mb.pmb_expr) mbs
    | _ -> ()
  and module_expr me =
    match me.pmod_desc with
    | Pmod_structure s -> List.iter item s
    | Pmod_constraint (me, _) -> module_expr me
    | _ -> ()
  in
  List.iter item str;
  (List.rev !mutables, List.rev !undocumented, List.rev !annots)

(* ------------------------------------------------------------------ *)
(* Exports and uses (dead-export)                                      *)
(* ------------------------------------------------------------------ *)

let exports sg =
  let out = ref [] in
  let rec items prefix sg = List.iter (item prefix) sg
  and item prefix si =
    match si.psig_desc with
    | Psig_value vd ->
        out := (List.rev (vd.pval_name.txt :: prefix), line_of vd.pval_loc) :: !out
    | Psig_module md -> decl prefix md
    | Psig_recmodule mds -> List.iter (decl prefix) mds
    | _ -> ()
  and decl prefix md =
    match (md.pmd_name.txt, md.pmd_type.pmty_desc) with
    | Some m, Pmty_signature sg -> items (m :: prefix) sg
    | _ -> ()
  in
  items [] sg;
  List.rev !out

type uses = { values : string list list; modules : string list list }

let flatten lid = try Longident.flatten lid with Misc.Fatal_error -> []

(* Every path is recorded under each reading the syntax allows: as
   written, with its head expanded through an alias in scope, and
   prefixed by every module opened in scope (so a bare name under
   [open M] or [M.( ... )] counts as [M.name]).  Over-approximating the
   uses can only hide a dead export, never invent one. *)
let uses str =
  let values = ref [] and modules = ref [] in
  let aliases = ref [] and opens = ref [] in
  let resolve = function
    | [] -> []
    | head :: rest as path ->
        let targets = Option.value ~default:[] (List.assoc_opt head !aliases) in
        let base = path :: List.map (fun t -> t @ rest) targets in
        base @ List.concat_map (fun o -> List.map (fun b -> o @ b) base) !opens
  in
  let value parts =
    match List.rev parts with
    | [] -> ()
    | [ name ] -> values := List.map (fun o -> o @ [ name ]) !opens @ !values
    | name :: rev_path ->
        values := List.map (fun m -> m @ [ name ]) (resolve (List.rev rev_path)) @ !values
  in
  let scoped f =
    let a = !aliases and o = !opens in
    f ();
    aliases := a;
    opens := o
  in
  let open_ path = opens := resolve (flatten path) @ !opens in
  let alias name path = aliases := (name, resolve (flatten path)) :: !aliases in
  let open Ast_iterator in
  (* [@@deriving show, eq] code calls [M.pp_u] / [M.equal_u] for each
     [M.u] the type mentions; the parsetree holds only the attribute. *)
  let derived decl =
    let plugins = ref [] in
    let payload =
      let expr sub e =
        (match e.pexp_desc with
        | Pexp_ident { txt = Longident.Lident p; _ } -> plugins := p :: !plugins
        | _ -> ());
        default_iterator.expr sub e
      in
      { default_iterator with expr }
    in
    List.iter
      (fun a -> if a.attr_name.txt = "deriving" then payload.payload payload a.attr_payload)
      decl.ptype_attributes;
    let fns = List.filter (fun (p, _) -> List.mem p !plugins) [ ("show", "pp"); ("eq", "equal") ] in
    let typ sub t =
      (match t.ptyp_desc with
      | Ptyp_constr ({ txt; _ }, _) -> (
          match List.rev (flatten txt) with
          | ty :: rev_path ->
              let name fn = if ty = "t" then fn else fn ^ "_" ^ ty in
              List.iter (fun (_, fn) -> value (List.rev (name fn :: rev_path))) fns
          | [] -> ())
      | _ -> ());
      default_iterator.typ sub t
    in
    if fns <> [] then default_iterator.type_declaration { default_iterator with typ } decl
  in
  let structure sub items = scoped (fun () -> default_iterator.structure sub items) in
  let structure_item sub si =
    match si.pstr_desc with
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } -> open_ txt
    | Pstr_module
        {
          pmb_name = { txt = Some name; _ };
          pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
          _;
        } ->
        alias name txt
    | Pstr_type (_, decls) ->
        List.iter derived decls;
        default_iterator.structure_item sub si
    | _ -> default_iterator.structure_item sub si
  in
  let expr sub e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> value (flatten txt)
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, body) ->
        scoped (fun () ->
            open_ txt;
            sub.expr sub body)
    | Pexp_letmodule ({ txt = Some name; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, body) ->
        scoped (fun () ->
            alias name txt;
            sub.expr sub body)
    | _ -> default_iterator.expr sub e
  in
  (* Any other module-expression use ([include], a functor argument,
     first-class packing) stands for every value of the module. *)
  let module_expr sub me =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> modules := resolve (flatten txt) @ !modules
    | _ -> default_iterator.module_expr sub me
  in
  let iter = { default_iterator with structure; structure_item; expr; module_expr } in
  iter.structure iter str;
  { values = !values; modules = !modules }

(* ------------------------------------------------------------------ *)

let extract (str : Parsetree.structure) : t =
  let acc = iterate_structure str in
  let toplevel_mutables, undocumented_annots, single_domain_annots = toplevel_inventory str in
  {
    module_refs = List.rev acc.refs;
    sink_refs = List.rev acc.sinks;
    toplevel_mutables;
    undocumented_annots;
    single_domain_annots;
    gate_enters = List.rev acc.enters;
    gate_exits = List.rev acc.exits;
    obj_magics = List.rev acc.magics;
    assert_falses = List.rev acc.asserts;
  }
