(* The snapshot image: a deterministic, versioned, checksummed record
   of one quiesced CKI container.

   Nothing in the image is an absolute frame number: every frame is
   named either by its offset inside a delegated segment ([Seg]) or by
   its position in the auxiliary-frame table ([Aux], for KSM-private
   and kernel-image frames allocated outside the segments).  Restore
   relocates by delegating fresh segments and allocating fresh
   auxiliary frames, then re-basing every reference — so an image can
   land at any hPA on any machine.

   The on-disk form is line-oriented text: a magic+version line, an
   FNV-1a-64 checksum of the payload, then the payload.  Encoding is a
   pure function of the logical container state (all unordered
   collections are sorted), so capture∘restore∘capture is
   byte-identical — the property the tests pin. *)

type fref = Seg of { seg : int; off : int } | Aux of int

(* Frames that exist outside the delegated segments.  [Pt] frames are
   KSM-owned page-table pages (the monitor's own trees, per-vCPU
   copies, direct-map interior nodes); [Kernel_code] is the guest
   kernel image, boot-allocated host-side. *)
type aux_kind = Pt of int | Ksm_code | Ksm_data | Kernel_code

(* One present PTE: [e_bits] is the raw 64-bit entry with the frame
   field zeroed (permission, pkey and A/D bits preserved verbatim);
   the frame is carried portably in [e_target]. *)
type entry = { e_index : int; e_bits : int64; e_target : fref }

type table = {
  t_frame : fref;
  t_level : int;
  t_va : Hw.Addr.va;  (** base VA the table's slot 0 translates *)
  t_entries : entry list;
}

type root = { r_frame : fref; r_copies : fref array }
type vcpu_area = { a_l3 : fref; a_frames : fref array }

type cpu_state = {
  c_kernel : bool;
  c_pkrs : int;
  c_if : bool;
  c_gs : int;
  c_kgs : int;
  c_cr3 : fref;
}

type vma_rec = {
  v_start : Hw.Addr.va;
  v_stop : Hw.Addr.va;
  v_prot : bool * bool * bool;  (** read, write, exec *)
  v_backing : Kernel_model.Vma.backing;
}

type fd_rec = { f_fd : int; f_pos : int; f_path : string }

type task_rec = {
  tk_pid : int;
  tk_parent : int;
  tk_next_fd : int;
  tk_aspace : int;
  tk_brk : Hw.Addr.va;
  tk_cursor : Hw.Addr.va;
  tk_vmas : vma_rec list;  (** sorted by start *)
  tk_pages : (Hw.Addr.vpn * fref) list;  (** sorted by vpn *)
  tk_fds : fd_rec list;  (** sorted by fd; regular files only *)
}

type t = {
  cfg : Cki.Config.t;
  segments : int array;  (** delegated segment sizes (frames) *)
  aux : aux_kind array;
  ptps : (fref * int) list;  (** declared PTPs with levels, sorted *)
  kernel_root : fref;
  template : (int * int64 * fref) list;  (** fixed L4 slots *)
  roots : root list;  (** kernel root first, then aspace roots by id *)
  tables : table list;  (** canonical traversal order *)
  pervcpu : vcpu_area array;
  cpus : cpu_state array;
  next_pid : int;
  next_as : int;
  buddy_blocks : (int * int) list;  (** (segment-0 offset, order), sorted *)
  aspaces : (int * fref) list;  (** aspace id -> root, sorted *)
  tasks : task_rec list;  (** sorted by pid *)
  dirs : string list;  (** tmpfs directories, parents first *)
  files : (string * string) list;  (** tmpfs regular files with contents *)
}

(* v2: the direct-map subtree (tables + template slot) left the image —
   its VA layout keys on physical addresses, so restore rebuilds it
   from the new segment bases instead of relocating stale keys. *)
let version = 2
let magic = "CKI-SNAPSHOT"

(* Frame field of a PTE: bits 12..50 (mirrors Hw.Pte's encoding). *)
let pfn_mask = Int64.shift_left (Int64.of_int ((1 lsl 39) - 1)) 12
let strip_pfn e = Int64.logand e (Int64.lognot pfn_mask)
let with_pfn bits pfn = Int64.logor (strip_pfn bits) (Int64.shift_left (Int64.of_int pfn) 12)

(* ------------------------------------------------------------------ *)
(* FNV-1a 64-bit checksum                                              *)
(* ------------------------------------------------------------------ *)

(* An index loop rather than [String.iter]'s closure, so the
   accumulator stays an unboxed local. *)
let fnv1a64 s =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  for i = 0 to String.length s - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h c) 1099511628211L
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Allocation-free writers for the bulk lines ([t], [e], [g], [b],
   [F]); each prints exactly what its [Printf] conversion would. *)

(* [%d], from the non-positive value so [min_int] needs no special case. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then Buffer.add_char b '-';
  add_neg_digits b (if n < 0 then n else -n)

let hex_digits = "0123456789abcdef"

(* [%Lx]: two's complement, lowercase, no leading zeros. *)
let add_hex64 b v =
  let top = ref 60 in
  while !top > 0 && Int64.to_int (Int64.shift_right_logical v !top) = 0 do top := !top - 4 done;
  for i = !top / 4 downto 0 do
    Buffer.add_char b hex_digits.[Int64.to_int (Int64.shift_right_logical v (4 * i)) land 15]
  done

(* [%02x] per byte. *)
let add_hex_string b s =
  for i = 0 to String.length s - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Buffer.add_char b hex_digits.[c lsr 4];
    Buffer.add_char b hex_digits.[c land 15]
  done

let add_fref b = function
  | Seg { seg; off } ->
      Buffer.add_char b 'S';
      add_int b seg;
      Buffer.add_char b '.';
      add_int b off
  | Aux i ->
      Buffer.add_char b 'A';
      add_int b i

let to_string add x =
  let b = Buffer.create 16 in
  add b x;
  Buffer.contents b

let hex_of_string = to_string add_hex_string
let fref_str = to_string add_fref

let string_of_hex h =
  if String.length h mod 2 <> 0 then invalid_arg "string_of_hex";
  String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let aux_kind_str = function
  | Pt l -> "pt" ^ string_of_int l
  | Ksm_code -> "ksm_code"
  | Ksm_data -> "ksm_data"
  | Kernel_code -> "kernel_code"

let backing_str = function
  | Kernel_model.Vma.Anon -> "anon"
  | Kernel_model.Vma.File { inode; offset } -> Printf.sprintf "file:%d:%d" inode offset
  | Kernel_model.Vma.Stack -> "stack"
  | Kernel_model.Vma.Heap -> "heap"

let bool01 b = if b then "1" else "0"

let payload (t : t) =
  let b = Buffer.create (64 * 1024) in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  (* Bulk lines: a one-letter tag, then fields each led by a space. *)
  let chr = Buffer.add_char b in
  let int n = chr ' '; add_int b n in
  let fref r = chr ' '; add_fref b r in
  let hex s = chr ' '; add_hex_string b s in
  let hex64 v = chr ' '; add_hex64 b v in
  let c = t.cfg in
  line "cfg %s %s %s %s %s %s %d %d" (bool01 c.Cki.Config.opt2) (bool01 c.Cki.Config.opt3)
    (bool01 c.Cki.Config.hugepages) (bool01 c.Cki.Config.pti_in_gates)
    (bool01 c.Cki.Config.emulate_pvm_syscall) (bool01 c.Cki.Config.design_pku) c.Cki.Config.vcpus
    c.Cki.Config.segment_frames;
  line "segments %d%s" (Array.length t.segments)
    (Array.fold_left (fun acc n -> acc ^ " " ^ string_of_int n) "" t.segments);
  line "aux %d" (Array.length t.aux);
  Array.iteri (fun i k -> line "k %d %s" i (aux_kind_str k)) t.aux;
  line "ptps %d" (List.length t.ptps);
  List.iter (fun (r, lvl) -> line "p %s %d" (fref_str r) lvl) t.ptps;
  line "kernel_root %s" (fref_str t.kernel_root);
  line "template %d" (List.length t.template);
  List.iter (fun (slot, bits, r) -> line "s %d %Lx %s" slot bits (fref_str r)) t.template;
  line "roots %d" (List.length t.roots);
  List.iter
    (fun r ->
      line "r %s %d%s" (fref_str r.r_frame) (Array.length r.r_copies)
        (Array.fold_left (fun acc c -> acc ^ " " ^ fref_str c) "" r.r_copies))
    t.roots;
  line "tables %d" (List.length t.tables);
  List.iter
    (fun tb ->
      chr 't'; fref tb.t_frame; int tb.t_level; int tb.t_va; int (List.length tb.t_entries);
      chr '\n';
      List.iter
        (fun e -> chr 'e'; int e.e_index; hex64 e.e_bits; fref e.e_target; chr '\n')
        tb.t_entries)
    t.tables;
  line "pervcpu %d" (Array.length t.pervcpu);
  Array.iter
    (fun a ->
      line "v %s %d%s" (fref_str a.a_l3) (Array.length a.a_frames)
        (Array.fold_left (fun acc f -> acc ^ " " ^ fref_str f) "" a.a_frames))
    t.pervcpu;
  line "cpus %d" (Array.length t.cpus);
  Array.iter
    (fun c ->
      line "c %s %d %s %d %d %s" (bool01 c.c_kernel) c.c_pkrs (bool01 c.c_if) c.c_gs c.c_kgs
        (fref_str c.c_cr3))
    t.cpus;
  line "kernel %d %d" t.next_pid t.next_as;
  line "buddy %d" (List.length t.buddy_blocks);
  List.iter (fun (off, order) -> chr 'b'; int off; int order; chr '\n') t.buddy_blocks;
  line "aspaces %d" (List.length t.aspaces);
  List.iter (fun (id, r) -> line "a %d %s" id (fref_str r)) t.aspaces;
  line "tasks %d" (List.length t.tasks);
  List.iter
    (fun tk ->
      line "task %d %d %d %d %d %d %d %d %d" tk.tk_pid tk.tk_parent tk.tk_next_fd tk.tk_aspace
        tk.tk_brk tk.tk_cursor (List.length tk.tk_vmas) (List.length tk.tk_pages)
        (List.length tk.tk_fds);
      List.iter
        (fun v ->
          let r, w, x = v.v_prot in
          line "m %d %d %s%s%s %s" v.v_start v.v_stop (bool01 r) (bool01 w) (bool01 x)
            (backing_str v.v_backing))
        tk.tk_vmas;
      List.iter (fun (vpn, r) -> chr 'g'; int vpn; fref r; chr '\n') tk.tk_pages;
      List.iter (fun f -> line "f %d %d %s" f.f_fd f.f_pos (hex_of_string f.f_path)) tk.tk_fds)
    t.tasks;
  line "dirs %d" (List.length t.dirs);
  List.iter (fun d -> line "d %s" (hex_of_string d)) t.dirs;
  line "files %d" (List.length t.files);
  List.iter (fun (p, data) -> chr 'F'; hex p; hex data; chr '\n') t.files;
  Buffer.contents b

let encode t =
  let p = payload t in
  Printf.sprintf "%s v%d\nchecksum %016Lx\n%s" magic version (fnv1a64 p) p

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

type decode_error =
  | Bad_magic
  | Bad_version of int
  | Bad_checksum
  | Truncated
  | Malformed of string

let show_decode_error = function
  | Bad_magic -> "bad magic (not a CKI snapshot)"
  | Bad_version v -> Printf.sprintf "unsupported image version %d (expected %d)" v version
  | Bad_checksum -> "checksum mismatch (corrupted image)"
  | Truncated -> "truncated image"
  | Malformed s -> "malformed image: " ^ s

exception Bad of decode_error

let fref_of_str s =
  try
    if s = "" then raise (Bad (Malformed "empty frame ref"))
    else if s.[0] = 'A' then Aux (int_of_string (String.sub s 1 (String.length s - 1)))
    else if s.[0] = 'S' then
      match String.split_on_char '.' (String.sub s 1 (String.length s - 1)) with
      | [ seg; off ] -> Seg { seg = int_of_string seg; off = int_of_string off }
      | _ -> raise (Bad (Malformed ("frame ref " ^ s)))
    else raise (Bad (Malformed ("frame ref " ^ s)))
  with Failure _ -> raise (Bad (Malformed ("frame ref " ^ s)))

let aux_kind_of_str = function
  | "pt1" -> Pt 1
  | "pt2" -> Pt 2
  | "pt3" -> Pt 3
  | "pt4" -> Pt 4
  | "ksm_code" -> Ksm_code
  | "ksm_data" -> Ksm_data
  | "kernel_code" -> Kernel_code
  | s -> raise (Bad (Malformed ("aux kind " ^ s)))

let backing_of_str s =
  match String.split_on_char ':' s with
  | [ "anon" ] -> Kernel_model.Vma.Anon
  | [ "stack" ] -> Kernel_model.Vma.Stack
  | [ "heap" ] -> Kernel_model.Vma.Heap
  | [ "file"; inode; offset ] -> (
      try Kernel_model.Vma.File { inode = int_of_string inode; offset = int_of_string offset }
      with Failure _ -> raise (Bad (Malformed ("backing " ^ s))))
  | _ -> raise (Bad (Malformed ("backing " ^ s)))

let decode s =
  let lines = String.split_on_char '\n' s in
  let cursor = ref lines in
  let next () =
    match !cursor with
    | [] -> raise (Bad Truncated)
    | [ "" ] -> raise (Bad Truncated) (* trailing newline remainder *)
    | l :: rest ->
        cursor := rest;
        l
  in
  let words l = String.split_on_char ' ' l in
  let ints_exn l =
    try List.map int_of_string l
    with Failure _ -> raise (Bad (Malformed (String.concat " " l)))
  in
  let expect tag l =
    match words l with
    | w :: rest when w = tag -> rest
    | _ -> raise (Bad (Malformed ("expected " ^ tag ^ ", got: " ^ l)))
  in
  let counted tag =
    match expect tag (next ()) with
    | n :: rest -> (
        (try int_of_string n with Failure _ -> raise (Bad (Malformed tag))), rest)
    | [] -> raise (Bad (Malformed tag))
  in
  let repeat n f = List.init n (fun _ -> f ()) in
  let b01 = function
    | "1" -> true
    | "0" -> false
    | s -> raise (Bad (Malformed ("bool " ^ s)))
  in
  let hex64 s = try Int64.of_string ("0x" ^ s) with Failure _ -> raise (Bad (Malformed ("hex " ^ s))) in
  try
    (* Header *)
    (match words (next ()) with
    | [ m; v ] when m = magic -> (
        match int_of_string_opt (String.sub v 1 (String.length v - 1)) with
        | Some n when v.[0] = 'v' -> if n <> version then raise (Bad (Bad_version n))
        | _ -> raise (Bad Bad_magic))
    | _ -> raise (Bad Bad_magic));
    let claimed =
      match expect "checksum" (next ()) with
      | [ h ] -> hex64 h
      | _ -> raise (Bad (Malformed "checksum"))
    in
    let p = String.concat "\n" !cursor in
    if not (Int64.equal (fnv1a64 p) claimed) then raise (Bad Bad_checksum);
    (* Payload *)
    let cfg =
      match expect "cfg" (next ()) with
      | [ o2; o3; hp; pti; pvm; pku; vcpus; segf ] ->
          {
            Cki.Config.opt2 = b01 o2;
            opt3 = b01 o3;
            hugepages = b01 hp;
            pti_in_gates = b01 pti;
            emulate_pvm_syscall = b01 pvm;
            design_pku = b01 pku;
            vcpus = int_of_string vcpus;
            segment_frames = int_of_string segf;
          }
      | _ -> raise (Bad (Malformed "cfg"))
    in
    let nseg, rest = counted "segments" in
    let segments = Array.of_list (ints_exn rest) in
    if Array.length segments <> nseg then raise (Bad (Malformed "segments"));
    let naux, _ = counted "aux" in
    let aux =
      Array.of_list
        (repeat naux (fun () ->
             match expect "k" (next ()) with
             | [ _i; k ] -> aux_kind_of_str k
             | _ -> raise (Bad (Malformed "aux entry"))))
    in
    let nptp, _ = counted "ptps" in
    let ptps =
      repeat nptp (fun () ->
          match expect "p" (next ()) with
          | [ r; lvl ] -> (fref_of_str r, int_of_string lvl)
          | _ -> raise (Bad (Malformed "ptp")))
    in
    let kernel_root =
      match expect "kernel_root" (next ()) with
      | [ r ] -> fref_of_str r
      | _ -> raise (Bad (Malformed "kernel_root"))
    in
    let ntpl, _ = counted "template" in
    let template =
      repeat ntpl (fun () ->
          match expect "s" (next ()) with
          | [ slot; bits; r ] -> (int_of_string slot, hex64 bits, fref_of_str r)
          | _ -> raise (Bad (Malformed "template slot")))
    in
    let nroots, _ = counted "roots" in
    let roots =
      repeat nroots (fun () ->
          match expect "r" (next ()) with
          | frame :: n :: copies ->
              if int_of_string n <> List.length copies then
                raise (Bad (Malformed "root copy count"));
              { r_frame = fref_of_str frame; r_copies = Array.of_list (List.map fref_of_str copies) }
          | _ -> raise (Bad (Malformed "root")))
    in
    let ntables, _ = counted "tables" in
    let tables =
      repeat ntables (fun () ->
          match expect "t" (next ()) with
          | [ frame; lvl; va; n ] ->
              let n = int_of_string n in
              let entries =
                repeat n (fun () ->
                    match expect "e" (next ()) with
                    | [ idx; bits; target ] ->
                        { e_index = int_of_string idx; e_bits = hex64 bits; e_target = fref_of_str target }
                    | _ -> raise (Bad (Malformed "entry")))
              in
              {
                t_frame = fref_of_str frame;
                t_level = int_of_string lvl;
                t_va = int_of_string va;
                t_entries = entries;
              }
          | _ -> raise (Bad (Malformed "table")))
    in
    let nvcpu, _ = counted "pervcpu" in
    let pervcpu =
      Array.of_list
        (repeat nvcpu (fun () ->
             match expect "v" (next ()) with
             | l3 :: n :: frames ->
                 if int_of_string n <> List.length frames then
                   raise (Bad (Malformed "pervcpu frame count"));
                 { a_l3 = fref_of_str l3; a_frames = Array.of_list (List.map fref_of_str frames) }
             | _ -> raise (Bad (Malformed "pervcpu"))))
    in
    let ncpu, _ = counted "cpus" in
    let cpus =
      Array.of_list
        (repeat ncpu (fun () ->
             match expect "c" (next ()) with
             | [ k; pkrs; ifl; gs; kgs; cr3 ] ->
                 {
                   c_kernel = b01 k;
                   c_pkrs = int_of_string pkrs;
                   c_if = b01 ifl;
                   c_gs = int_of_string gs;
                   c_kgs = int_of_string kgs;
                   c_cr3 = fref_of_str cr3;
                 }
             | _ -> raise (Bad (Malformed "cpu"))))
    in
    let next_pid, next_as =
      match ints_exn (expect "kernel" (next ())) with
      | [ np; na ] -> (np, na)
      | _ -> raise (Bad (Malformed "kernel"))
    in
    let nblocks, _ = counted "buddy" in
    let buddy_blocks =
      repeat nblocks (fun () ->
          match ints_exn (expect "b" (next ())) with
          | [ off; order ] -> (off, order)
          | _ -> raise (Bad (Malformed "buddy block")))
    in
    let nas, _ = counted "aspaces" in
    let aspaces =
      repeat nas (fun () ->
          match expect "a" (next ()) with
          | [ id; r ] -> (int_of_string id, fref_of_str r)
          | _ -> raise (Bad (Malformed "aspace")))
    in
    let ntasks, _ = counted "tasks" in
    let tasks =
      repeat ntasks (fun () ->
          match ints_exn (expect "task" (next ())) with
          | [ pid; parent; next_fd; aspace; brk; cursor; nvmas; npages; nfds ] ->
              let vmas =
                repeat nvmas (fun () ->
                    match expect "m" (next ()) with
                    | [ start; stop; rwx; backing ] when String.length rwx = 3 ->
                        {
                          v_start = int_of_string start;
                          v_stop = int_of_string stop;
                          v_prot =
                            ( b01 (String.make 1 rwx.[0]),
                              b01 (String.make 1 rwx.[1]),
                              b01 (String.make 1 rwx.[2]) );
                          v_backing = backing_of_str backing;
                        }
                    | _ -> raise (Bad (Malformed "vma")))
              in
              let pages =
                repeat npages (fun () ->
                    match expect "g" (next ()) with
                    | [ vpn; r ] -> (int_of_string vpn, fref_of_str r)
                    | _ -> raise (Bad (Malformed "page")))
              in
              let fds =
                repeat nfds (fun () ->
                    match expect "f" (next ()) with
                    | [ fd; pos; path ] ->
                        { f_fd = int_of_string fd; f_pos = int_of_string pos; f_path = string_of_hex path }
                    | _ -> raise (Bad (Malformed "fd")))
              in
              {
                tk_pid = pid;
                tk_parent = parent;
                tk_next_fd = next_fd;
                tk_aspace = aspace;
                tk_brk = brk;
                tk_cursor = cursor;
                tk_vmas = vmas;
                tk_pages = pages;
                tk_fds = fds;
              }
          | _ -> raise (Bad (Malformed "task")))
    in
    let ndirs, _ = counted "dirs" in
    let dirs =
      repeat ndirs (fun () ->
          match expect "d" (next ()) with
          | [ p ] -> string_of_hex p
          | _ -> raise (Bad (Malformed "dir")))
    in
    let nfiles, _ = counted "files" in
    let files =
      repeat nfiles (fun () ->
          match expect "F" (next ()) with
          | [ p; data ] -> (string_of_hex p, string_of_hex data)
          | [ p ] -> (string_of_hex p, "")
          | _ -> raise (Bad (Malformed "file")))
    in
    Ok
      {
        cfg;
        segments;
        aux;
        ptps;
        kernel_root;
        template;
        roots;
        tables;
        pervcpu;
        cpus;
        next_pid;
        next_as;
        buddy_blocks;
        aspaces;
        tasks;
        dirs;
        files;
      }
  with
  | Bad e -> Error e
  | Failure _ -> Error (Malformed "number")
  | Invalid_argument _ -> Error (Malformed "field")

let write_file path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (encode t))

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> decode s
  | exception Sys_error _ -> Error Truncated
