(* Virtual/physical address arithmetic for the simulated machine.

   The simulated machine uses 4 KiB pages and x86-64-style 4-level paging
   (9 bits of index per level, 48-bit canonical virtual addresses). *)

let page_shift = 12
let page_size = 1 lsl page_shift
let entries_per_table = 512
let levels = 4

type va = int
(** A virtual address. Plain int: the simulator never needs > 62 bits. *)

type pa = int
(** A physical address. *)

type pfn = int
(** A physical frame number ([pa lsr page_shift]). *)

type vpn = int
(** A virtual page number ([va lsr page_shift]). *)

let equal_va (a : va) b = a = b
let pp_pfn fmt (a : pfn) = Format.pp_print_int fmt a

let page_align_down a = a land lnot (page_size - 1)
let page_align_up a = page_align_down (a + page_size - 1)
let is_page_aligned a = a land (page_size - 1) = 0
let pfn_of_pa pa = pa lsr page_shift
let pa_of_pfn pfn = pfn lsl page_shift
let vpn_of_va va = va lsr page_shift
let va_of_vpn vpn = vpn lsl page_shift
let page_offset a = a land (page_size - 1)

(* Index of [va] within the page-table level [lvl] (4 = top / PML4, 1 =
   leaf / PT). *)
let index_at_level ~lvl va =
  if lvl < 1 || lvl > levels then invalid_arg "Addr.index_at_level";
  (va lsr (page_shift + (9 * (lvl - 1)))) land (entries_per_table - 1)

(* Number of 4 KiB pages needed to back [bytes]. *)
let pages_of_bytes bytes = (bytes + page_size - 1) / page_size

let pp_va fmt va = Format.fprintf fmt "0x%x" va
