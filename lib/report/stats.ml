(* Small statistics helpers for the benchmark harness. *)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      let logs = List.map log xs in
      exp (mean logs)

(* Stable sort of [a.(0 .. n-1)] with [tmp] (at least [n] long) as the
   merge buffer: a bottom-up merge under [Float.compare], so
   equal-comparing values (0.0 and -0.0) keep their input order exactly
   as [Array.stable_sort Float.compare] keeps them.  Monomorphic, so no
   element is boxed.  Returns whichever of [a] and [tmp] holds the
   result. *)
let merge_sort (a : float array) (tmp : float array) n =
  let src = ref a and dst = ref tmp in
  let width = ref 1 in
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) and hi = min n (!lo + (2 * !width)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || Float.compare s.(!i) s.(!j) <= 0) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src

(* Nearest rank [p] (in [0,100]) of the first [n] (> 0) values of a
   sorted array. *)
let rank_of (sorted : float array) n p =
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* Nearest-rank percentiles (each p in [0,100]) of an unsorted sample,
   sorting it once. *)
let percentiles xs ~ps =
  match xs with
  | [] -> List.map (fun _ -> nan) ps
  | _ ->
      let a = Array.of_list xs in
      let n = Array.length a in
      let sorted = merge_sort a (Array.make n 0.0) n in
      List.map (rank_of sorted n) ps

let percentile xs ~p = List.hd (percentiles xs ~ps:[ p ])

(* A growable buffer of float samples, unboxed.  Its statistics read
   the samples newest first, as [mean] and [percentiles] read a list
   built by consing each sample on, so both give bit-identical
   results. *)
module Samples = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable work : float array;  (** sort scratch, reused across sorts *)
    mutable tmp : float array;
  }

  let create ?(capacity = 64) () =
    { data = Array.make (max 1 capacity) 0.0; len = 0; work = [||]; tmp = [||] }

  let length t = t.len
  let clear t = t.len <- 0

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let mean t =
    if t.len = 0 then nan
    else begin
      let sum = ref 0.0 in
      for i = t.len - 1 downto 0 do
        sum := !sum +. t.data.(i)
      done;
      !sum /. float_of_int t.len
    end

  let percentiles t ~ps =
    if t.len = 0 then List.map (fun _ -> nan) ps
    else begin
      if Array.length t.work < t.len then begin
        t.work <- Array.make (Array.length t.data) 0.0;
        t.tmp <- Array.make (Array.length t.data) 0.0
      end;
      (* Newest first into the scratch, then the stable sort. *)
      for i = 0 to t.len - 1 do
        t.work.(i) <- t.data.(t.len - 1 - i)
      done;
      List.map (rank_of (merge_sort t.work t.tmp t.len) t.len) ps
    end

  let percentile t ~p = List.hd (percentiles t ~ps:[ p ])
end

(* Normalize each value to [baseline] (baseline becomes 1.0). *)
let normalize ~baseline xs = List.map (fun x -> x /. baseline) xs

(* Percentage overhead of [x] relative to [baseline]. *)
let overhead_pct ~baseline x = 100.0 *. ((x /. baseline) -. 1.0)

(* Percentage reduction from [from_] to [to_]: positive = improvement. *)
let reduction_pct ~from_ ~to_ = 100.0 *. (1.0 -. (to_ /. from_))

let si v =
  if Float.abs v >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if Float.abs v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if Float.abs v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.1f" v
