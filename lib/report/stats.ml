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

(* Nearest-rank percentiles (each p in [0,100]) of an unsorted sample,
   sorting it once.  The sort is stable, so equal-comparing values
   (0.0 and -0.0) keep their input order exactly as a list sort would. *)
let percentiles xs ~ps =
  match xs with
  | [] -> List.map (fun _ -> nan) ps
  | _ ->
      let sorted = Array.of_list xs in
      Array.stable_sort Float.compare sorted;
      let n = Array.length sorted in
      List.map
        (fun p ->
          let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
          sorted.(max 0 (min (n - 1) (rank - 1))))
        ps

let percentile xs ~p = List.hd (percentiles xs ~ps:[ p ])

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
