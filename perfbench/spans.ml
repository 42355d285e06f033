(* Span recorder for the traced run.

   The benchmark opens a span around each call it makes into a layer.
   Each span has a name, start, end, parent and op id.  Self time (the
   span minus the part its children cover) and self-allocated
   minor-heap words are folded into per-name totals as spans close, so
   the totals are exact however long the run; the first [capacity]
   spans are also kept for export as Chrome trace-event JSON.

   A disabled recorder turns [enter]/[leave] into one branch each, so
   the untraced run goes through the same code without recording or
   allocating. *)

type t = {
  enabled : bool;
  mutable calls_ : string array;  (** span id -> call name *)
  mutable metric_ : string array;  (** span id -> per-layer time metric *)
  mutable self_ns : int array;
  mutable self_words : float array;
  mutable count : int array;
  (* open spans, innermost at [depth - 1] *)
  st_id : int array;
  st_start : int array;
  st_words : float array;
  st_child_ns : int array;
  st_child_words : float array;
  st_kept : int array;
  mutable depth : int;
  (* spans kept for export *)
  k_id : int array;
  k_start : int array;
  k_end : int array;
  k_parent : int array;
  k_op : int array;
  mutable kept : int;
  mutable dropped : int;
  mutable op : int;
}

let max_depth = 64
let capacity = 20_000

let create ~enabled () =
  let cap = if enabled then capacity else 0 in
  {
    enabled;
    calls_ = [||];
    metric_ = [||];
    self_ns = [||];
    self_words = [||];
    count = [||];
    st_id = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_words = Array.make max_depth 0.0;
    st_child_ns = Array.make max_depth 0;
    st_child_words = Array.make max_depth 0.0;
    st_kept = Array.make max_depth (-1);
    depth = 0;
    k_id = Array.make cap 0;
    k_start = Array.make cap 0;
    k_end = Array.make cap 0;
    k_parent = Array.make cap 0;
    k_op = Array.make cap 0;
    kept = 0;
    dropped = 0;
    op = 0;
  }

let enabled t = t.enabled

(* Span ids are registered once, before the measured phase. *)
let register t ~call ~metric =
  let id = Array.length t.calls_ in
  t.calls_ <- Array.append t.calls_ [| call |];
  t.metric_ <- Array.append t.metric_ [| metric |];
  t.self_ns <- Array.append t.self_ns [| 0 |];
  t.self_words <- Array.append t.self_words [| 0.0 |];
  t.count <- Array.append t.count [| 0 |];
  id

let set_op t op = t.op <- op

let enter t id =
  if t.enabled then begin
    let d = t.depth in
    if d >= max_depth then failwith "Spans: nesting too deep";
    t.st_id.(d) <- id;
    t.st_child_ns.(d) <- 0;
    t.st_child_words.(d) <- 0.0;
    t.st_kept.(d) <- -1;
    if t.kept < Array.length t.k_id then begin
      let k = t.kept in
      t.kept <- k + 1;
      t.k_id.(k) <- id;
      t.k_parent.(k) <- (if d = 0 then -1 else t.st_kept.(d - 1));
      t.k_op.(k) <- t.op;
      t.st_kept.(d) <- k
    end
    else t.dropped <- t.dropped + 1;
    t.depth <- d + 1;
    t.st_words.(d) <- Gc.minor_words ();
    t.st_start.(d) <- Measure.now_ns ()
  end

let leave t id =
  if t.enabled then begin
    let stop = Measure.now_ns () in
    let words = Gc.minor_words () in
    let d = t.depth - 1 in
    if d < 0 || t.st_id.(d) <> id then failwith ("Spans: unbalanced leave of " ^ t.calls_.(id));
    t.depth <- d;
    let dur = stop - t.st_start.(d) in
    let dw = words -. t.st_words.(d) in
    t.self_ns.(id) <- t.self_ns.(id) + dur - t.st_child_ns.(d);
    t.self_words.(id) <- t.self_words.(id) +. dw -. t.st_child_words.(d);
    t.count.(id) <- t.count.(id) + 1;
    if d > 0 then begin
      t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dur;
      t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. dw
    end;
    let k = t.st_kept.(d) in
    if k >= 0 then begin
      t.k_start.(k) <- t.st_start.(d);
      t.k_end.(k) <- stop
    end
  end

let wrap t id f =
  enter t id;
  let v = f () in
  leave t id;
  v

(* Per-metric totals: (metric, self seconds, self minor words, spans). *)
let totals t =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun id m ->
      let s, w, c = try Hashtbl.find tbl m with Not_found -> (0, 0.0, 0) in
      Hashtbl.replace tbl m (s + t.self_ns.(id), w +. t.self_words.(id), c + t.count.(id)))
    t.metric_;
  Hashtbl.fold (fun m (s, w, c) acc -> (m, float_of_int s /. 1e9, w, c) :: acc) tbl []
  |> List.sort compare

let layer_of_metric m = match String.index_opt m '.' with Some i -> String.sub m 0 i | None -> m
let kept t = t.kept
let dropped t = t.dropped

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and about:tracing open. *)
let to_chrome t ~t0 =
  let module J = Report.Json in
  let us ns = float_of_int ns /. 1e3 in
  let ev k =
    let id = t.k_id.(k) in
    J.Obj
      [
        ("name", J.String t.calls_.(id));
        ("cat", J.String (layer_of_metric t.metric_.(id)));
        ("ph", J.String "X");
        ("ts", J.Float (us (t.k_start.(k) - t0)));
        ("dur", J.Float (us (t.k_end.(k) - t.k_start.(k))));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ("args", J.Obj [ ("op", J.Int t.k_op.(k)); ("parent", J.Int t.k_parent.(k)); ("span", J.Int k) ]);
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.init t.kept ev));
      ("displayTimeUnit", J.String "ns");
      ("otherData", J.Obj [ ("spans_dropped", J.Int t.dropped) ]);
    ]
