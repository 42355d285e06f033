(* The benchmark's own seeded generator (a splitmix-style mixer on
   63-bit ints).  Every input a workload feeds the program (keys,
   arrival schedules, access streams, dirty sets) comes from here, so
   a seed names one input set.  [stream] separates independent
   sequences under one seed, such as one per cycle. *)

type t = { mutable s : int }

let mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let golden = 0x1E3779B97F4A7C15
let make ~seed ~stream = { s = mix ((seed * golden) + (stream * 0x232BE59BD9B4E019) + 1) }

let next t =
  t.s <- t.s + golden;
  mix t.s land max_int

let int t n = next t mod n

(* A positive int, for seeding the simulator's own generators. *)
let seed t = 1 + (next t mod 0x3FFF_FFFF)
