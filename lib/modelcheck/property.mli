(** The safety properties checked on every reachable state and edge of
    the bounded exploration. P1/P4 are state properties; P2/P3/P5/P6/P7
    are edge properties (see property.ml for the full statements). *)

type id =
  | Guest_monitor_rights  (** P1: no monitor-capable PKRS outside a gate *)
  | Destructive_executed  (** P2: E2 blocks Table-3 instructions (golden) *)
  | Gate_pkrs_leak  (** P3: gates restore entry PKRS on every path *)
  | User_if_cleared  (** P4: E3 — ring 3 never entered with IF=0 *)
  | Software_pks_switch  (** P5: software vectoring never switches PKS *)
  | E4_save_missing  (** P6: gate-entering delivery saves + zeroes PKRS *)
  | Forged_entry_ran  (** P7: forged gate entry never reaches the body *)

val equal_id : id -> id -> bool

val name : id -> string

type violation = { property : id; vcpu : int; detail : string }

val check_state : State.t -> violation list

val check_edge :
  pre:State.t -> vcpu:int -> action:Action.t -> step:Transition.step -> violation list
