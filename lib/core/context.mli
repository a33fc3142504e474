(** Analysis context shared by all selection algorithms: per-function
    CFG, dominators, post-dominators, natural loops, liveness, and
    call-expanded block weights and register defs, together with the
    edge/branch profile. *)

open Dmp_ir
open Dmp_cfg
open Dmp_profile

type fn_ctx = {
  index : int;
  cfg : Cfg.t;
  dom : Dom.t;
  postdom : Postdom.t;
  loops : Loops.t;
  live : Live.t;
  block_weight : int array;
  block_cbr : int array;
  block_def_mask : int array;
      (** registers each block writes, callees expanded, as a mask *)
}

type t = {
  linked : Linked.t;
  profile : Profile.t;
  params : Params.t;
  fns : fn_ctx array;
}

val create : ?params:Params.t -> Linked.t -> Profile.t -> t
val fn : t -> int -> fn_ctx
val num_fns : t -> int

val branch_addr : t -> func:int -> block:int -> int
(** Address of the terminator of [block]. *)

val branch_addr' : Linked.t -> func:int -> block:int -> int
(** Same, without an analysis context. *)

val block_start_addr : t -> func:int -> block:int -> int
val edge_prob : t -> func:int -> block:int -> dir:Cfg.dir -> float

val regs_of_mask : int -> int list
(** The register numbers of a register mask, in increasing order. A
    mask has one bit per register 1..63 (register [r] is bit [r - 1]);
    r0 is never written, so it never needs one. *)

val block_defs : t -> func:int -> block:int -> int list
(** Registers written by the block, as sorted register numbers: its own
    defs united with the defs of every function its calls reach. Used
    to count select-µops. The masks behind it are computed once per
    context by {!create}. *)

val select_count : t -> func:int -> cfm_block:int -> int list -> int
(** Select-µops for paths writing the given registers and merging at
    [cfm_block]: only registers live at the CFM point need one. *)

val ret_select_count : t -> int list -> int
(** Select-µop count for a return CFM (continuation unknown at compile
    time): registers below the scratch range are assumed live. *)
