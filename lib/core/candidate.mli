(** Diverge-branch candidates: the shared result type of Alg-exact and
    Alg-freq, consumed by the selection driver and the cost model. *)

module Int_set = Explore.Int_set

type cfm_candidate = {
  cfm_block : int;
  cfm_addr : int;
  exact : bool;
  merge_prob : float;
  longest_t : int;   (** longest-path instructions, taken side *)
  longest_nt : int;
  avg_t : float;     (** edge-profile expected instructions *)
  avg_nt : float;
  freq_t : int;      (** most-frequent-path instructions *)
  freq_nt : int;
  prob_t : float;    (** per-side first-arrival reach probability *)
  prob_nt : float;
  max_cbr : int;
  select_uops : int;
  blocks_on_paths : Int_set.t;
}

type ret_merge = { ret_prob : float; ret_select_uops : int; ret_longest : int }

type t = {
  func : int;
  block : int;
  branch_addr : int;
  kind : Annotation.branch_kind;
  cfms : cfm_candidate list;
  ret : ret_merge option;
  executed : int;
  mispredicted : int;
}

val misp_rate : t -> float

val make_cfm :
  Context.t -> func:int -> cfm_block:int -> exact:bool ->
  merge_prob:float -> reach_t:Explore.reach -> reach_nt:Explore.reach ->
  cfm_candidate
