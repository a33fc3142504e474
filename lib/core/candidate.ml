module Int_set = Explore.Int_set

type cfm_candidate = {
  cfm_block : int;
  cfm_addr : int;
  exact : bool;
  merge_prob : float;
  longest_t : int;
  longest_nt : int;
  avg_t : float;
  avg_nt : float;
  freq_t : int;
  freq_nt : int;
  prob_t : float;
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

let misp_rate c =
  if c.executed = 0 then 0.
  else float_of_int c.mispredicted /. float_of_int c.executed

let make_cfm ctx ~func ~cfm_block ~exact ~merge_prob
    ~(reach_t : Explore.reach) ~(reach_nt : Explore.reach) =
  let select_uops =
    Context.select_count ctx ~func ~cfm_block
      (Context.regs_of_mask (reach_t.Explore.defs lor reach_nt.Explore.defs))
  in
  {
    cfm_block;
    cfm_addr = Context.block_start_addr ctx ~func ~block:cfm_block;
    exact;
    merge_prob;
    longest_t = reach_t.Explore.longest;
    longest_nt = reach_nt.Explore.longest;
    avg_t = Explore.avg_insts reach_t;
    avg_nt = Explore.avg_insts reach_nt;
    freq_t = reach_t.Explore.best_path_insts;
    freq_nt = reach_nt.Explore.best_path_insts;
    prob_t = reach_t.Explore.prob;
    prob_nt = reach_nt.Explore.prob;
    max_cbr = max reach_t.Explore.max_cbr reach_nt.Explore.max_cbr;
    select_uops;
    blocks_on_paths =
      Int_set.union (Explore.blocks reach_t) (Explore.blocks reach_nt);
  }
