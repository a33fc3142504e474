(* Alternative simple diverge-branch selection algorithms the paper
   compares against (Section 7.2, Figure 8). When a branch has an
   IPOSDOM, the IPOSDOM is its CFM point (footnote 10); otherwise the
   branch has no CFM point and any benefit comes from dual-path
   execution. *)

open Dmp_cfg
open Dmp_profile

type algo =
  | Every_br
  | Random_50 of int  (** seed *)
  | High_bp of float  (** minimum profiled misprediction rate, e.g. 0.05 *)
  | Immediate
  | If_else

let algo_to_string = function
  | Every_br -> "every-br"
  | Random_50 _ -> "random-50"
  | High_bp p -> Printf.sprintf "high-BP-%g" (p *. 100.)
  | Immediate -> "immediate"
  | If_else -> "if-else"

(* Exact-hammock info for the branch, if any: used for the CFM point and
   its select-µop count. Uses the generous cost-model bounds so that big
   hammocks are still annotated (and perform accordingly). *)
let iposdom_cfm ctx ~func ~block =
  let fn = Context.fn ctx func in
  match Postdom.ipostdom fn.Context.postdom block with
  | None -> None
  | Some j -> (
      match Cfg.branch_successors fn.Context.cfg block with
      | None -> None
      | Some (target, fall) ->
          let side start =
            Explore.explore ctx ~func ~start ~stop_blocks:(Explore.Int_set.singleton j)
              ~structural:false
          in
          let rt = side target and rnt = side fall in
          let cfm_addr = Context.block_start_addr ctx ~func ~block:j in
          let select_uops =
            match (Explore.reach rt j, Explore.reach rnt j) with
            | Some a, Some b ->
                Context.select_count ctx ~func ~cfm_block:j
                  (Context.regs_of_mask (a.Explore.defs lor b.Explore.defs))
            | _, _ -> 4
          in
          Some
            { Annotation.cfm_addr; exact = true; merge_prob = 1.;
              select_uops })

let is_simple_if_else ctx ~func ~block =
  match Alg_exact.candidate_of_branch ctx ~func ~block with
  | Some c -> c.Candidate.kind = Annotation.Simple_hammock
  | None -> false

let run algo linked profile =
  let params =
    match algo with
    | If_else -> Params.default
    | Every_br | Random_50 _ | High_bp _ | Immediate -> Params.for_cost_model
  in
  let ctx = Context.create ~params linked profile in
  let ann = Annotation.empty () in
  let rng = match algo with Random_50 seed -> Random.State.make [| seed |]
    | _ -> Random.State.make [| 0 |]
  in
  for func = 0 to Context.num_fns ctx - 1 do
    let fn = Context.fn ctx func in
    for block = 0 to Cfg.num_nodes fn.Context.cfg - 1 do
      if Cfg.is_conditional fn.Context.cfg block then begin
        let branch_addr = Context.branch_addr ctx ~func ~block in
        let executed = Profile.executed profile ~addr:branch_addr in
        if executed > 0 then begin
          let chosen =
            match algo with
            | Every_br -> true
            | Random_50 _ -> Random.State.bool rng
            | High_bp threshold ->
                Profile.misp_rate profile ~addr:branch_addr >= threshold
            | Immediate ->
                Postdom.ipostdom fn.Context.postdom block <> None
            | If_else -> is_simple_if_else ctx ~func ~block
          in
          if chosen then
            let cfms =
              match iposdom_cfm ctx ~func ~block with
              | Some cfm -> [ cfm ]
              | None -> []
            in
            Annotation.add ann
              {
                Annotation.branch_addr;
                kind = Annotation.Frequently_hammock;
                cfms;
                return_cfm = false;
                always_predicate = false;
                loop = None;
              }
        end
      end
    done
  done;
  ann
