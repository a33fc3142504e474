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
      (* block size with Call instructions expanded to callee static size *)
  block_cbr : int array;
      (* conditional branches: own terminator plus callee static branches *)
  block_def_mask : int array;
      (* registers written, callees expanded, as a register mask *)
}

type t = {
  linked : Linked.t;
  profile : Profile.t;
  params : Params.t;
  fns : fn_ctx array;
}

let call_weights program =
  let sizes = Hashtbl.create 16 in
  Array.iter
    (fun f -> Hashtbl.replace sizes f.Func.name (Func.size f))
    program.Program.funcs;
  let cbrs = Hashtbl.create 16 in
  Array.iter
    (fun f ->
      let n =
        Array.fold_left
          (fun acc b -> if Block.is_conditional b then acc + 1 else acc)
          0 f.Func.blocks
      in
      Hashtbl.replace cbrs f.Func.name n)
    program.Program.funcs;
  (sizes, cbrs)

(* Register sets as bit masks. A def is never r0 (writes to it are
   dropped, see [Instr.defs]), so registers 1..63 take bits 0..62. *)
let reg_bit r = 1 lsl (r - 1)

let regs_of_mask m =
  let rec go r acc =
    if r = 0 then acc
    else go (r - 1) (if m land reg_bit r <> 0 then r :: acc else acc)
  in
  go (Reg.count - 1) []

let instr_defs acc ins =
  List.fold_left
    (fun acc r ->
      let r = Reg.to_int r in
      assert (r > 0);
      acc lor reg_bit r)
    acc (Instr.defs ins)

let callee_index program = function
  | Instr.Call { callee } -> Program.find_func program callee
  | _ -> None

(* Registers written by each block, with a call treated as writing
   everything its callee writes, transitively through the call graph
   (a conservative union). Each function's transitive mask is computed
   once and shared by every block that calls it. *)
let all_block_defs program =
  let funcs = program.Program.funcs in
  let n = Array.length funcs in
  let fold_instrs f acc fn =
    Array.fold_left (fun acc b -> Array.fold_left f acc b.Block.body) acc
      fn.Func.blocks
  in
  let own = Array.map (fold_instrs instr_defs 0) funcs in
  let callees =
    Array.map
      (fold_instrs
         (fun acc ins ->
           match callee_index program ins with
           | Some fi -> fi :: acc
           | None -> acc)
         [])
      funcs
  in
  let closure =
    Array.init n (fun root ->
        let seen = Array.make n false in
        let rec visit acc fi =
          if seen.(fi) then acc
          else begin
            seen.(fi) <- true;
            List.fold_left visit (acc lor own.(fi)) callees.(fi)
          end
        in
        visit 0 root)
  in
  Array.map
    (fun f ->
      Array.map
        (fun b ->
          Array.fold_left
            (fun acc ins ->
              let acc = instr_defs acc ins in
              match callee_index program ins with
              | Some fi -> acc lor closure.(fi)
              | None -> acc)
            0 b.Block.body)
        f.Func.blocks)
    funcs

let create ?(params = Params.default) linked profile =
  let program = linked.Linked.program in
  let callee_size, callee_cbr = call_weights program in
  let defs = all_block_defs program in
  let fns =
    Array.init (Program.num_funcs program) (fun index ->
        let f = Program.func program index in
        let cfg = Cfg.of_func f in
        let nb = Func.num_blocks f in
        let block_weight = Array.make nb 0 in
        let block_cbr = Array.make nb 0 in
        for bi = 0 to nb - 1 do
          let b = Func.block f bi in
          let w = ref (Block.size b) and c = ref 0 in
          Array.iter
            (fun ins ->
              match ins with
              | Instr.Call { callee } ->
                  w := !w + Hashtbl.find callee_size callee;
                  c := !c + Hashtbl.find callee_cbr callee
              | _ -> ())
            b.Block.body;
          if Block.is_conditional b then incr c;
          block_weight.(bi) <- !w;
          block_cbr.(bi) <- !c
        done;
        {
          index;
          cfg;
          dom = Dom.of_cfg cfg;
          postdom = Postdom.of_cfg cfg;
          loops = Loops.of_cfg cfg;
          live = Live.of_func f;
          block_weight;
          block_cbr;
          block_def_mask = defs.(index);
        })
  in
  { linked; profile; params; fns }

let fn t i = t.fns.(i)
let num_fns t = Array.length t.fns

let branch_addr t ~func ~block =
  let f = Program.func t.linked.Linked.program func in
  let b = Func.block f block in
  Linked.block_addr t.linked ~func ~block + Array.length b.Block.body

(* Same computation without a full analysis context (used by passes
   that only have a linked program). *)
let branch_addr' linked ~func ~block =
  let f = Program.func linked.Linked.program func in
  let b = Func.block f block in
  Linked.block_addr linked ~func ~block + Array.length b.Block.body

let block_start_addr t ~func ~block =
  Linked.block_addr t.linked ~func ~block

let edge_prob t ~func ~block ~dir = Profile.edge_prob t.profile ~func ~block ~dir

let block_defs t ~func ~block = regs_of_mask t.fns.(func).block_def_mask.(block)

(* Select-µops needed when two predicated paths writing [defs] merge at
   the entry of [cfm_block]: one per register live there. *)
let select_count t ~func ~cfm_block defs =
  if not t.params.Params.live_selects then List.length defs
  else
    let live = (fn t func).live in
    List.length
      (List.filter
         (fun reg -> Live.is_live_in live ~block:cfm_block ~reg)
         defs)

(* For return CFM points the continuation is in the caller; registers
   below the scratch range are assumed live across the return (our
   software convention: r20+ are intra-motif scratch). *)
let ret_select_count _t defs =
  List.length (List.filter (fun reg -> reg < 20) defs)
