(* Classic backward liveness over registers. Used by the DMP compiler to
   count select-µops: only registers live at a CFM point need a
   select-µop to reconcile the two predicated paths. *)

open Dmp_ir

module Rset = Set.Make (Int)

type t = { live_in : Rset.t array; live_out : Rset.t array }

(* A call is treated as reading the argument registers and the
   condition registers r2..r15 (our software convention) and defining
   nothing — conservative in the direction that keeps registers live. *)
let call_uses = List.init 14 (fun i -> 2 + i)

let instr_uses ins =
  match ins with
  | Instr.Call _ -> call_uses
  | _ -> List.map Reg.to_int (Instr.uses ins)

let instr_defs ins =
  match ins with
  | Instr.Call _ -> []
  | _ -> List.map Reg.to_int (Instr.defs ins)

(* A block's effect on liveness, [live_in = gen ∪ (live_out − kill)]:
   [gen] is what a backward walk from the terminator's uses leaves live
   (the upward-exposed uses) and [kill] every register the body writes.
   Computed once per block, so the fixpoint below only does set
   algebra. *)
let gen_kill b =
  let gen = ref Rset.empty and kill = ref Rset.empty in
  List.iter
    (fun r -> gen := Rset.add (Reg.to_int r) !gen)
    (Term.uses b.Block.term);
  for i = Array.length b.Block.body - 1 downto 0 do
    let ins = b.Block.body.(i) in
    List.iter
      (fun r ->
        gen := Rset.remove r !gen;
        kill := Rset.add r !kill)
      (instr_defs ins);
    List.iter (fun r -> gen := Rset.add r !gen) (instr_uses ins)
  done;
  (!gen, !kill)

let of_func f =
  let n = Func.num_blocks f in
  let transfer = Array.init n (fun b -> gen_kill (Func.block f b)) in
  (* Invariant: [live_in.(b) = gen ∪ (live_out.(b) − kill)], so a block
     needs recomputing only when its [live_out] changes. *)
  let live_in = Array.map fst transfer in
  let live_out = Array.make n Rset.empty in
  let exit_live = Rset.singleton (Reg.to_int Reg.ret_value) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      let blk = Func.block f b in
      let out =
        match blk.Block.term with
        | Term.Ret -> exit_live
        | Term.Halt -> Rset.empty
        | Term.Branch _ | Term.Jump _ ->
            List.fold_left
              (fun acc s -> Rset.union acc live_in.(s))
              Rset.empty
              (Term.successors blk.Block.term)
      in
      if not (Rset.equal out live_out.(b)) then begin
        let gen, kill = transfer.(b) in
        live_out.(b) <- out;
        live_in.(b) <- Rset.union gen (Rset.diff out kill);
        changed := true
      end
    done
  done;
  { live_in; live_out }

let live_in t block = t.live_in.(block)
let live_out t block = t.live_out.(block)
let is_live_in t ~block ~reg = Rset.mem reg t.live_in.(block)
let cardinal_live_in t block = Rset.cardinal t.live_in.(block)
