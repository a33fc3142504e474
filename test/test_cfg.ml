open Dmp_ir
open Dmp_cfg
module B = Build

let check = Alcotest.check
let reg = Reg.of_int

(* Diamond: 0 -> {1,2} -> 3(halt). *)
let diamond () =
  let f = B.func "d" in
  B.branch f Term.Ne (reg 4) (B.imm 0) ~target:"t" ();
  B.label f "f";
  B.nop f;
  B.jump f "j";
  B.label f "t";
  B.nop f;
  B.label f "j";
  B.halt f;
  B.finish f

(* Self loop: 0 -> 1 -> 1 | 2(halt). *)
let self_loop () =
  let f = B.func "l" in
  B.li f (reg 4) 5;
  B.label f "head";
  B.sub f (reg 4) (reg 4) (B.imm 1);
  B.branch f Term.Gt (reg 4) (B.imm 0) ~target:"head" ();
  B.label f "exit";
  B.halt f;
  B.finish f

let test_successors () =
  let cfg = Cfg.of_func (diamond ()) in
  check Alcotest.(list int) "entry succs" [ 2; 1 ]
    (Cfg.successor_blocks cfg 0);
  check Alcotest.(list int) "join preds sorted" [ 1; 2 ]
    (List.sort compare (Cfg.predecessors cfg 3));
  check Alcotest.(list int) "exits" [ 3 ] (Cfg.exits cfg)

let test_reverse_postorder () =
  let cfg = Cfg.of_func (diamond ()) in
  let rpo = Cfg.reverse_postorder cfg in
  check Alcotest.int "starts at entry" 0 (List.hd rpo);
  check Alcotest.int "all reachable" 4 (List.length rpo);
  (* join must come after both arms *)
  let pos x = ref (-1) |> fun r ->
    List.iteri (fun i b -> if b = x then r := i) rpo;
    !r
  in
  Alcotest.(check bool) "join last" true (pos 3 > pos 1 && pos 3 > pos 2)

let test_dominators () =
  let cfg = Cfg.of_func (diamond ()) in
  let dom = Dom.of_cfg cfg in
  check Alcotest.(option int) "idom of arm" (Some 0) (Dom.idom dom 1);
  check Alcotest.(option int) "idom of join" (Some 0) (Dom.idom dom 3);
  check Alcotest.bool "entry dominates all" true (Dom.dominates dom 0 3);
  check Alcotest.bool "arm does not dominate join" false
    (Dom.dominates dom 1 3);
  check Alcotest.bool "strict" false (Dom.strictly_dominates dom 3 3)

let test_postdominators () =
  let cfg = Cfg.of_func (diamond ()) in
  let pd = Postdom.of_cfg cfg in
  check Alcotest.(option int) "ipostdom of entry is join" (Some 3)
    (Postdom.ipostdom pd 0);
  check Alcotest.(option int) "ipostdom of arm" (Some 3)
    (Postdom.ipostdom pd 1);
  check Alcotest.(option int) "join has none" None (Postdom.ipostdom pd 3);
  check Alcotest.bool "join postdominates entry" true
    (Postdom.postdominates pd 3 0)

let test_postdom_two_returns () =
  (* Arms that return separately: no IPOSDOM for the branch block. *)
  let f = B.func "r" in
  B.branch f Term.Ne (reg 4) (B.imm 0) ~target:"a" ();
  B.label f "b";
  B.ret f;
  B.label f "a";
  B.ret f;
  let cfg = Cfg.of_func (B.finish f) in
  let pd = Postdom.of_cfg cfg in
  check Alcotest.(option int) "no ipostdom" None (Postdom.ipostdom pd 0)

let test_loops () =
  let cfg = Cfg.of_func (self_loop ()) in
  let loops = Loops.of_cfg cfg in
  check Alcotest.int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  check Alcotest.int "header" 1 l.Loops.header;
  check Alcotest.(list int) "body" [ 1 ] l.Loops.body;
  check Alcotest.(list int) "exit branch" [ 1 ] l.Loops.exit_branches;
  match Loops.loop_of_branch loops 1 with
  | Some l' -> check Alcotest.int "lookup" l.Loops.header l'.Loops.header
  | None -> Alcotest.fail "exit branch not found"

let test_nested_loops () =
  let f = B.func "n" in
  B.li f (reg 4) 3;
  B.label f "outer";
  B.li f (reg 5) 3;
  B.label f "inner";
  B.sub f (reg 5) (reg 5) (B.imm 1);
  B.branch f Term.Gt (reg 5) (B.imm 0) ~target:"inner" ();
  B.label f "latch";
  B.sub f (reg 4) (reg 4) (B.imm 1);
  B.branch f Term.Gt (reg 4) (B.imm 0) ~target:"outer" ();
  B.label f "exit";
  B.halt f;
  let cfg = Cfg.of_func (B.finish f) in
  let loops = Loops.of_cfg cfg in
  check Alcotest.int "two loops" 2 (List.length loops);
  (* inner loop body strictly smaller *)
  let sizes =
    List.sort compare (List.map (fun l -> List.length l.Loops.body) loops)
  in
  check Alcotest.bool "nesting" true (List.hd sizes < List.nth sizes 1)

let test_liveness () =
  (* r4 live through the hammock (read at join), r5 dead after branch. *)
  let f = B.func "v" in
  B.read f (reg 4);
  B.read f (reg 5);
  B.branch f Term.Ne (reg 5) (B.imm 0) ~target:"t" ();
  B.label f "f";
  B.li f (reg 6) 1;
  B.jump f "j";
  B.label f "t";
  B.li f (reg 6) 2;
  B.label f "j";
  B.add f (reg 7) (reg 4) (B.reg (reg 6));
  B.write f (reg 7);
  B.halt f;
  let fn = B.finish f in
  let live = Live.of_func fn in
  check Alcotest.bool "r4 live into join" true
    (Live.is_live_in live ~block:3 ~reg:4);
  check Alcotest.bool "r6 live into join" true
    (Live.is_live_in live ~block:3 ~reg:6);
  check Alcotest.bool "r5 dead into arm" false
    (Live.is_live_in live ~block:1 ~reg:5);
  check Alcotest.bool "r4 live into arm" true
    (Live.is_live_in live ~block:1 ~reg:4)

let test_dot () =
  let s = Dot.of_cfg (Cfg.of_func (diamond ())) in
  check Alcotest.bool "digraph" true
    (String.length s > 0 && String.sub s 0 7 = "digraph")

(* ---------- property tests on random CFGs ---------- *)

let with_random_cfg n k =
  let st = Random.State.make [| n; 23 |] in
  let program = Helpers.random_program st ~nblocks:n in
  k (Cfg.of_func (Program.main_func program))

let qcheck_dominator_props =
  QCheck.Test.make ~name:"dominator invariants" ~count:80
    QCheck.(int_range 2 25)
    (fun n ->
      with_random_cfg n (fun cfg ->
          let dom = Dom.of_cfg cfg in
          let reach = Cfg.reachable cfg in
          let ok = ref true in
          for b = 0 to Cfg.num_nodes cfg - 1 do
            if reach.(b) then begin
              (* entry dominates every reachable node *)
              if not (Dom.dominates dom Cfg.entry b) then ok := false;
              (* idom strictly dominates *)
              match Dom.idom dom b with
              | Some d ->
                  if not (Dom.strictly_dominates dom d b) then ok := false
              | None -> if b <> Cfg.entry then ok := false
            end
          done;
          !ok))

let qcheck_postdom_props =
  QCheck.Test.make ~name:"postdominator invariants" ~count:80
    QCheck.(int_range 2 25)
    (fun n ->
      with_random_cfg n (fun cfg ->
          let pd = Postdom.of_cfg cfg in
          let ok = ref true in
          for b = 0 to Cfg.num_nodes cfg - 1 do
            match Postdom.ipostdom pd b with
            | Some d ->
                if d = b then ok := false;
                if not (Postdom.postdominates pd d b) then ok := false
            | None -> ()
          done;
          !ok))

(* Liveness as first written: every fixpoint round re-walks each block
   instruction by instruction. [Live.of_func] summarises each block once
   and must reach the same sets. *)
let reference_live_in f =
  let module R = Live.Rset in
  let uses = function
    | Instr.Call _ -> List.init 14 (fun i -> 2 + i)
    | ins -> List.map Reg.to_int (Instr.uses ins)
  and defs = function
    | Instr.Call _ -> []
    | ins -> List.map Reg.to_int (Instr.defs ins)
  in
  let n = Func.num_blocks f in
  let live_in = Array.make n R.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      let blk = Func.block f b in
      let live =
        ref
          (match blk.Block.term with
          | Term.Ret -> R.singleton (Reg.to_int Reg.ret_value)
          | Term.Halt -> R.empty
          | term ->
              List.fold_left
                (fun acc s -> R.union acc live_in.(s))
                R.empty (Term.successors term))
      in
      List.iter
        (fun r -> live := R.add (Reg.to_int r) !live)
        (Term.uses blk.Block.term);
      for i = Array.length blk.Block.body - 1 downto 0 do
        let ins = blk.Block.body.(i) in
        List.iter (fun r -> live := R.remove r !live) (defs ins);
        List.iter (fun r -> live := R.add r !live) (uses ins)
      done;
      if not (R.equal !live live_in.(b)) then begin
        live_in.(b) <- !live;
        changed := true
      end
    done
  done;
  live_in

(* On generated programs and on every registered benchmark. *)
let test_liveness_reference () =
  let programs =
    List.map fst (Helpers.generated_programs ~seed:3 40)
    @ List.map
        (fun spec -> (Dmp_workload.Spec.linked spec).Linked.program)
        Dmp_workload.Registry.all
  in
  List.iter
    (fun program ->
      Array.iter
        (fun f ->
          let live = Live.of_func f in
          Array.iteri
            (fun b expected ->
              check Alcotest.(list int)
                (Printf.sprintf "live-in of %s block %d" f.Func.name b)
                (Live.Rset.elements expected)
                (Live.Rset.elements (Live.live_in live b)))
            (reference_live_in f))
        program.Program.funcs)
    programs

let qcheck_loop_headers_dominate =
  QCheck.Test.make ~name:"loop headers dominate their bodies" ~count:80
    QCheck.(int_range 2 25)
    (fun n ->
      with_random_cfg n (fun cfg ->
          let dom = Dom.of_cfg cfg in
          List.for_all
            (fun l ->
              List.for_all
                (fun b -> Dom.dominates dom l.Loops.header b)
                l.Loops.body)
            (Loops.of_cfg cfg)))

let () =
  Alcotest.run "dmp_cfg"
    [
      ( "cfg",
        [
          Alcotest.test_case "successors" `Quick test_successors;
          Alcotest.test_case "reverse postorder" `Quick
            test_reverse_postorder;
          Alcotest.test_case "dot" `Quick test_dot;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dominators;
          Alcotest.test_case "postdominators" `Quick test_postdominators;
          Alcotest.test_case "two returns" `Quick test_postdom_two_returns;
        ] );
      ( "loops",
        [
          Alcotest.test_case "self loop" `Quick test_loops;
          Alcotest.test_case "nested" `Quick test_nested_loops;
        ] );
      ( "liveness",
        [ Alcotest.test_case "hammock" `Quick test_liveness;
          Alcotest.test_case "matches reference" `Quick
            test_liveness_reference ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_dominator_props;
          QCheck_alcotest.to_alcotest qcheck_postdom_props;
          QCheck_alcotest.to_alcotest qcheck_loop_headers_dominate;
        ] );
    ]
