(* Shared builders for the test suite: canonical CFG shapes and a random
   program generator for property-based tests. *)

open Dmp_ir
module B = Build

let reg = Reg.of_int

(* Fail the current test on the first error-severity diagnostic. *)
let fail_on_errors label ds =
  let module D = Dmp_check.Diagnostic in
  if D.has_errors ds then
    Alcotest.failf "%s: %d violations; first: %s" label
      (List.length (D.errors ds))
      (Fmt.str "%a" D.pp (List.hd (D.errors ds)))

(* if (r4 % 2) { r7 += 1 } else { r7 -= 1 }; common tail; repeated
   [iters] times. One unpredictable simple hammock. *)
let simple_hammock_program ?(iters = 2000) ?(then_size = 3) ?(else_size = 3)
    () =
  let f = B.func "main" in
  let v = reg 4 and c = reg 5 and n = reg 6 and acc = reg 7 in
  B.li f n iters;
  B.label f "loop";
  B.read f v;
  B.rem f c v (B.imm 2);
  B.branch f Term.Ne c (B.imm 0) ~target:"then" ();
  B.label f "else";
  for _ = 1 to else_size do
    B.sub f acc acc (B.imm 1)
  done;
  B.jump f "join";
  B.label f "then";
  for _ = 1 to then_size do
    B.add f acc acc (B.imm 1)
  done;
  B.label f "join";
  B.add f acc acc (B.reg v);
  B.write f acc;
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"loop" ();
  B.label f "end";
  B.halt f;
  Program.of_funcs_exn ~main:"main" [ B.finish f ]

(* Frequently-hammock: taken side rarely (when r4 % 100 < 5) escapes to
   a long cold path that bypasses the join. *)
let freq_hammock_program ?(iters = 2000) () =
  let f = B.func "main" in
  let v = reg 4 and c = reg 5 and rare = reg 8 and n = reg 6 in
  let acc = reg 7 in
  B.li f n iters;
  B.label f "loop";
  B.read f v;
  B.rem f c v (B.imm 2);
  B.rem f rare v (B.imm 100);
  B.alu f Instr.Slt rare rare (B.imm 5);
  B.branch f Term.Ne c (B.imm 0) ~target:"hot_t" ();
  B.label f "hot_nt";
  B.sub f acc acc (B.imm 1);
  B.jump f "join";
  B.label f "hot_t";
  B.add f acc acc (B.imm 1);
  B.branch f Term.Ne rare (B.imm 0) ~target:"cold" ();
  B.label f "hot_t2";
  B.add f acc acc (B.imm 2);
  B.jump f "join";
  B.label f "cold";
  for _ = 1 to 90 do
    B.add f acc acc (B.imm 3)
  done;
  B.jump f "after";
  B.label f "join";
  B.add f acc acc (B.reg v);
  B.label f "after";
  B.write f acc;
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"loop" ();
  B.label f "end";
  B.halt f;
  Program.of_funcs_exn ~main:"main" [ B.finish f ]

(* Data-dependent inner loop (trip = r4 % 6 + 1) inside an outer loop. *)
let data_loop_program ?(iters = 2000) ?(modulus = 6) ?(body = 3) () =
  let f = B.func "main" in
  let v = reg 4 and trip = reg 5 and n = reg 6 and acc = reg 7 in
  B.li f n iters;
  B.label f "outer";
  B.read f v;
  B.rem f trip v (B.imm modulus);
  B.add f trip trip (B.imm 1);
  B.label f "inner";
  for _ = 1 to body do
    B.add f acc acc (B.imm 1)
  done;
  B.sub f trip trip (B.imm 1);
  B.branch f Term.Gt trip (B.imm 0) ~target:"inner" ();
  B.label f "after";
  B.add f acc acc (B.reg v);
  B.write f acc;
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"outer" ();
  B.label f "end";
  B.halt f;
  Program.of_funcs_exn ~main:"main" [ B.finish f ]

(* Caller + callee whose arms return separately (return-CFM shape). *)
let ret_cfm_program ?(iters = 2000) () =
  let callee = B.func "decide" in
  B.branch callee Term.Ne (reg 4) (B.imm 0) ~target:"a" ();
  B.label callee "b";
  B.sub callee (reg 7) (reg 7) (B.imm 1);
  B.ret callee;
  B.label callee "a";
  B.add callee (reg 7) (reg 7) (B.imm 1);
  B.ret callee;
  let callee = B.finish callee in
  let f = B.func "main" in
  let v = reg 5 and n = reg 6 in
  B.li f n iters;
  B.label f "loop";
  B.read f v;
  B.rem f (reg 4) v (B.imm 2);
  B.call f "decide";
  B.write f (reg 7);
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"loop" ();
  B.label f "end";
  B.halt f;
  Program.of_funcs_exn ~main:"main" [ B.finish f; callee ]

let uniform_input ?(seed = 99) n =
  let st = Random.State.make [| seed |] in
  Array.init n (fun _ -> Random.State.int st 1_000_000)

(* Random (but always well-formed) single-function programs for
   property-based tests: [nblocks] blocks, each with a few arithmetic
   instructions and a random terminator; the last block halts. Every
   register used is below r16 and the block graph is arbitrary, so this
   exercises CFG analyses on irregular shapes. *)
let random_func rand_state ~nblocks =
  let st = rand_state in
  let f = B.func "main" in
  let lbl i = Printf.sprintf "b%d" i in
  (* fuel guards against non-terminating programs *)
  let fuel = reg 15 in
  B.li f fuel 3000;
  B.jump f (lbl 0);
  for i = 0 to nblocks - 1 do
    B.label f (lbl i);
    B.sub f fuel fuel (B.imm 1);
    B.branch f Term.Le fuel (B.imm 0) ~target:"end"
      ~fall:(lbl i ^ "_body") ();
    B.label f (lbl i ^ "_body");
    for _ = 1 to 1 + Random.State.int st 3 do
      let d = reg (4 + Random.State.int st 8) in
      let s = reg (4 + Random.State.int st 8) in
      B.alu f
        (match Random.State.int st 4 with
        | 0 -> Instr.Add
        | 1 -> Instr.Sub
        | 2 -> Instr.Xor
        | _ -> Instr.And)
        d s
        (B.imm (Random.State.int st 16))
    done;
    let target () = lbl (Random.State.int st nblocks) in
    match Random.State.int st 4 with
    | 0 -> B.jump f (target ())
    | 1 | 2 ->
        let c = reg (4 + Random.State.int st 8) in
        B.branch f Term.Gt c (B.imm (Random.State.int st 8))
          ~target:(target ()) ~fall:(target ()) ()
    | _ -> B.jump f "end"
  done;
  B.label f "end";
  B.halt f;
  B.finish f

let random_program rand_state ~nblocks =
  Program.of_funcs_exn ~main:"main" [ random_func rand_state ~nblocks ]

(* Coverage-guided motif stream (lib/check): deterministic
   (program, input) pairs biased toward the paper's structural shapes —
   simple / nested / frequently / short hammocks, return CFMs, diverge
   loops. Property tests use it when they need selection to actually
   fire, which the fully irregular CFGs above rarely achieve.

   Memoized per (seed, count): the generator is deterministic, so the
   stream is a pure function of its arguments, and several suites ask
   for the same prefixes — each suite runs single-threaded, so a plain
   table suffices. *)
let generated_cache :
    (int * int, (Dmp_ir.Program.t * int array) list) Hashtbl.t =
  Hashtbl.create 8

let generated_programs ~seed n =
  match Hashtbl.find_opt generated_cache (seed, n) with
  | Some programs -> programs
  | None ->
      let gen = Dmp_check.Generator.create ~seed in
      let programs = List.init n (fun _ -> Dmp_check.Generator.next gen) in
      Hashtbl.replace generated_cache (seed, n) programs;
      programs
