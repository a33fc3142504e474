open Dmp_ir
open Dmp_core
open Dmp_exec
open Dmp_check
module D = Diagnostic

let check = Alcotest.check

let first_error_string ds =
  Fmt.str "%a" D.pp (List.hd (D.errors ds))

let fail_on_errors = Helpers.fail_on_errors

let has_rule rule ds = List.exists (fun d -> d.D.rule = rule) ds

(* ---------- invariant validator: validate o select never fails ---------- *)

let validate_both_configs linked profile =
  List.for_all
    (fun (label, (config : Select.config)) ->
      let ann = Select.run ~config linked profile in
      let ds =
        Invariants.check ~params:config.Select.params
          ~mode:config.Select.mode linked profile ann
      in
      if D.has_errors ds then
        QCheck.Test.fail_reportf "%s: %s" label (first_error_string ds)
      else true)
    Suite.configs

let qcheck_validate_select_irregular =
  QCheck.Test.make ~name:"validate o select on irregular CFGs" ~count:25
    QCheck.(int_range 3 15)
    (fun n ->
      let st = Random.State.make [| n; 77 |] in
      let linked = Linked.link (Helpers.random_program st ~nblocks:n) in
      let profile =
        Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 64)
      in
      validate_both_configs linked profile)

(* the same property over the coverage-guided motif stream, where
   selection actually fires on every structural shape *)
let qcheck_validate_select_motifs =
  QCheck.Test.make ~name:"validate o select on motif programs" ~count:8
    QCheck.(int_range 1 1_000)
    (fun seed ->
      List.for_all
        (fun (program, input) ->
          let linked = Linked.link program in
          let profile = Dmp_profile.Profile.collect linked ~input in
          validate_both_configs linked profile)
        (Helpers.generated_programs ~seed 3))

(* the canonical helper shapes must validate cleanly end to end *)
let test_helper_programs_validate () =
  List.iter
    (fun (name, program, ninput) ->
      let linked = Linked.link program in
      let input = Helpers.uniform_input ninput in
      let profile = Dmp_profile.Profile.collect linked ~input in
      List.iter
        (fun (label, (config : Select.config)) ->
          let ann = Select.run ~config linked profile in
          fail_on_errors
            (name ^ "/" ^ label)
            (Invariants.check ~params:config.Select.params
               ~mode:config.Select.mode linked profile ann))
        Suite.configs)
    [
      ("simple", Helpers.simple_hammock_program (), 2_100);
      ("freq", Helpers.freq_hammock_program (), 2_100);
      ("loop", Helpers.data_loop_program (), 2_100);
      ("ret", Helpers.ret_cfm_program (), 2_100);
    ]

(* ---------- mutation: corrupted annotations are caught, located ---------- *)

let test_mutation_caught () =
  let linked = Linked.link (Helpers.simple_hammock_program ()) in
  let input = Helpers.uniform_input 2_100 in
  let profile = Dmp_profile.Profile.collect linked ~input in
  let ann = Select.run linked profile in
  fail_on_errors "pre-mutation"
    (Invariants.check ~mode:Select.Heuristic linked profile ann);
  match Suite.mutate_annotation linked ann with
  | None -> Alcotest.fail "no hammock CFM to mutate"
  | Some branch_addr ->
      let ds = Invariants.check ~mode:Select.Heuristic linked profile ann in
      let errs = D.errors ds in
      check Alcotest.bool "violations reported" true (errs <> []);
      check Alcotest.bool "unreachable CFM diagnosed" true
        (has_rule "cfm-unreachable" errs);
      let l = Linked.loc linked branch_addr in
      let corrupted_cfm =
        Linked.block_addr linked ~func:l.Linked.func ~block:0
      in
      check Alcotest.bool "diagnostics located at the corrupted CFM" true
        (List.exists (fun d -> d.D.addr = Some corrupted_cfm) errs);
      List.iter
        (fun d ->
          check Alcotest.bool "every violation carries a location" true
            (d.D.addr <> None || d.D.block <> None || d.D.func <> None))
        errs

let test_mutation_via_suite () =
  let linked = Linked.link (Helpers.simple_hammock_program ~iters:500 ()) in
  let input = Helpers.uniform_input 600 in
  let clean = Suite.check_program linked ~input in
  fail_on_errors "clean program" clean;
  let mutated = Suite.check_program ~mutate:true linked ~input in
  check Alcotest.bool "mutated run fails" true (D.has_errors mutated)

(* ---------- differential oracle ---------- *)

let test_oracle_agreement () =
  List.iter
    (fun (name, program, ninput) ->
      let linked = Linked.link program in
      let input = Helpers.uniform_input ninput in
      let profile = Dmp_profile.Profile.collect linked ~input in
      let annotations =
        List.map
          (fun (label, config) ->
            (label, Select.run ~config linked profile))
          Suite.configs
      in
      fail_on_errors name (Oracle.run ~annotations linked ~input))
    [
      ("freq", Helpers.freq_hammock_program ~iters:400 (), 500);
      ("loop", Helpers.data_loop_program ~iters:400 (), 500);
    ]

let test_stats_mismatch_pinpointed () =
  let a = Dmp_uarch.Stats.create () and b = Dmp_uarch.Stats.create () in
  check
    Alcotest.(list (triple string int int))
    "equal stats diff empty" []
    (Oracle.stats_mismatches a b);
  check Alcotest.int "27 counters diffed" 27
    (List.length (Dmp_uarch.Stats.fields a));
  a.Dmp_uarch.Stats.cycles <- 7;
  b.Dmp_uarch.Stats.dpred_merges <- 5;
  check
    Alcotest.(list (triple string int int))
    "each differing field pinpointed"
    [ ("cycles", 7, 0); ("dpred_merges", 0, 5) ]
    (Oracle.stats_mismatches a b)

(* Feeding the oracle streams from the wrong execution pinpoints the
   divergence: the first differing event, by index and address. *)
let test_stream_divergence_detected () =
  let linked = Linked.link (Helpers.simple_hammock_program ~iters:50 ()) in
  let input = Helpers.uniform_input 100 in
  let other = Helpers.uniform_input ~seed:5 100 in
  let tr = Trace.capture linked ~input in
  let tr_other = Trace.capture linked ~input:other in
  fail_on_errors "matching streams"
    (Oracle.check_streams linked ~input tr (Image.of_trace tr));
  let ds_image =
    Oracle.check_streams linked ~input tr (Image.of_trace tr_other)
  in
  check Alcotest.bool "image divergence reported" true
    (has_rule "oracle-image-divergence" ds_image
    || has_rule "oracle-image-length" ds_image);
  let ds_trace =
    Oracle.check_streams linked ~input:other tr (Image.of_trace tr)
  in
  check Alcotest.bool "trace divergence reported" true
    (has_rule "oracle-trace-divergence" ds_trace
    || has_rule "oracle-stream-length" ds_trace)

(* ---------- coverage-guided generation ---------- *)

let test_generator_coverage () =
  let gen = Generator.create ~seed:7 in
  let budget = 40 in
  let i = ref 0 in
  while (not (Generator.all_covered gen)) && !i < budget do
    incr i;
    let program, input = Generator.next gen in
    let linked = Linked.link program in
    let profile = Dmp_profile.Profile.collect linked ~input in
    let ann = Select.run linked profile in
    Generator.note gen ann;
    fail_on_errors
      (Printf.sprintf "generated program %d" !i)
      (Invariants.check ~mode:Select.Heuristic linked profile ann)
  done;
  if not (Generator.all_covered gen) then
    Alcotest.failf "coverage incomplete after %d programs: %s" budget
      (Generator.coverage_report gen);
  List.iter
    (fun s ->
      check Alcotest.bool
        (Generator.shape_to_string s ^ " observed")
        true
        (Generator.covered gen s > 0))
    Generator.all_shapes;
  check Alcotest.int "generated count tracked" !i (Generator.generated gen)

let test_generator_deterministic () =
  let stream seed =
    List.map
      (fun (p, input) -> (Fmt.str "%a" Program.pp p, input))
      (Helpers.generated_programs ~seed 6)
  in
  check Alcotest.bool "same seed, same stream" true (stream 3 = stream 3);
  check Alcotest.bool "different seed, different stream" true
    (stream 3 <> stream 4)

(* ---------- benchmark-level driver ---------- *)

let test_suite_benchmark () =
  let spec = Dmp_workload.Registry.find "li" in
  let ok =
    Suite.check_benchmark ~max_insts:30_000 ~set:Dmp_workload.Input_gen.Reduced
      spec
  in
  check Alcotest.string "outcome named" "li" ok.Suite.name;
  fail_on_errors "li" ok.Suite.diagnostics;
  let mutated =
    Suite.check_benchmark ~max_insts:30_000 ~mutate:true
      ~set:Dmp_workload.Input_gen.Reduced spec
  in
  check Alcotest.bool "mutation smoke fails" true
    (D.has_errors mutated.Suite.diagnostics)

let test_suite_random () =
  let outcomes, gen = Suite.check_random ~max_insts:40_000 ~n:4 ~seed:11 () in
  check Alcotest.int "one outcome per program" 4 (List.length outcomes);
  List.iter (fun o -> fail_on_errors o.Suite.name o.Suite.diagnostics) outcomes;
  check Alcotest.int "all generations recorded" 4 (Generator.generated gen)

let () =
  Alcotest.run "dmp_check"
    [
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest qcheck_validate_select_irregular;
          QCheck_alcotest.to_alcotest qcheck_validate_select_motifs;
          Alcotest.test_case "helper programs validate" `Slow
            test_helper_programs_validate;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "caught and located" `Quick test_mutation_caught;
          Alcotest.test_case "caught via suite" `Quick test_mutation_via_suite;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "agreement" `Slow test_oracle_agreement;
          Alcotest.test_case "stats diff pinpointed" `Quick
            test_stats_mismatch_pinpointed;
          Alcotest.test_case "stream divergence detected" `Quick
            test_stream_divergence_detected;
        ] );
      ( "generator",
        [
          Alcotest.test_case "coverage reached" `Slow test_generator_coverage;
          Alcotest.test_case "deterministic" `Quick
            test_generator_deterministic;
        ] );
      ( "suite",
        [
          Alcotest.test_case "benchmark" `Slow test_suite_benchmark;
          Alcotest.test_case "random" `Slow test_suite_random;
        ] );
    ]
