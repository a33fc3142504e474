(* Simulator cost per merge-point provider: every benchmark's reduced
   image simulated under the baseline machine, the static compiler
   annotation (all-best-heur), the dynamic Merge Point Table and the
   oracle IPOSDOM annotation, plus one 4-lane fused kernel per
   benchmark. Each simulation is a span whose work is the instructions
   it retired. *)

open Common
open Dmp_uarch

let retired (s : Stats.t) = float_of_int s.Stats.retired

let providers = [ "baseline"; "static"; "mpt"; "oracle" ]

(* The four selections a fused kernel carries: distinct variants, so the
   lanes really diverge. *)
let fused_algos = [ "exact"; "all-best-heur"; "all-best-cost"; "every-br" ]

let run r images =
  let wrong = ref 0 and static_retired = ref 0 in
  List.iter
    (fun (spec, linked, image, anns) ->
      let name = spec.Dmp_workload.Spec.name in
      let sim p config annotation =
        Spans.record_with ~work:retired ("uarch.sim." ^ p) (fun () ->
            Sim.run_image ~config ?annotation linked image)
      in
      let static_ann = List.assoc "all-best-heur" anns in
      let stats =
        [ ("baseline", sim "baseline" Config.baseline None);
          ("static", sim "static" Config.dmp (Some static_ann));
          ("mpt", sim "mpt" (Config.dmp_dynamic Dmp_mpp.Mpt.default) None);
          ("oracle",
            sim "oracle" Config.dmp (Some (Dmp_mpp.Oracle.annotation linked))) ]
      in
      List.iter
        (fun (p, (s : Stats.t)) ->
          count r (Printf.sprintf "uarch.cycles.%s.%s" p name) s.Stats.cycles)
        stats;
      let st = List.assoc "static" stats in
      wrong := !wrong + st.Stats.wrong_side_insts;
      static_retired := !static_retired + st.Stats.retired;
      let lanes =
        List.map (fun a -> (Some (List.assoc a anns), None)) fused_algos
      in
      let fused =
        Spans.record_with
          ~work:(fun l -> sum (List.map retired l))
          "uarch.fused4"
          (fun () -> Sim.run_image_fused ~config:Config.dmp linked image lanes)
      in
      (* Lane 1 carries the static annotation: a fused lane must match its
         solo run exactly. *)
      check r
        (Stats.equal (List.nth fused 1) st)
        ("fused lane differs from its solo simulation on " ^ name))
    images;
  List.iter
    (fun p ->
      let a = Spans.agg ("uarch.sim." ^ p) in
      metric r ("uarch.sim_ns_per_inst." ^ p) (a.Spans.seconds *. 1e9 /. a.Spans.awork) "ns";
      metric r ("uarch.sim_words_per_inst." ^ p) (a.Spans.awords /. a.Spans.awork) "words";
      count r ("uarch.retired." ^ p) (int_of_float a.Spans.awork);
      count r ("uarch.words." ^ p) (int_of_float a.Spans.awords))
    providers;
  let f = Spans.agg "uarch.fused4" in
  metric r "uarch.fused4_ns_per_lane_inst" (f.Spans.seconds *. 1e9 /. f.Spans.awork) "ns";
  metric r "uarch.wrong_path_per_inst"
    (float_of_int !wrong /. float_of_int !static_retired) "ratio";
  count r "uarch.wrong_path_insts" !wrong
