(* compile-cold: the paper's profiling compiler on its own. Every
   benchmark x {reduced, train, ref} (51 programs) starting from an empty
   disk cache at one job: all 15 static selection variants, two sampled
   profiles (LBR-16 and periodic, period 1000) and the software
   if-conversion pipeline. No simulation. *)

open Common
open Dmp_workload
open Dmp_experiments

let sets = [ Input_gen.Reduced; Input_gen.Train; Input_gen.Ref ]

let programs =
  List.concat_map
    (fun spec -> List.map (fun set -> (spec, set)) sets)
    Registry.all

let samplings seed =
  [ { Dmp_sampling.Sampler.mode = Dmp_sampling.Sampler.Lbr 16; period = 1000; seed };
    { Dmp_sampling.Sampler.mode = Dmp_sampling.Sampler.Periodic; period = 1000; seed } ]

let cache_dir state = Filename.concat state "compile-cache"

let fresh_runner ~state =
  let dir = cache_dir state in
  rm_rf dir;
  mkdir_p dir;
  let runner = Runner.create ~cache_dir:dir ~jobs:1 () in
  List.iter (fun n -> ignore (Runner.linked runner n)) (Runner.names runner);
  runner

let key (spec, set) algo =
  Printf.sprintf "%s/%s/%s" spec.Spec.name (Input_gen.set_to_string set) algo

(* Selection mode and parameters an annotation was selected under, for
   the invariant checker, and whether the checker's derivation rules
   apply. The Figure 8 simple selectors are naive baselines that do not
   derive their diverge branches from the compiler's hammock analyses,
   so the rules that re-derive each branch from those analyses reject
   them by design; every other rule still applies to them. *)
let mode_params algo =
  match Variants.of_string algo with
  | Some ((Variants.Heur _ | Variants.Cost _) as v) ->
      let c = Variants.to_config v in
      (c.Dmp_core.Select.mode, c.Dmp_core.Select.params, true)
  | Some (Variants.Simple _) | None ->
      (Dmp_core.Select.Heuristic, Dmp_core.Params.default, false)

let derivation_rules =
  [ "candidate-not-reconstructible"; "cfm-not-candidate";
    "hammock-on-loop-exit"; "merge-prob-mismatch" ]

(* Check every annotation of a program with the invariant checker,
   building one analysis context per parameter set. *)
let check_annotations r linked profile prog anns =
  let ctxs = Hashtbl.create 2 in
  List.iter
    (fun (algo, ann) ->
      let mode, params, derived = mode_params algo in
      let ctx =
        match Hashtbl.find_opt ctxs params with
        | Some c -> c
        | None ->
            let c = Dmp_core.Context.create ~params linked profile in
            Hashtbl.replace ctxs params c;
            c
      in
      let errors =
        Dmp_check.Invariants.check_annotation ctx ~mode ann
        |> Dmp_check.Diagnostic.errors
        |> List.filter (fun d ->
               derived || not (List.mem d.Dmp_check.Diagnostic.rule derivation_rules))
      in
      check r (errors = [])
        (Printf.sprintf "annotation %s fails the invariant checker: %s"
           (key prog algo)
           (String.concat ", " (List.map (fun d -> d.Dmp_check.Diagnostic.rule) errors))))
    anns

(* One timed unit through the Runner. Returns the wall seconds and every
   annotation, by program and algorithm. *)
let runner_unit ~runner ~state ~seed r =
  check r
    (files_under (cache_dir state) = 0)
    "compile-cold started with a non-empty cache directory";
  Gc.compact ();
  let t0 = now () in
  let anns =
    List.map
      (fun ((spec, set) as prog) ->
        let name = spec.Spec.name in
        let anns =
          List.map
            (fun algo -> (algo, Runner.selection runner name set ~algo))
            Variants.names
        in
        List.iter
          (fun c -> ignore (Runner.sampled_profile runner name set c))
          (samplings seed);
        ignore (Runner.transform runner name set);
        (prog, anns))
      programs
  in
  let wall = now () -. t0 in
  let captures = Sweep.calls runner "trace (capture)" in
  check r
    (captures = List.length programs)
    (Printf.sprintf "compile-cold recorded %d trace captures, expected %d"
       captures (List.length programs));
  (wall, anns)

let run ~state ~seconds ~seed r =
  let walls = ref [] in
  let reference : (string, string) Hashtbl.t = Hashtbl.create 1024 in
  let start = now () in
  while another_unit ~start ~seconds !walls do
    let rn = fresh_runner ~state in
    let wall, anns = runner_unit ~runner:rn ~state ~seed r in
    walls := wall :: !walls;
    Printf.eprintf "perfbench: compile-cold unit %.2f s\n%!" wall;
    (* The first unit's annotations go through the invariant checker;
       every later unit must reproduce them exactly. *)
    let first = Hashtbl.length reference = 0 in
    List.iter
      (fun (((spec, set) as prog), anns) ->
        if first then begin
          let name = spec.Spec.name in
          check_annotations r (Runner.linked rn name)
            (Runner.profile rn name set) prog anns;
          List.iter
            (fun (algo, a) ->
              Hashtbl.replace reference (key prog algo)
                (Dmp_core.Annotation.to_string a))
            anns
        end
        else
          List.iter
            (fun (algo, a) ->
              check r
                (Hashtbl.find_opt reference (key prog algo)
                = Some (Dmp_core.Annotation.to_string a))
                ("annotation changed between units: " ^ key prog algo))
            anns)
      anns
  done;
  rm_rf (cache_dir state);
  metric r "wall_s" (median !walls) "s"

(* Traced pass: the same per-program work decomposed into the layers'
   own public calls, each under a span, plus the disk-cache round trip
   of every trace and profile. Returns each benchmark's reduced-set
   image and annotations for the simulator probes. *)
let traced ~state ~seed r =
  let open Dmp_exec in
  let dir = Filename.concat state "compile-traced-cache" in
  rm_rf dir;
  let cache = Disk_cache.create ~dir ~max_insts:None () in
  let insts = ref 0 and selections = ref 0 and branches = ref 0 in
  let trace_bytes = ref 0 and image_bytes = ref 0 and events = ref 0 in
  let stored_bytes = ref 0 in
  let images = ref [] in
  List.iter
    (fun ((spec, set) as prog) ->
      let name = spec.Spec.name in
      let linked = Spec.linked spec in
      let input = spec.Spec.input set in
      let len t = float_of_int (Trace.length t) in
      let trace =
        Spans.record_with ~work:len "exec.capture" (fun () ->
            Trace.capture linked ~input)
      in
      insts := !insts + Trace.length trace;
      count r ("exec.retired." ^ name ^ "." ^ Input_gen.set_to_string set)
        (Trace.length trace);
      let image =
        Spans.record_with
          ~work:(fun i -> float_of_int (Image.length i))
          "exec.decode"
          (fun () -> Image.of_trace trace)
      in
      trace_bytes := !trace_bytes + Trace.byte_size trace;
      image_bytes := !image_bytes + Image.byte_size image;
      events := !events + Image.length image;
      let profile =
        Spans.record_with ~work:(fun _ -> len trace) "profile.collect" (fun () ->
            Dmp_profile.Profile.collect_trace linked trace)
      in
      Spans.record "Disk_cache.store" (fun () ->
          Disk_cache.store_trace cache ~bench:name ~set trace;
          Disk_cache.store_profile cache ~bench:name ~set profile);
      List.iter
        (fun config ->
          let s =
            Spans.record_with ~work:(fun _ -> len trace) "sampling.collect" (fun () ->
                Dmp_sampling.Sampler.collect_trace ~config linked trace)
          in
          ignore
            (Spans.record "sampling.reconstruct" (fun () ->
                 Dmp_sampling.Reconstruct.profile linked s)))
        (samplings seed);
      List.iter
        (fun params ->
          ignore
            (Spans.record "core.context" (fun () ->
                 Dmp_core.Context.create ~params linked profile)))
        [ Dmp_core.Params.default; Dmp_core.Params.for_cost_model ];
      let anns =
        List.map
          (fun algo ->
            let v = Option.get (Variants.of_string algo) in
            let a =
              Spans.record "core.select" (fun () ->
                  Variants.annotate v linked profile)
            in
            incr selections;
            branches := !branches + Dmp_core.Annotation.count a;
            (algo, a))
          Variants.names
      in
      check_annotations r linked profile prog anns;
      if set = Input_gen.Reduced then
        images := (spec, linked, image, anns) :: !images;
      ignore
        (Spans.record "transform.pipeline" (fun () ->
             Dmp_transform.Pipeline.run linked profile)))
    programs;
  let fp = Disk_cache.dir cache in
  List.iter
    (fun (spec, set) ->
      let base =
        Filename.concat fp
          (spec.Spec.name ^ "-" ^ Input_gen.set_to_string set)
      in
      stored_bytes :=
        !stored_bytes + file_size (base ^ ".trace") + file_size (base ^ ".profile"))
    programs;
  (* Load every stored entry back: the read side of the disk cache. *)
  List.iter
    (fun (spec, set) ->
      let name = spec.Spec.name in
      Spans.record "Disk_cache.load" (fun () ->
          check r
            (Disk_cache.load_trace cache ~bench:name ~set <> None
            && Disk_cache.load_profile cache (Spec.linked spec) ~bench:name ~set
               <> None)
            ("disk cache lost the entries of " ^ name)))
    programs;
  rm_rf dir;
  let a = Spans.agg in
  let per name scale = (a name).Spans.seconds *. scale /. (a name).Spans.awork in
  let words name = (a name).Spans.awords /. (a name).Spans.awork in
  let mean_ms name = (a name).Spans.seconds *. 1e3 /. float_of_int (a name).Spans.calls in
  let mb = float_of_int !stored_bytes /. 1e6 in
  metric r "exec.capture_ns_per_inst" (per "exec.capture" 1e9) "ns";
  metric r "exec.capture_words_per_inst" (words "exec.capture") "words";
  metric r "exec.decode_ns_per_event" (per "exec.decode" 1e9) "ns";
  metric r "exec.trace_bytes_per_inst"
    (float_of_int !trace_bytes /. float_of_int !insts) "B";
  metric r "exec.image_bytes_per_event"
    (float_of_int !image_bytes /. float_of_int !events) "B";
  metric r "profile.collect_ns_per_inst" (per "profile.collect" 1e9) "ns";
  metric r "profile.collect_words_per_inst" (words "profile.collect") "words";
  metric r "sampling.collect_ns_per_inst" (per "sampling.collect" 1e9) "ns";
  metric r "sampling.reconstruct_ms" (mean_ms "sampling.reconstruct") "ms";
  metric r "core.context_ms" (mean_ms "core.context") "ms";
  metric r "core.select_ms" (mean_ms "core.select") "ms";
  metric r "core.select_kwords"
    ((a "core.select").Spans.awords /. 1e3 /. float_of_int !selections) "kwords";
  metric r "core.selected_branches" (float_of_int !branches) "count";
  (* The compile-cold unit's own work, without the standalone context
     builds, the image decodes and the checks the traced pass adds. *)
  let compile_s =
    sum
      (List.map
         (fun n -> (a n).Spans.seconds)
         [ "exec.capture"; "profile.collect"; "Disk_cache.store";
           "sampling.collect"; "sampling.reconstruct"; "core.select";
           "transform.pipeline" ])
  in
  metric r "core.selections_per_s" (float_of_int !selections /. compile_s) "1/s";
  metric r "transform.pipeline_ms" (mean_ms "transform.pipeline") "ms";
  metric r "experiments.disk_store_mb_per_s"
    (mb /. (a "Disk_cache.store").Spans.seconds) "MB/s";
  metric r "experiments.disk_load_mb_per_s"
    (mb /. (a "Disk_cache.load").Spans.seconds) "MB/s";
  count r "core.selected_branches" !branches;
  count r "exec.retired" !insts;
  List.iter
    (fun n -> count r (n ^ ".words") (int_of_float (a n).Spans.awords))
    [ "exec.capture"; "profile.collect"; "core.select" ];
  List.rev !images
