(* sweep-warm: every figure and table target over the 17 benchmarks,
   uncapped, Exact simulation, default (fused) scheduler, two jobs,
   with the persistent disk cache filled once per commit beforehand —
   the figure-regeneration path. *)

open Common
open Dmp_experiments

let jobs = 2
let cache_dir state = Filename.concat state "sweep-cache"
let digest_file state = Filename.concat state "sweep.digest"

(* Stage labels that only a cold cache produces: a warm sweep that
   records any of them re-captured, re-profiled or re-simulated a
   baseline instead of loading it. *)
let cold_stages =
  [ "trace (capture)"; "profile (collect)"; "sprofile (collect)";
    "baseline (simulate)"; "ttrace (capture)"; "tprofile (collect)";
    "tbaseline (simulate)" ]

let create_runner ~state ~jobs =
  let runner = Runner.create ~cache_dir:(cache_dir state) ~jobs () in
  List.iter (fun n -> ignore (Runner.linked runner n)) (Runner.names runner);
  runner

(* The report exactly as [bench/main.exe] prints it for all targets. *)
let render_all runner =
  Spans.record "Runner.prefetch" (fun () ->
      Runner.prefetch ~profile_sets:(Targets.profile_sets Targets.all) runner);
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun t ->
      match Spans.record ("Targets.render " ^ t) (fun () -> Targets.render runner t) with
      | Ok s ->
          Buffer.add_string b s;
          Buffer.add_char b '\n'
      | Error m -> failwith m)
    Targets.all;
  Buffer.contents b

let calls runner stage =
  List.fold_left
    (fun acc (s, c, _) -> if s = stage then acc + c else acc)
    0 (Runner.timings runner)

let stage_seconds runner pred =
  List.fold_left
    (fun acc (s, _, sec) -> if pred s then acc +. sec else acc)
    0. (Runner.timings runner)

(* The one-off cache fill: a cold sweep whose report digest every later
   warm and traced sweep of this commit must reproduce. *)
let ensure_filled ~state =
  if not (Sys.file_exists (digest_file state)) then begin
    rm_rf (cache_dir state);
    let t0 = now () in
    let runner = create_runner ~state ~jobs in
    let out = render_all runner in
    let digest = Digest.to_hex (Digest.string out) in
    Printf.eprintf "perfbench: sweep cache filled in %.1f s, report %s\n%!"
      (now () -. t0) digest;
    write_file (digest_file state) digest
  end

let expected_digest state = String.trim (read_file (digest_file state))

(* Report identity and warmth checks for one sweep. *)
let check_sweep r ~state runner out =
  let digest = Digest.to_hex (Digest.string out) in
  check r (digest = expected_digest state)
    (Printf.sprintf "sweep report digest %s differs from the cold fill's %s"
       digest (expected_digest state));
  List.iter
    (fun stage ->
      check r (calls runner stage = 0)
        (Printf.sprintf "warm sweep recorded %d %S calls" (calls runner stage)
           stage))
    cold_stages;
  digest

(* As many units as fit in [seconds], one at least; [wall_s] is their
   median. Each unit creates and links a fresh runner untimed, then
   times the prefetch and the render of every target. *)
let run ~state ~seconds r =
  let walls = ref [] in
  let start = now () in
  while another_unit ~start ~seconds !walls do
    let rn = create_runner ~state ~jobs in
    Gc.compact ();
    let t0 = now () in
    let out = render_all rn in
    let wall = now () -. t0 in
    walls := wall :: !walls;
    let digest = check_sweep r ~state rn out in
    Printf.eprintf "perfbench: sweep-warm unit %.2f s, report %s\n%!" wall digest
  done;
  metric r "wall_s" (median !walls) "s"

(* Traced pass: the same sweep at one job, so the stage rows do not
   over-count and the allocation counters are exact, followed by a
   second render on the now-memoised runner. *)
let traced ~state r =
  let rn = create_runner ~state ~jobs:1 in
  let out = Spans.record "sweep" (fun () -> render_all rn) in
  ignore (check_sweep r ~state rn out);
  let sec pred = stage_seconds rn pred in
  let has_suffix suf s = String.ends_with ~suffix:suf s in
  metric r "experiments.dedup_hits" (float_of_int (calls rn "dmp (dedup hit)")) "count";
  metric r "experiments.fused_kernels"
    (float_of_int (calls rn "dmp (simulate fused)")) "count";
  metric r "experiments.stage_s.simulate"
    (sec (fun s -> has_suffix "(simulate)" s || s = "dmp (simulate fused)")) "s";
  metric r "experiments.stage_s.select" (sec (fun s -> s = "select (run)")) "s";
  metric r "experiments.stage_s.decode" (sec (fun s -> s = "image (decode)")) "s";
  metric r "experiments.stage_s.ckpt"
    (sec (fun s -> String.starts_with ~prefix:"ckpt (" s)) "s";
  metric r "experiments.stage_s.disk_load" (sec (has_suffix "(disk cache)")) "s";
  List.iter
    (fun (stage, c, _) ->
      count r ("sweep.calls." ^ String.map (fun ch -> if ch = ' ' then '_' else ch) stage) c)
    (Runner.timings rn);
  let t1 = now () in
  let again =
    Spans.record "sweep (memoised)" (fun () ->
        List.map
          (fun t ->
            match Targets.render rn t with Ok s -> s ^ "\n" | Error m -> failwith m)
          Targets.all
        |> String.concat "")
  in
  metric r "experiments.render_ms" ((now () -. t1) *. 1e3) "ms";
  check r (again = out) "memoised re-render differs from the first render"
