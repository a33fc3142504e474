(* The benchmark's measuring process (driven by run.py, which builds it).

     bench.exe run --workload W --seed N --seconds S --trace 0|1
                   --state DIR --dmp PATH
       --trace 0: one workload, untraced; prints the end-to-end metrics.
       --trace 1: the traced run; replays every workload's work at one
       job with spans around each public call and prints the per-layer
       metrics (spans go to DIR/spans-W-N.jsonl).
     bench.exe setup --workload W --state DIR
       one batch set-up (runner created, benchmarks linked), then print
       the wall-clock time it finished.
     bench.exe fill --state DIR
       the one-off cold sweep that fills sweep-warm's disk cache.

   The last line of a run's stdout is one JSON object: attempted,
   failed, metrics, and the exact counts run.py's repeatability gate
   compares. *)

open Common

let workloads = [ "sweep-warm"; "compile-cold"; "serve-zipf" ]
let setup_samples = 15

let usage msg =
  Printf.eprintf "bench: %s\n" msg;
  exit 2

let child args ~stdout =
  Unix.create_process Sys.executable_name
    (Array.of_list (Sys.executable_name :: args))
    Unix.stdin stdout Unix.stderr

(* Set-up time of a batch workload: process start until its runner is
   created and the benchmarks are linked, as the median of separate
   processes so the one-off costs of process start are included. *)
let setup_s ~workload ~state =
  median
    (List.init setup_samples (fun _ ->
         let rd, wr = Unix.pipe ~cloexec:true () in
         let t0 = now () in
         let pid = child [ "setup"; "--workload"; workload; "--state"; state ] ~stdout:wr in
         Unix.close wr;
         let ic = Unix.in_channel_of_descr rd in
         let ready = float_of_string (String.trim (input_line ic)) in
         close_in ic;
         ignore (Unix.waitpid [] pid);
         ready -. t0))

let ensure_filled ~state =
  if not (Sys.file_exists (Sweep.digest_file state)) then begin
    let pid = child [ "fill"; "--state"; state ] ~stdout:Unix.stderr in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "the sweep cache fill failed"
  end

let untraced r ~workload ~seed ~seconds ~state ~dmp =
  match workload with
  | "sweep-warm" ->
      metric r "setup_s" (setup_s ~workload ~state) "s";
      Sweep.run ~state ~seconds r;
      metric r "peak_rss_mb" (self_peak_rss_mb ()) "MB"
  | "compile-cold" ->
      metric r "setup_s" (setup_s ~workload ~state) "s";
      Compile.run ~state ~seconds ~seed r;
      metric r "peak_rss_mb" (self_peak_rss_mb ()) "MB"
  | _ -> Serve.run ~dmp ~state ~seed ~traced:false r

let traced r ~workload ~seed ~state ~dmp =
  Spans.enabled := true;
  let t0 = now () in
  Spans.record "sweep-warm" (fun () -> Sweep.traced ~state r);
  let images = Spans.record "compile-cold" (fun () -> Compile.traced ~state ~seed r) in
  Spans.record "uarch" (fun () -> Uarch_probe.run r images);
  Spans.record "serve-zipf" (fun () -> Serve.run ~dmp ~state ~seed ~traced:true r);
  let run_s = now () -. t0 in
  let spans = Spans.count () in
  metric r "trace.run_s" run_s "s";
  metric r "trace.spans" (float_of_int spans) "count";
  metric r "trace.overhead_pct"
    (Spans.cost_per_span () *. float_of_int spans /. run_s *. 100.) "%";
  Spans.write (Filename.concat state (Printf.sprintf "spans-%s-%d.jsonl" workload seed))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let opt name =
    let rec go = function
      | k :: v :: _ when k = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let req name = match opt name with Some v -> v | None -> usage (name ^ " is required") in
  let int name =
    match int_of_string_opt (req name) with
    | Some n -> n
    | None -> usage (name ^ " needs an integer")
  in
  let state = req "--state" in
  mkdir_p state;
  match args with
  | "setup" :: _ ->
      (match req "--workload" with
      | "sweep-warm" -> ignore (Sweep.create_runner ~state ~jobs:Sweep.jobs)
      | "compile-cold" -> ignore (Compile.fresh_runner ~state)
      | w -> usage ("no batch set-up for workload " ^ w));
      Printf.printf "%.6f\n%!" (now ())
  | "fill" :: _ -> Sweep.ensure_filled ~state
  | "run" :: _ ->
      let workload = req "--workload" in
      if not (List.mem workload workloads) then
        usage ("unknown workload " ^ workload ^ "; known: " ^ String.concat ", " workloads);
      let seed = int "--seed" and seconds = float_of_int (int "--seconds") in
      let dmp = req "--dmp" in
      let r = result () in
      (* Whichever run comes first in a checkout pays the one-off cold
         fill, so later runs, traced ones included, stay short. *)
      ensure_filled ~state;
      (match int "--trace" with
      | 0 -> untraced r ~workload ~seed ~seconds ~state ~dmp
      | 1 -> traced r ~workload ~seed ~state ~dmp
      | _ -> usage "--trace is 0 or 1");
      print_endline (to_json r)
  | _ -> usage "expected run, setup or fill"
