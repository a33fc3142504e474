(* Helpers shared by the workload modules: clocks, order statistics,
   /proc readers, file-system utilities and the JSON result line. *)

let now = Unix.gettimeofday

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of an unsorted sample, [0 < p <= 100]. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let sum = List.fold_left ( +. ) 0.

(* Whether a batch workload starts another unit: always the first, then
   while one more of the median length still ends within [seconds]. *)
let another_unit ~start ~seconds walls =
  walls = [] || Unix.gettimeofday () -. start +. median walls <= seconds

(* ---------- /proc ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set size (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

(* ---------- files ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec files_under path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun n f -> n + files_under (Filename.concat path f))
        0 (Sys.readdir path)
  | _ -> 1

let file_size path = (Unix.stat path).Unix.st_size

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* ---------- result line ---------- *)

(* What one workload pass reports: end-to-end or per-layer metrics
   (name, value, unit), exact counts for the repeatability gate, and
   the operation tally behind [attempted] / [failed]. *)
type result = {
  mutable metrics : (string * float * string) list;  (* reversed *)
  mutable counts : (string * int) list;  (* seed-independent, reversed *)
  mutable seed_counts : (string * int) list;  (* seed-dependent, reversed *)
  mutable attempted : int;
  mutable failed : int;
}

let result () =
  { metrics = []; counts = []; seed_counts = []; attempted = 0; failed = 0 }

let count r name n = r.counts <- (name, n) :: r.counts
let seed_count r name n = r.seed_counts <- (name, n) :: r.seed_counts

(* Record one checked operation; a failure is also reported on stderr
   so a red run says what went wrong. *)
let check r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* A metric that is not a finite number (an empty sample, a zero
   denominator) fails the run rather than reaching the JSON line. *)
let metric r name value unit =
  if Float.is_finite value then r.metrics <- (name, value, unit) :: r.metrics
  else check r false (name ^ " is not a finite number")

let to_json r =
  let b = Buffer.create 4096 in
  let obj items f =
    Buffer.add_char b '{';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        f x)
      items;
    Buffer.add_char b '}'
  in
  Printf.bprintf b "{\"attempted\": %d, \"failed\": %d, \"metrics\": "
    r.attempted r.failed;
  obj (List.rev r.metrics) (fun (n, v, u) ->
      Printf.bprintf b "%S: {\"value\": %.17g, \"unit\": %S}" n v u);
  Buffer.add_string b ", \"counts\": ";
  obj (List.rev r.counts) (fun (n, c) -> Printf.bprintf b "%S: %d" n c);
  Buffer.add_string b ", \"seed_counts\": ";
  obj (List.rev r.seed_counts) (fun (n, c) -> Printf.bprintf b "%S: %d" n c);
  Buffer.add_char b '}';
  Buffer.contents b
