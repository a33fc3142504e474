(* serve-zipf: the real `dmp serve -j 1` daemon on a Unix socket, with no
   disk cache and default budgets, driven by two closed-loop client
   connections over a seeded Zipf popularity of annotate / run / profile
   keys (17 benchmarks x 3 input sets x the 15 static algorithms). An
   untimed warm-up first sends one profile request per
   (benchmark, set). Every first-touch response and a seeded sample of
   repeats are compared with the offline rendering of the same request. *)

open Common
open Dmp_workload
module P = Dmp_serve.Protocol
module C = Dmp_serve.Client

let requests = 1500
let zipf_s = 1.1
let connections = 2
let repeat_sample = 0.05
let setup_samples = 15

let sets = Compile.sets

let key_of = function
  | P.Annotate { bench; set; algo } -> Printf.sprintf "annotate/%s/%s/%s" bench set algo
  | P.Run { bench; set; algo } -> Printf.sprintf "run/%s/%s/%s" bench set algo
  | P.Profile { bench; set } -> Printf.sprintf "profile/%s/%s" bench set
  | P.Stats -> "stats"

let profile_requests =
  List.concat_map
    (fun spec ->
      List.map
        (fun s -> P.Profile { bench = spec.Spec.name; set = Input_gen.set_to_string s })
        sets)
    Registry.all

let keys =
  profile_requests
  @ List.concat_map
      (fun spec ->
        List.concat_map
          (fun s ->
            let set = Input_gen.set_to_string s in
            List.concat_map
              (fun algo ->
                [ P.Annotate { bench = spec.Spec.name; set; algo };
                  P.Run { bench = spec.Spec.name; set; algo } ])
              Dmp_experiments.Variants.names)
          sets)
      Registry.all

(* The timed request sequence: popularity rank r has weight 1/r^s over a
   seed-shuffled key order, so which keys are hot changes with the seed
   while the shape of the mix does not. *)
let sequence seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let ks = Array.of_list keys in
  for i = Array.length ks - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = ks.(i) in
    ks.(i) <- ks.(j);
    ks.(j) <- t
  done;
  let n = Array.length ks in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (r + 1) ** zipf_s));
    cdf.(r) <- !acc
  done;
  let pick () =
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    ks.(!lo)
  in
  let seq = Array.init requests (fun _ -> pick ()) in
  let sampled = Array.init requests (fun _ -> Random.State.float rng 1. < repeat_sample) in
  (seq, sampled)

(* ---------- daemon process ---------- *)

type daemon = { pid : int; sock : string; spawned : float; ready : float }

let spawn ~dmp ~dir =
  mkdir_p dir;
  let sock = Filename.concat dir "dmp.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let spawned = now () in
  let pid =
    Unix.create_process dmp
      [| dmp; "serve"; "-j"; "1"; "--socket"; sock |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  (* Poll finely: the daemon listens within a few milliseconds, and a
     coarse poll would quantise the set-up time to its period. *)
  let rec wait_ready tries =
    match C.connect_unix sock with
    | c -> c
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.sleepf 0.0001;
        wait_ready (tries - 1)
  in
  let conn = wait_ready 200_000 in
  let ready = now () in
  C.close conn;
  { pid; sock; spawned; ready }

(* Stop a daemon with SIGTERM once it is idle. `dmp serve` blocks in
   select with no timeout, so a TERM that lands on a connection thread
   on its way out is lost; the daemon is idle once only its main and tick
   threads remain. A daemon that still ignores TERM for 10 s fails the
   check and is killed, so a run never hangs. *)
let stop r d =
  let threads () = Array.length (Sys.readdir (Printf.sprintf "/proc/%d/task" d.pid)) in
  let deadline = now () +. 2. in
  while threads () > 2 && now () < deadline do
    Unix.sleepf 0.001
  done;
  Unix.kill d.pid Sys.sigterm;
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        check r false "dmp serve ignored SIGTERM for 10 s"
    | _, status ->
        check r (status = Unix.WEXITED 0) "dmp serve did not drain and exit cleanly"
  in
  wait ()

let request_ok conn req =
  match C.request conn req with
  | Ok resp when resp.P.ok -> Some resp
  | Ok _ | Error _ -> None

(* ---------- offline rendering of the same requests ---------- *)

type offline = {
  programs : (string, Dmp_ir.Linked.t * Dmp_exec.Image.t * Dmp_profile.Profile.t) Hashtbl.t;
  baselines : (string, Dmp_uarch.Stats.t) Hashtbl.t;
  bodies : (string, string) Hashtbl.t;
}

let offline () =
  { programs = Hashtbl.create 64; baselines = Hashtbl.create 64; bodies = Hashtbl.create 256 }

let program o bench set =
  let k = bench ^ "/" ^ set in
  match Hashtbl.find_opt o.programs k with
  | Some p -> p
  | None ->
      let spec = Registry.find bench in
      let linked = Spec.linked spec in
      let trace =
        Dmp_exec.Trace.capture linked ~input:(spec.Spec.input (Input_gen.set_of_string set))
      in
      let p =
        (linked, Dmp_exec.Image.of_trace trace,
         Dmp_profile.Profile.collect_trace linked trace)
      in
      Hashtbl.replace o.programs k p;
      p

let expected o req =
  let k = key_of req in
  match Hashtbl.find_opt o.bodies k with
  | Some b -> b
  | None ->
      let annotation bench set algo =
        let linked, _, profile = program o bench set in
        Dmp_experiments.Variants.annotate
          (Option.get (Dmp_experiments.Variants.of_string algo))
          linked profile
      in
      let b =
        match req with
        | P.Profile { bench; set } ->
            let linked, _, profile = program o bench set in
            Dmp_serve.Render.profile_text linked profile
        | P.Annotate { bench; set; algo } ->
            Dmp_serve.Render.annotate_text ~algo (annotation bench set algo)
        | P.Run { bench; set; algo } ->
            let linked, image, _ = program o bench set in
            let ann = annotation bench set algo in
            let base =
              let bk = bench ^ "/" ^ set in
              match Hashtbl.find_opt o.baselines bk with
              | Some s -> s
              | None ->
                  let s =
                    Dmp_uarch.Sim.run_image ~config:Dmp_uarch.Config.baseline linked image
                  in
                  Hashtbl.replace o.baselines bk s;
                  s
            in
            let dmp =
              Dmp_uarch.Sim.run_image ~config:Dmp_uarch.Config.dmp ~annotation:ann
                linked image
            in
            Dmp_serve.Render.run_text ~algo ~ann ~base ~dmp
        | P.Stats -> ""
      in
      Hashtbl.replace o.bodies k b;
      b

(* ---------- the workload ---------- *)

type sample = {
  mutable start : float;
  mutable client_ns : int;
  mutable server_ns : int;
  mutable body : string option;  (* kept for checked requests only *)
  mutable ok : bool;
}

(* The pair read from the first line of the daemon's stats report that
   [fmt] matches; a report without one fails a check. *)
let stats_pair r stats fmt =
  let line l =
    try Some (Scanf.sscanf l fmt (fun a b -> (a, b)))
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> None
  in
  match List.find_map line (String.split_on_char '\n' stats) with
  | Some p -> p
  | None ->
      check r false "the daemon's stats report lacks a line it always prints";
      (0, 0)

(* Set-up time samples: daemon start until it accepts a connection.
   `dmp serve` starts listening before it installs its TERM handler, so
   a sample daemon is stopped only after it has answered a request. *)
let setup_times ~dmp ~dir r =
  List.init (setup_samples - 1) (fun _ ->
      let d = spawn ~dmp ~dir in
      let conn = C.connect_unix d.sock in
      check r (request_ok conn P.Stats <> None) "a fresh daemon did not answer stats";
      C.close conn;
      stop r d;
      d.ready -. d.spawned)

(* What one daemon served, from its start to its SIGTERM. *)
type round = {
  setup : float;
  warm : (P.request * P.response option) list;
  samples : sample array;
  wall : float;
  stats : string;
  rss : float;
}

(* Start a daemon, warm it up with one profile per (benchmark, set), time
   the request sequence over the client connections, then read its stats
   and peak memory and stop it. *)
let round ~dmp ~dir ~seq ~keep r =
  let d = spawn ~dmp ~dir in
  let conn0 = C.connect_unix d.sock in
  let warm =
    List.map (fun req -> (req, Spans.record "Client.request" (fun () -> request_ok conn0 req)))
      profile_requests
  in
  let samples =
    Array.init requests (fun _ -> { start = 0.; client_ns = 0; server_ns = 0; body = None; ok = false })
  in
  let next = Atomic.make 0 in
  let worker conn =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < requests then begin
        let t0 = now () in
        let resp = request_ok conn seq.(i) in
        let t1 = now () in
        let s = samples.(i) in
        s.start <- t0;
        s.client_ns <- int_of_float ((t1 -. t0) *. 1e9);
        (match resp with
        | Some resp ->
            s.ok <- true;
            s.server_ns <- resp.P.latency_ns;
            if keep.(i) then s.body <- Some resp.P.body
        | None -> ());
        loop ()
      end
    in
    loop ()
  in
  let conns = conn0 :: List.init (connections - 1) (fun _ -> C.connect_unix d.sock) in
  let t0 = now () in
  let threads = List.map (fun c -> Thread.create worker c) conns in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  (* The two connections overlap, so their request spans are roots,
     added once the load has finished. *)
  Array.iter
    (fun s ->
      Spans.add "Client.request" ~start:s.start
        ~stop:(s.start +. (float_of_int s.client_ns /. 1e9)))
    samples;
  let stats =
    match C.request conn0 P.Stats with Ok resp -> resp.P.body | Error m -> m
  in
  List.iter C.close conns;
  let rss = peak_rss_mb d.pid in
  stop r d;
  { setup = d.ready -. d.spawned; warm; samples; wall; stats; rss }

(* Every warm-up and first-touch body, plus the sampled repeats, against
   the offline rendering. *)
let verify r o ~seq rd =
  List.iter
    (fun (req, resp) ->
      check r
        (match resp with Some resp -> resp.P.body = expected o req | None -> false)
        ("warm-up response differs from the offline rendering: " ^ key_of req))
    rd.warm;
  Array.iteri
    (fun i s ->
      if not s.ok then check r false ("request failed: " ^ key_of seq.(i))
      else
        match s.body with
        | Some body ->
            check r (body = expected o seq.(i))
              ("response differs from the offline rendering: " ^ key_of seq.(i))
        | None -> r.attempted <- r.attempted + 1)
    rd.samples

let run ~dmp ~state ~seed ~traced r =
  let dir = Filename.concat state (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf dir;
  let setups = if traced then [] else setup_times ~dmp ~dir r in
  let seq, sampled = sequence seed in
  let seen = Hashtbl.create 1024 in
  List.iter (fun req -> Hashtbl.replace seen (key_of req) ()) profile_requests;
  let first =
    Array.map
      (fun req ->
        let k = key_of req in
        if Hashtbl.mem seen k then false
        else (Hashtbl.replace seen k (); true))
      seq
  in
  let keep = Array.mapi (fun i f -> f || sampled.(i)) first in
  let rd = round ~dmp ~dir ~seq ~keep r in
  rm_rf dir;
  verify r (offline ()) ~seq rd;
  let wall = rd.wall and stats = rd.stats in
  let ms xs = List.map (fun ns -> float_of_int ns /. 1e6) xs in
  let all = Array.to_list rd.samples in
  let client = ms (List.map (fun s -> s.client_ns) all) in
  let repeats = List.filteri (fun i _ -> not first.(i)) all in
  let firsts = List.filteri (fun i _ -> first.(i)) all in
  let first_touches = List.length firsts in
  Printf.eprintf
    "perfbench: serve-zipf %d requests in %.2f s: p50 %.3f ms p99 %.3f ms, %d first touches\n%!"
    requests wall (percentile client 50.) (percentile client 99.) first_touches;
  seed_count r "serve.first_touch_count" first_touches;
  if not traced then begin
    metric r "setup_s" (median (rd.setup :: setups)) "s";
    metric r "wall_s" wall "s";
    metric r "peak_rss_mb" rd.rss "MB"
  end
  else begin
    let us xs = List.map (fun ns -> float_of_int ns /. 1e3) xs in
    let hit_server = us (List.map (fun s -> s.server_ns) repeats) in
    let transport = us (List.map (fun s -> s.client_ns - s.server_ns) repeats) in
    (* Frame codec cost over the workload's own frames, timed outside the
       daemon: every request, and every response body kept for checking. *)
    let bodies = List.filter_map (fun (s : sample) -> s.body) all in
    let frames = Array.length seq + List.length bodies in
    let c0 = now () in
    Spans.record "Protocol.codec" (fun () ->
        Array.iter (fun req -> ignore (P.decode_request (P.encode_request req))) seq;
        List.iter
          (fun body ->
            ignore
              (P.decode_response
                 (P.encode_response { P.ok = true; latency_ns = 1; body })))
          bodies);
    let codec = now () -. c0 in
    let hits, misses = stats_pair r stats "mem cache (stages): hits=%d misses=%d" in
    let _, coalesced = stats_pair r stats "requests=%d errors=%_d coalesced=%d" in
    metric r "serve.p50_ms" (percentile client 50.) "ms";
    metric r "serve.p99_ms" (percentile client 99.) "ms";
    metric r "serve.throughput_rps" (float_of_int requests /. wall) "1/s";
    metric r "serve.hit_server_us_p50" (percentile hit_server 50.) "us";
    metric r "serve.hit_server_us_p99" (percentile hit_server 99.) "us";
    metric r "serve.transport_us_p50" (percentile transport 50.) "us";
    metric r "serve.protocol_ns_per_frame" (codec *. 1e9 /. float_of_int frames) "ns";
    metric r "serve.first_touch_count" (float_of_int first_touches) "count";
    metric r "serve.first_touch_s_total"
      (sum (ms (List.map (fun s -> s.client_ns) firsts)) /. 1e3) "s";
    metric r "serve.hit_ratio"
      (float_of_int (List.length repeats) /. float_of_int requests) "ratio";
    metric r "serve.coalesced" (float_of_int coalesced) "count";
    metric r "experiments.mem_hit_ratio"
      (float_of_int hits /. float_of_int (hits + misses)) "ratio"
  end
