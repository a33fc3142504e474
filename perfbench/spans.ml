(* In-memory span recorder for the traced run.

   Every public call the benchmark makes into a layer is wrapped in
   [record]: when tracing is on it notes the span (id, parent, name,
   start, end), the words the calling domain allocated inside it and an
   optional work count (instructions, events, bytes), and folds all of
   that into a per-name aggregate the per-layer metrics are computed
   from. The spans stay in memory and are written out once, at the end
   of the run. With tracing off, [record] is a plain call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start : float;
  stop : float;
  words : float;
  work : float;
}

type agg = {
  mutable calls : int;
  mutable seconds : float;
  mutable awords : float;
  mutable awork : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let table : (string, agg) Hashtbl.t = Hashtbl.create 64

(* Words allocated by the calling domain so far. Exact only while a
   single domain does the work, which is why the traced run uses one
   job everywhere. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record_with ~work name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = allocated () in
    let t0 = Unix.gettimeofday () in
    let finish r =
      let t1 = Unix.gettimeofday () in
      let w1 = allocated () in
      stack := List.tl !stack;
      let work = match r with Some r -> work r | None -> 0. in
      recorded :=
        { id; parent; name; start = t0; stop = t1; words = w1 -. w0; work }
        :: !recorded;
      let a =
        match Hashtbl.find_opt table name with
        | Some a -> a
        | None ->
            let a = { calls = 0; seconds = 0.; awords = 0.; awork = 0. } in
            Hashtbl.replace table name a;
            a
      in
      a.calls <- a.calls + 1;
      a.seconds <- a.seconds +. (t1 -. t0);
      a.awords <- a.awords +. (w1 -. w0);
      a.awork <- a.awork +. work
    in
    match f () with
    | r ->
        finish (Some r);
        r
    | exception e ->
        finish None;
        raise e
  end

(* A root span timed by the caller, for work that ran on several
   threads at once. *)
let add name ~start ~stop =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    recorded :=
      { id; parent = -1; name; start; stop; words = 0.; work = 0. } :: !recorded
  end

let record name f = record_with ~work:(fun _ -> 0.) name f

let agg name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None -> { calls = 0; seconds = 0.; awords = 0.; awork = 0. }

let count () = List.length !recorded

(* Seconds one span costs the traced code: the recorder timed on an
   empty body, then rolled back so the calibration leaves no trace. *)
let cost_per_span () =
  let n = 20_000 in
  let saved = !recorded and saved_next = !next_id in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    record "calibrate" (fun () -> ())
  done;
  let dt = Unix.gettimeofday () -. t0 in
  recorded := saved;
  next_id := saved_next;
  Hashtbl.remove table "calibrate";
  dt /. float_of_int n

(* One JSON object per line, in the order the spans finished. *)
let write path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start\": %.6f, \
             \"end\": %.6f, \"words\": %.0f, \"work\": %.0f}\n"
            s.id s.parent s.name s.start s.stop s.words s.work)
        (List.rev !recorded))
