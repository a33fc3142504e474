(* Socket front-end: accept loop on the main thread, one sys-thread
   per connection (connections spend most of their life blocked on
   socket I/O or on the service's coalescing condition variables, so
   threads — which share the runtime lock but release it around
   blocking syscalls — are the right weight; the CPU-bound work
   underneath runs on the runner's domains).

   Shutdown is cooperative: [stop] (callable from a signal handler)
   sets [stopping] and writes one byte to a self-pipe, which wakes the
   accept loop's [select]. The [select] also polls every 0.2 s, as
   [serve_conn] does, so a stop whose wake-up byte is lost (say, to a
   full pipe) is still seen. The loop then closes the listeners (new
   connections are refused from that point), then waits until every
   connection thread has drained — a thread finishes its in-flight
   request, writes the response, notices [stopping] and exits. Only
   then does [run] return, so the caller can dump final stats knowing
   they cover every answered request. *)

type t = {
  service : Service.t;
  listeners : Unix.file_descr list;
  unix_path : string option;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  m : Mutex.t;
  drained : Condition.t;
  mutable stopping : bool;
  mutable active : int;
  mutable accepted : int;
}

let create ~service ?unix_path ?tcp_port () =
  let listeners = ref [] in
  (match unix_path with
  | None -> ()
  | Some p ->
      (* The daemon owns its socket path: a leftover file from a
         previous run would make bind fail forever. *)
      (try Unix.unlink p with Unix.Unix_error _ -> ());
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.bind fd (ADDR_UNIX p);
      Unix.listen fd 64;
      listeners := fd :: !listeners);
  (match tcp_port with
  | None -> ()
  | Some port ->
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.setsockopt fd SO_REUSEADDR true;
      Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      listeners := fd :: !listeners);
  if !listeners = [] then
    invalid_arg "Server.create: need a unix_path or a tcp_port";
  let stop_r, stop_w = Unix.pipe () in
  {
    service;
    listeners = !listeners;
    unix_path;
    stop_r;
    stop_w;
    m = Mutex.create ();
    drained = Condition.create ();
    stopping = false;
    active = 0;
    accepted = 0;
  }

let service t = t.service

let stop t =
  t.stopping <- true;
  (* Wake the select; safe from a signal handler (one write syscall,
     no locks). A full pipe or a second stop is fine — the loop only
     needs the flag plus any readable byte. *)
  try ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

(* ---------- per-connection protocol loop ---------- *)

let send fd resp =
  match Protocol.write_frame fd (Protocol.encode_response resp) with
  | () -> true
  | exception Unix.Unix_error _ -> false (* client went away *)

let error_response body = { Protocol.ok = false; latency_ns = 0; body }

let rec serve_conn t fd =
  (* Poll with a short timeout so idle connections notice [stopping];
     a connection inside a request finishes it first (drain). *)
  match Unix.select [ fd ] [] [] 0.2 with
  | exception Unix.Unix_error (EINTR, _, _) ->
      if not t.stopping then serve_conn t fd
  | [], _, _ -> if not t.stopping then serve_conn t fd
  | _ -> (
      match Protocol.read_frame ~max:Protocol.max_request_frame fd with
      | `Eof | `Truncated -> ()
      | `Too_big n ->
          (* The oversized payload was never read, so framing is lost:
             answer once, then close. *)
          ignore
            (send fd
               (error_response
                  (Printf.sprintf "request frame too large (%d bytes, max %d)"
                     n Protocol.max_request_frame)))
      | `Frame payload -> (
          match Protocol.decode_request payload with
          | Error msg ->
              if send fd (error_response ("bad request: " ^ msg)) then
                serve_conn t fd
          | Ok req ->
              let r, latency_ns = Service.respond t.service req in
              let resp =
                match r with
                | Ok body -> { Protocol.ok = true; latency_ns; body }
                | Error body -> { Protocol.ok = false; latency_ns; body }
              in
              if send fd resp then serve_conn t fd))

let handle t fd =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.m;
      t.active <- t.active - 1;
      Condition.broadcast t.drained;
      Mutex.unlock t.m)
    (fun () -> serve_conn t fd)

let accept_one t l =
  match Unix.accept l with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _)
    -> ()
  | fd, _ ->
      Mutex.lock t.m;
      t.active <- t.active + 1;
      t.accepted <- t.accepted + 1;
      Mutex.unlock t.m;
      ignore (Thread.create (handle t) fd)

let run t =
  let rec loop () =
    if not t.stopping then begin
      match Unix.select (t.stop_r :: t.listeners) [] [] 0.2 with
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
      | ready, _, _ ->
          if not (List.mem t.stop_r ready) then begin
            List.iter
              (fun l -> if List.mem l ready then accept_one t l)
              t.listeners;
            loop ()
          end
    end
  in
  loop ();
  (* Refuse new connections immediately, then drain the live ones. *)
  List.iter
    (fun l -> try Unix.close l with Unix.Unix_error _ -> ())
    t.listeners;
  Mutex.lock t.m;
  while t.active > 0 do
    Condition.wait t.drained t.m
  done;
  Mutex.unlock t.m;
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  match t.unix_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ()

let accepted t =
  Mutex.lock t.m;
  let n = t.accepted in
  Mutex.unlock t.m;
  n
