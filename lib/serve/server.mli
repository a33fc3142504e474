(** Socket front-end of the serving daemon: a Unix-domain listener
    (and optionally a loopback TCP one), one thread per connection,
    any number of length-prefixed requests per connection.

    Malformed input never kills the daemon: an undecodable request
    gets an error response and the connection continues; an oversized
    length prefix gets an error response and the connection closes
    (its framing is lost); a truncated frame or EOF closes quietly.

    {!stop} is async-signal-safe (a self-pipe write), so the CLI
    installs it as the SIGTERM / SIGINT handler: the accept loop wakes,
    refuses new connections, lets every in-flight request finish and
    flush, and {!run} returns — after which the caller dumps final
    stats covering every answered request. *)

type t

val create :
  service:Service.t ->
  ?unix_path:string ->
  ?tcp_port:int ->
  unit ->
  t
(** Bind and listen (at least one of [unix_path] / [tcp_port] is
    required; TCP binds loopback only). An existing file at
    [unix_path] is unlinked first — the daemon owns its socket path.
    @raise Invalid_argument when no listener is requested,
    [Unix.Unix_error] when binding fails. *)

val run : t -> unit
(** Serve until {!stop}; returns after the drain completes and the
    socket file is removed. Call from the main thread. *)

val stop : t -> unit
(** Request shutdown; safe to call from a signal handler or any
    thread, before or during {!run}. Idempotent. *)

val service : t -> Service.t
val accepted : t -> int
(** Connections accepted so far. *)
