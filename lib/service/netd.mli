(** netd — wiring chaind's engine into the {!Chaoschain_net.Netloop}
    event loop: address parsing, listener/dial socket plumbing, the engine
    {!Chaoschain_net.Netloop.sink}, and the signal-aware runner behind
    [chaoscheck serve] — with [--listen] and on stdin/stdout alike.

    There is one serving stack: the stdio path is a single pre-adopted
    connection on a listener-less loop, so a frame fed through [serve]'s
    stdin takes the same framing, admission pacing, batcher and cache as
    one arriving over a socket, and its verdict is byte-identical. *)

type addr =
  | Unix_path of string  (** a filesystem socket path *)
  | Tcp of string * int  (** host, port *)

val parse_addr : string -> (addr, string) result
(** Accepted spellings: ["unix:PATH"], ["tcp:HOST:PORT"], ["HOST:PORT"]
    (numeric port), and anything else as a bare Unix socket path. *)

val addr_to_string : addr -> string

val listen_socket : addr -> (Unix.file_descr, string) result
(** Bind and listen (backlog 128). A stale Unix socket path is unlinked
    first; TCP listeners set [SO_REUSEADDR]. *)

val dial : addr -> Unix.file_descr
(** Open one client connection (used by loadgen and tests). Raises
    [Unix.Unix_error] / [Failure] on refusal or resolution failure. *)

val sink : Engine.t -> Chaoschain_net.Netloop.sink
(** The event-loop view of an engine: submit = {!Engine.submit},
    drain = {!Engine.drain_tagged}, admission gate = {!Engine.can_admit},
    overlong lines = {!Engine.submit_overlong}. *)

val serve_listen :
  ?config:Chaoschain_net.Netloop.config ->
  ?backend:Chaoschain_net.Poller.backend ->
  engines:Engine.t list ->
  addr ->
  (Chaoschain_net.Netloop.stats, string) result
(** Run one event loop per engine on [addr] until [SIGTERM]/[SIGINT]
    triggers the graceful drain of every shard (stop accepting and
    adopting, flush in-flight batches and write buffers, close).

    One engine: exactly the single-loop server, on the calling Domain.
    Several: the engines are {!Engine.link_shards}-grouped and each runs
    its own loop — shard 0 on the calling Domain, the rest on spawned
    Domains, joined before returning. A TCP address gets one
    [SO_REUSEPORT] listener per shard (kernel-balanced accepts) where the
    option takes; a Unix-socket address — or a platform without the
    option — gets a single listener on shard 0 whose accepted
    connections are dealt round-robin to the other shards through
    {!Chaoschain_net.Netloop.offer}. Verdict replies are byte-identical
    at every shard count: shards share nothing that affects a verdict
    (per-shard engines; only metrics and the intern table are shared,
    both Mutex-guarded).

    [backend] (default [Select]) must be available — resolve the user's
    choice with {!Chaoschain_net.Poller.choose} first.

    Ignores [SIGPIPE] for the process (client disconnects must surface as
    [EPIPE], not kill chaind) and restores the previous PIPE/TERM/INT
    dispositions before returning. A Unix socket path is unlinked on the
    way out. Returns the shards' stats summed
    ({!Chaoschain_net.Netloop.aggregate_stats}). *)

val serve_stdio :
  ?config:Chaoschain_net.Netloop.config ->
  ?input:Unix.file_descr ->
  ?output:Unix.file_descr ->
  Engine.t ->
  Chaoschain_net.Netloop.stats
(** Serve one connection that reads requests from [input] (default
    stdin) and writes replies to [output] (default stdout) until [input]
    reaches EOF and every reply is written, the reader of [output] goes
    away, or [SIGTERM]/[SIGINT] triggers the drain (stop reading, answer
    what was already read). Runs on the same signal-aware runner as
    {!serve_listen}, always on the [Select] backend ([epoll] rejects a
    regular-file stdin).

    [--queue] paces reading here exactly as on a socket: parsed frames
    wait for room in the admission queue instead of drawing
    ["overloaded"] replies, and replies leave in request order. The loop
    works on duplicates of the two descriptors, which it closes; before
    returning, blocking mode is restored on [input] and [output], whose
    file descriptions the parent process shares. *)
