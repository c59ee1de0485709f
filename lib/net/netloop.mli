(** netd — a readiness-driven multi-connection front end.

    One event loop multiplexes a listening socket (Unix domain or TCP)
    and every accepted connection over a single thread, driving the
    backend-agnostic {!Poller} (portable [select], or [epoll] on Linux)
    instead of calling [Unix.select] directly:

    - per-connection non-blocking NDJSON framing ({!Framing}) accumulates
      partial reads across chunk boundaries and handles overlong lines in
      discard mode;
    - complete frames are submitted to a {!sink} — chaind's micro-batching
      engine behind a thin closure record — in fair round-robin order
      across connections, so one chatty client cannot starve the rest; an
      overlong line is submitted as a marker in its place, so its error
      reply keeps the connection's request order;
    - replies come back tagged with the originating connection and are
      queued on per-connection write buffers, flushed opportunistically
      with non-blocking writes;
    - backpressure is layered: a connection whose write buffer exceeds
      [write_bound] is not read until it drains, reading stops globally
      while more than [inbox_bound] parsed frames await submission, and
      the sink's own admission queue rejects past its bound;
    - poller interest is cached per descriptor and only deltas are pushed,
      so an [epoll] backend pays O(changes) + O(ready) per iteration;
    - [EMFILE]/[ENFILE] on accept are counted ({!stats.accept_failures})
      and back the listener off for a beat instead of spinning on a
      permanently-ready accept queue;
    - {!stop} begins a graceful drain: stop accepting and reading, submit
      what was already parsed, flush every in-flight batch and write
      buffer, then close all connections, the listener and the poller.

    For sharded serving, a loop can run without its own listener and
    instead {e adopt} connections pushed by a dispatcher shard through
    {!offer} (a mutex-guarded queue plus a self-pipe wakeup — safe to
    call from another Domain), while a listener-owning loop hands
    accepted fds out through its [dispatch] hook. {!stop} is likewise
    Domain-safe (an [Atomic] flag plus a wakeup), so one signal handler
    can drain every shard.

    Disconnects are survived, never fatal: [EPIPE]/[ECONNRESET] on either
    direction closes that one connection (replies still in flight for it
    are dropped), and [EINTR]/[EAGAIN] are retried or deferred. The loop
    never installs signal handlers; callers wire [SIGTERM]/[SIGINT] to
    {!stop} themselves. *)

type sink = {
  can_admit : unit -> bool;
      (** room in the admission queue? Polled before every submit so
          parsed frames are held (and reading pauses) rather than drawing
          rejections. *)
  submit : tag:int -> string -> [ `Admitted | `Rejected of string ];
      (** Offer one frame; [tag] comes back on the matching reply.
          [`Rejected reply] carries a ready-to-send response (overload). *)
  drain : unit -> (int * string) list;
      (** Process one micro-batch; tagged replies in request order. *)
  pending : unit -> int;  (** frames admitted but not yet drained *)
  submit_overlong : tag:int -> unit;
      (** Queue the reply to a request line past [max_frame] (the line
          itself was consumed by the framing layer) in submission order,
          behind the frames submitted before it; it comes back through
          [drain] under [tag]. Called only when [can_admit]. *)
}

type config = {
  max_frame : int;   (** per-line bound ({!Framing.create}) *)
  max_conns : int;   (** stop accepting while this many are live; [0]
                         derives the bound from the active poller
                         ({!Poller.default_max_conns}) *)
  write_bound : int; (** pause reading a connection buffering more reply
                         bytes than this *)
  inbox_bound : int; (** pause reading every connection while this many
                         parsed frames await submission *)
}

val default_config : config
(** [max_frame] 1 MiB, [max_conns] 0 (poller-derived: 960 under [select],
    rlimit-based under [epoll]), [write_bound] 256 KiB, [inbox_bound]
    1024 frames. *)

type t

val create :
  ?config:config ->
  ?backend:Poller.backend ->
  ?listen:Unix.file_descr ->
  ?dispatch:(Unix.file_descr -> bool) ->
  ?conn:Unix.file_descr * Unix.file_descr ->
  sink ->
  t
(** [backend] defaults to [Poller.Select] (the caller resolves
    availability with {!Poller.choose} first; creating an unavailable
    backend raises [Failure]). The listener, when given, must already be
    bound and listening; it is switched to non-blocking mode and the loop
    takes ownership ({!run} closes it when the drain completes). Without
    a listener the loop serves adopted connections only ({!offer}).
    [dispatch], called on each freshly accepted descriptor, returns
    [true] when it handed the fd to another shard ([false] = this loop
    keeps it).

    [conn = (read, write)] pre-adopts one connection that reads requests
    from [read] and writes replies to [write] — [chaoscheck serve]'s
    stdin/stdout; a socket would pass the same fd twice. The loop owns
    both descriptors (switched to non-blocking mode, closed when the
    connection is reaped) and begins its drain once no connection is
    left, so {!run} returns when that peer's stream has been answered —
    or when the peer went away. *)

val step : ?timeout:float -> t -> bool
(** One iteration: wait on the poller, accept, adopt offered fds, read,
    submit round-robin, drain one micro-batch, flush, reap closed
    connections. Blocks at most [timeout] seconds (default [0.]) and only
    when the loop is otherwise idle. Returns [false] once the loop is
    finished (stopped and fully drained). Exposed so tests can interleave
    client I/O with loop progress deterministically. *)

val run : t -> unit
(** [step] until {!stop} was called and the drain completed. *)

val stop : t -> unit
(** Begin the graceful drain. Idempotent and Domain-safe (an atomic flag
    plus a self-pipe wakeup), so a signal handler on the main Domain can
    stop shard loops running on other Domains. *)

val offer : t -> Unix.file_descr -> bool
(** Queue an accepted connection for adoption by this loop (the sharded
    dispatcher path; Domain-safe). [false] = refused — the loop is
    draining or its connection budget is spent — and the caller keeps
    ownership of the fd. *)

val finished : t -> bool

val max_conns : t -> int
(** The resolved connection bound (config, or poller-derived when the
    config said [0]). *)

val poller_name : t -> string

type stats = {
  live_conns : int;
  accepted : int;      (** connections accepted or adopted over the
                           loop's lifetime *)
  frames : int;        (** frames submitted to the sink *)
  overlong : int;      (** overlong lines answered with an error reply *)
  dropped_replies : int;  (** replies whose connection was gone *)
  accept_failures : int;
      (** [EMFILE]/[ENFILE] accept attempts (each also backs the
          listener off briefly) *)
}

val stats : t -> stats

val aggregate_stats : stats list -> stats
(** Field-wise sum — the cross-shard view. *)
