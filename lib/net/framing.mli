(** Incremental NDJSON framing for non-blocking connections.

    One state machine per connection: bytes arrive in whatever chunks the
    socket delivers ({!feed}), complete newline-terminated lines come out
    ({!next}). It is the only framing implementation: [chaoscheck serve]
    frames stdin with it as well as every socket, so a frame is identical
    whichever path carried it:

    - a line longer than [max_frame] yields [`Overlong] once, at the point
      the bound is crossed, and the machine switches to discard mode: the
      rest of that line is dropped chunk-by-chunk through its closing
      newline without ever being buffered, then framing resumes cleanly on
      the same connection;
    - a trailing unterminated line is delivered as a final frame at EOF;
    - after the EOF drain the machine answers [`Eof] forever.

    {!next} never touches a file descriptor: the event loop owns all I/O
    and feeds raw chunks in. Scanning is incremental — each input byte is
    examined once, independent of how the stream is cut into chunks. *)

type t

val default_max_frame : int
(** 1 MiB. *)

val create : ?max_frame:int -> unit -> t
(** [max_frame] defaults to {!default_max_frame}; it must be [>= 1]
    (raises [Invalid_argument]). *)

val feed : t -> bytes -> int -> int -> unit
(** [feed t buf pos len] appends [len] bytes of [buf] starting at [pos]
    (the bytes are copied; the caller may reuse [buf]). Feeding after
    {!eof} raises [Invalid_argument]. *)

val feed_string : t -> string -> unit

val eof : t -> unit
(** The peer closed its write side: no more input will arrive. Idempotent. *)

val next : t -> [ `Frame of string | `Overlong | `Await | `Eof ]
(** The next complete frame. [`Await] means more input is needed ([`Eof]
    instead once {!eof} was signalled and everything buffered has been
    delivered). [`Overlong] reports a line past [max_frame]; the line is
    consumed (or scheduled for discard). *)

val buffered : t -> int
(** Bytes currently held: the partial line plus unscanned chunks. Bounded
    by [max_frame] plus the largest fed chunk, even against an endless
    newline-free stream. *)

val at_eof : t -> bool
(** {!eof} has been signalled (buffered frames may still be pending). *)
