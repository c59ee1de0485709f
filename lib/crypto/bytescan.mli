(** Word-at-a-time byte search, shared by the line scanners on the request
    path (NDJSON framing and PEM armor). *)

val newline : string -> int -> int -> int
(** [newline s i stop] is the index of the first ['\n'] in [s.[i, stop)],
    or [-1] (also when [i >= stop]). Reads eight bytes per step and
    allocates nothing. Raises [Invalid_argument] if [i < 0] or
    [stop > String.length s]. *)
