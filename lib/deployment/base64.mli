(** RFC 4648 Base64, implemented from scratch for the PEM armor. *)

val encode : string -> string
(** Standard alphabet with [=] padding, no line breaks. *)

val decode_into :
  bytes -> off:int -> len:int -> bytes -> int -> (int, string) result
(** [decode_into src ~off ~len dst dst_off] decodes [src.[off, off+len)]
    into [dst] from [dst_off] and returns the decoded length. This is the
    only decoder; {!decode} wraps it.

    Decoding in place is allowed: [dst] may be [src] when
    [dst_off <= off], since no output byte is written before the input
    group it comes from has been read. On [Error], [dst] may hold a
    partial result.

    Rejects a length that is not a multiple of 4, any character outside
    the alphabet (whitespace included: {!Pem} strips line structure
    first), [=] anywhere but the last one or two positions, and a
    character after a two-character padding (["AB=C"]). The error names
    the first invalid character met, taking groups in order and each
    group's characters last to first. Raises [Invalid_argument] when the
    source window or the decoded output does not fit its buffer. *)

val decode : string -> (string, string) result
(** {!decode_into} into a fresh, exactly-sized string: one copy. *)
