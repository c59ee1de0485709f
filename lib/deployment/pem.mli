(** PEM armor (RFC 7468) for certificate files — the format CA delivery
    bundles and server configuration files use. *)

open Chaoschain_x509

val encode_cert : Cert.t -> string
(** One CERTIFICATE block, 64-column Base64 body. *)

val encode_certs : Cert.t list -> string
(** Concatenated blocks, as a fullchain/ca-bundle file. *)

val decode_certs : string -> (Cert.t list, string) result
(** Every CERTIFICATE block in the input, in order. Text outside blocks is
    ignored (PEM files routinely carry human-readable headers). Each line
    is trimmed of surrounding whitespace; body lines may have any width.
    Fails on a malformed block or non-DER body, with the message
    {!Base64.decode} or [Cert.of_der] gives.

    Each block is decoded in the Domain's [Intern.scratch] and interned
    from there: a certificate already interned costs no copy, a new one
    one copy of its DER. *)
