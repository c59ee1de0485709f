(** X.501 distinguished names.

    A DN is a sequence of relative distinguished names (RDNs); each RDN is a
    set of attribute/value pairs (almost always a singleton in Web PKI).
    Equality matters for two of the paper's three issuance criteria, so both
    strict (byte) and loose (caseIgnore, whitespace-folding) comparison are
    provided; the loose form is what RFC 5280 section 7.1 name chaining
    prescribes and what the compliance analyzer uses. *)

module Der = Chaoschain_der.Der
module Oid = Chaoschain_der.Oid

type attr = { typ : Oid.t; value : string }
type rdn = attr list
type t = rdn list

val empty : t

val make :
  ?c:string -> ?st:string -> ?l:string -> ?o:string -> ?ou:string ->
  ?cn:string -> unit -> t
(** Build a DN from the common attribute types, in the conventional
    C, ST, L, O, OU, CN order. Omitted arguments contribute no RDN. *)

val of_attrs : (Oid.t * string) list -> t
(** One single-attribute RDN per pair, in the given order. *)

val common_name : t -> string option
(** Value of the first CN attribute, if any. *)

val organization : t -> string option

val equal_strict : t -> t -> bool
(** Byte-for-byte equality of the attribute values. *)

val equal : t -> t -> bool
(** RFC 5280 name chaining comparison: same RDN structure, attribute values
    compared case-insensitively with leading and trailing spaces and tabs
    dropped and internal runs of them folded to one space. Allocates
    nothing. *)

val hash : t -> int
(** A non-negative hash consistent with {!equal}: [equal a b] implies
    [hash a = hash b]. It is computed over the same folded values, so DNs
    differing only in case or whitespace runs hash alike; unequal DNs may
    collide, so a hash match must still be confirmed with {!equal}.
    {!Cert} computes it once per subject and issuer. *)

val compare : t -> t -> int
(** Total order consistent with {!equal_strict}; for use in maps/sets. *)

val is_empty : t -> bool

val to_string : t -> string
(** RFC 4514 flavoured rendering, e.g. ["C=US, O=DigiCert Inc, CN=..."]. *)

val pp : Format.formatter -> t -> unit

val to_der : t -> Der.t
val of_der : Der.t -> (t, string) result
