(** Trust-anchor stores modelling the four root programs the paper compares
    (Mozilla, Chrome, Microsoft, Apple) plus their concatenation, which the
    server-side completeness analysis uses as its baseline. *)

open Chaoschain_x509

type program = Mozilla | Chrome | Microsoft | Apple

val program_to_string : program -> string
val all_programs : program list

type t
(** An immutable set of trusted root certificates, indexed by fingerprint,
    SKID and subject DN. The subject index is keyed by
    {!Chaoschain_x509.Cert.subject_hash}, so a lookup by name touches one
    small bucket instead of every root. *)

val make : string -> Cert.t list -> t
(** [make name roots]. *)

val name : t -> string
val size : t -> int
val certs : t -> Cert.t list
val add : t -> Cert.t -> t

val mem : t -> Cert.t -> bool
(** Bit-for-bit membership. *)

val mem_skid : t -> string -> bool
(** Whether any trusted root carries the given SKID — the store-matching step
    of the paper's completeness algorithm. *)

val find_by_skid : t -> string -> Cert.t list

val find_by_subject : t -> Dn.t -> Cert.t list
(** Roots whose subject DN name-chains to the given DN ({!Dn.equal}), in
    insertion order — how clients locate trust anchors for a partial chain.
    Served from the subject index: the same list as filtering {!certs}. *)

val issuer_candidates : t -> Cert.t -> Cert.t list
(** Roots that could have issued the given certificate, by name chaining:
    [find_by_subject t (Cert.issuer cert)], using the certificate's cached
    issuer hash. *)

val union : string -> t list -> t
(** Deduplicated concatenation. *)
