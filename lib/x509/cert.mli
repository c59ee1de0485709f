(** X.509 v3 certificates.

    A certificate is created either by signing a TBS ({!create}, used by the
    issuance API in {!Issue}) or by decoding DER bytes ({!of_der}). Both paths
    cache the exact DER encoding, so identity ({!equal}), fingerprints and the
    paper's bit-for-bit duplicate detection all operate on real wire bytes. *)

module Der = Chaoschain_der.Der
module Keys = Chaoschain_crypto.Keys

type tbs = {
  version : int;                (** 2 means v3; everything we mint is v3 *)
  serial : string;              (** big-endian INTEGER content octets *)
  sig_alg : Keys.algorithm;     (** inner signature algorithm field *)
  issuer : Dn.t;
  not_before : Vtime.t;
  not_after : Vtime.t;
  subject : Dn.t;
  public_key : Keys.public_key;
  extensions : Extension.t list;
}

type t
(** A signed certificate; immutable. *)

val create : tbs -> Keys.signature -> t
(** Assemble and cache the DER encoding. The signature is taken as given —
    minting syntactically valid but cryptographically broken certificates is
    how the capability tests are built — so no verification happens here. *)

val tbs : t -> tbs
val tbs_der : t -> string
(** The DER bytes of the TBS alone — the message that is signed. *)

val signature : t -> Keys.signature
val to_der : t -> string
val of_der : string -> (t, string) result

val of_der_keyed : fp:string -> string -> (t, string) result
(** [of_der_keyed ~fp raw] is {!of_der} for a caller that has already computed
    the SHA-256 fingerprint of [raw]: the digest is trusted and not
    recomputed. Used by the intern cache, which computes it once, on a
    miss. *)

val fingerprint : t -> string
(** SHA-256 over the full DER encoding; the certificate's identity. *)

val fingerprint_hex : t -> string
val equal : t -> t -> bool
(** Bit-for-bit equality of the DER encodings. *)

val compare : t -> t -> int

(** {1 Field accessors} *)

val subject : t -> Dn.t
val issuer : t -> Dn.t
val serial : t -> string
val not_before : t -> Vtime.t
val not_after : t -> Vtime.t
val public_key : t -> Keys.public_key
val extensions : t -> Extension.t list
val sig_alg : t -> Keys.algorithm

val subject_key_id : t -> string option
(** SKID extension payload, if present. *)

val authority_key_id : t -> Extension.authority_key_id option
val basic_constraints : t -> Extension.basic_constraints option
val key_usage : t -> Extension.key_usage_flag list option
val ext_key_usage : t -> Chaoschain_der.Oid.t list option
val san : t -> Extension.general_name list
val aia_ca_issuers : t -> string list
(** caIssuers URIs from the AIA extension ([] when absent). *)

val subject_hash : t -> int
(** [Dn.hash (subject t)], computed once when the certificate is built. *)

val issuer_hash : t -> int
(** [Dn.hash (issuer t)], computed once when the certificate is built.
    Name chaining compares these before it confirms with {!Dn.equal}. *)

val is_self_issued : t -> bool
(** Subject DN equals issuer DN (RFC 5280 terminology). *)

val is_self_signed : t -> bool
(** Self-issued and the signature verifies under the certificate's own key.
    This is the predicate the completeness analysis uses to recognise roots.
    It is computed once per certificate, by {!create} and {!of_der} (the
    signature is checked only when the certificate is self-issued), so this
    call is a field read. *)

val is_ca : t -> bool
(** BasicConstraints present with [ca = true]. *)

val validity_days : t -> int
(** Length of the validity period in whole days. *)

val valid_at : t -> Vtime.t -> bool
(** Within [notBefore, notAfter] inclusive. *)

val matches_hostname : t -> string -> bool
(** RFC 6125-flavoured host matching: SAN dNSNames (with single left-most
    wildcard label) take precedence; falls back to the subject CN only when
    no SAN of DNS type is present. *)

val summary : t -> string
(** One-line description for logs and rendered figures. *)

val pp : Format.formatter -> t -> unit
