(** Issuance-relationship predicates between certificate pairs.

    Section 3.1 of the paper distils three criteria for "certificate A issued
    certificate B": (1) A's public key verifies B's signature, (2) A's subject
    matches B's issuer, (3) A's SKID matches B's AKID — with the flexibility
    that when a KID field is absent, satisfying either (2) or (3) suffices.
    These predicates are shared by the server-side compliance analyzer and the
    client-side path builders (whose *priority* decisions additionally rank
    the {!kid_status} values differently per client). *)

type kid_status =
  | Kid_match    (** both sides present and equal *)
  | Kid_absent   (** issuer SKID or child AKID (or both) missing *)
  | Kid_mismatch (** both present, different *)

val kid_status_to_string : kid_status -> string

val kid_status : issuer:Cert.t -> child:Cert.t -> kid_status
(** Compares the candidate issuer's SKID with the child's AKID keyIdentifier.
    An AKID that carries only issuer-name/serial counts as absent for the
    keyid comparison. *)

val name_chains : issuer:Cert.t -> child:Cert.t -> bool
(** Criterion (2): issuer.subject == child.issuer under RFC 5280 loose
    comparison. The certificates' cached name hashes are compared first;
    {!Dn.equal} confirms only a hash match. *)

val signature_ok : issuer:Cert.t -> child:Cert.t -> bool
(** Criterion (1): the candidate issuer's public key verifies the child's
    signature over the child's TBS bytes. Memoized per Domain on the pair
    of fingerprints, so concurrent callers share no table. *)

val sig_alg_compatible : issuer:Cert.t -> child:Cert.t -> bool
(** Whether the child's signature algorithm is one the issuer's key type can
    produce — the extra check OpenSSL applies while ranking candidates. *)

val issued : issuer:Cert.t -> child:Cert.t -> bool
(** The paper's flexible rule: criterion (1) holds, and (2) or (3) holds. *)

val issued_by_name : issuer:Cert.t -> child:Cert.t -> bool
(** Criteria (2)/(3) only — the *candidate* relation used during path
    construction, before any signature is checked. A candidate issuer is one
    that name-chains; the KID comparison then ranks candidates. *)
