(** Forward certification-path construction (the client-side engine).

    All implementations the paper studied build forward from the leaf toward
    a trust anchor, differing in how they pick among candidate issuers and in
    what resources they consult; this engine realises that shared skeleton,
    parameterized by {!Build_params.t}.

    At each step the candidate issuers of the path's current tail are drawn
    from (a) the remaining server-provided certificates — all of them when
    [reorder], only later list positions otherwise, (b) trust-store roots
    whose subject chains, (c) the client's intermediate cache, and, when the
    other sources are empty, (d) an AIA download. Candidates are ranked by
    the client's priority comparators and explored depth-first; running out
    of candidates at one level falls back to the next candidate at the
    previous level (universal in real clients — distinct from
    [backtracking], which retries *after validation* and is handled by
    {!Engine}). Structurally complete paths are produced lazily in
    exploration order. *)

open Chaoschain_x509
open Chaoschain_pki

type error =
  | Empty_chain
  | Input_list_too_long of { limit : int; got : int }  (** GnuTLS semantics *)
  | Self_signed_leaf_rejected
  | No_issuer_found of Dn.t
      (** construction dead-ended; the DN is the issuer that could not be
          located (OpenSSL's "unable to get local issuer certificate") *)

val error_to_string : error -> string

type context = {
  params : Build_params.t;
  store : Root_store.t;
  aia : Aia_repo.t option;     (** [None] disconnects the network *)
  cache : Cert.t list;         (** intermediate cache / OS cert store *)
  crls : Crl_registry.t option;
      (** CRL distribution; consulted per [params.revocation] *)
  now : Vtime.t;
}

val context :
  ?aia:Aia_repo.t -> ?cache:Cert.t list -> ?crls:Crl_registry.t ->
  ?now:Vtime.t -> params:Build_params.t -> Root_store.t -> context
(** Convenience constructor; [now] defaults to 2024-06-01. *)

type attempt = {
  path : Cert.t list;          (** leaf first, trust-anchor-most last *)
  anchored : bool;             (** terminal is in the trust store *)
  used_aia : bool;
  used_cache : bool;
}

val build : context -> Cert.t list -> (attempt Seq.t, error) result
(** Lazily enumerate structurally complete paths for the given server list,
    best-ranked first. [Ok Seq.empty] means construction dead-ended
    everywhere without an outright input error; {!Engine} converts that into
    {!No_issuer_found}. *)

val first_dead_end : context -> Cert.t list -> Dn.t option
(** The issuer DN at which the highest-ranked exploration dead-ends (used for
    error reporting when no complete path exists). *)
