(** Corpus chain classification — the parsifal-style query over a scanned
    (or replayed) dataset.

    [run] builds two indexes over the corpus's unique certificates — by
    subject DN and by issuer DN, each grouping names under RFC 5280 name
    chaining ({!Chaoschain_x509.Dn.equal}: case and whitespace runs do not
    count) — and classifies every unique chain against them:

    - is the sent list leaf-first and properly ordered?
    - does it contain bit-for-bit duplicate certificates?
    - is it self-contained (a path from the leaf to a self-signed root
      using only sent certificates)?
    - if not, is it {e transvalid} — buildable once the corpus-wide subject
      index supplies the missing issuers?
    - how many sent certificates go unused by the built path?

    Each unique chain is also round-tripped through BOTH TLS Certificate
    wire framings ({!Chaoschain_tlssim.Certmsg}); the decoded lists are
    compared certificate-for-certificate and the per-format message sizes
    accumulated, giving the corpus-wide decode-agreement figure that
    [chaoscheck classify] reports. *)

open Chaoschain_x509

type chain_stats = {
  cs_chains : int;   (** unique chains in this bucket *)
  cs_domains : int;  (** domains serving one of them *)
}

type format_agreement = {
  fa_chains : int;  (** unique chains round-tripped *)
  fa_agree : int;   (** both framings decoded to the same certificate list *)
  fa_bytes12 : int; (** total TLS 1.2 Certificate-message bytes *)
  fa_bytes13 : int; (** total TLS 1.3 Certificate-message bytes *)
}

type t = {
  domains : int;
  unique_chains : int;
  unique_certs : int;
  subject_keys : int;  (** subject DNs in the corpus, up to [Dn.equal] *)
  issuer_keys : int;   (** issuer DNs in the corpus, up to [Dn.equal] *)
  ordered : chain_stats;
  unordered : chain_stats;
  with_duplicates : chain_stats;
  self_contained : chain_stats;
  transvalid : chain_stats;     (** buildable only with corpus help *)
  unbuildable : chain_stats;
  with_unused : chain_stats;    (** sent certificates off the built path *)
  agreement : format_agreement;
}

val run : (string * Cert.t list) array -> t
(** Classify a dataset's [(domain, served chain)] pairs. Deterministic:
    depends only on the array contents. *)

val report : t -> Chaoschain_report.Report.t
(** Render as the typed report IR ([id = "classify"]) for the text, JSON
    and Markdown renderers. *)
