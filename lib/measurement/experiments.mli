(** The reproduction suite: one entry per table and figure of the paper, each
    rendering the measured result next to the paper's reported value.

    [analyze] runs the server-side compliance pipeline once over a generated
    population; individual experiments reuse that shared analysis. [run_all]
    is what [chaoscheck reproduce] (and through it EXPERIMENTS.md
    generation) calls. *)

open Chaoschain_x509
open Chaoschain_core

type analysis = {
  pop : Population.t;
  dataset : Scanner.dataset;
  reports : (Population.record * Compliance.report) array;
  jobs : int;  (** Domain-pool size the downstream experiments reuse *)
  difftest_memo : Difftest.case Pipeline.Memo.t;
      (** analysis-wide cache: each unique chain is diff-tested once *)
}

val analyze :
  ?jobs:int -> ?format:Chaoschain_tlssim.Certmsg.format -> Population.t ->
  analysis
(** Scan then classify the population on the {!Pipeline}: the corpus is
    sharded deterministically, a pool of [jobs] Domains (default 1 =
    sequential) drains the shards, and each unique chain — keyed by its
    fingerprint from the scan — is classified once and fanned back out. The
    result is byte-identical for every [jobs] value (and for either wire
    [format] the scan parses the dataset from; see {!Scanner.scan}). *)

val difftest_record : analysis -> Population.record -> Difftest.case
(** Differential-test one domain through the analysis-wide memo. *)

type view = {
  v_dataset : Scanner.dataset;
  v_env : Difftest.env;
  v_items : (string * Cert.t list * Compliance.report) array;
      (** one (domain, served chain, report) per domain, in dataset order *)
  v_jobs : int;
  v_memo : Difftest.case Pipeline.Memo.t;
}
(** The slice of an analysis that a persisted corpus can reproduce: served
    chains, compliance reports and the trust environment — no synthetic
    population labels. The live scan builds one with {!view}; replay builds
    one from disk ([Corpus.analyze]); {!scan_results} renders both through
    the same code, which is what makes replayed tables byte-identical. *)

val view : analysis -> view

val difftest_item : view -> domain:string -> Cert.t list -> Difftest.case
(** {!difftest_record} for a view item: memoised by
    [Difftest.chain_key], relabelled with [domain]. *)

type result = Chaoschain_report.Report.t = {
  id : string;  (** e.g. ["table3"] *)
  title : string;
  blocks : Chaoschain_report.Report.block list;
      (** the typed document; render with [Report.to_text] (ASCII, what the
          sprintf bodies used to be), [to_json] or [to_markdown] *)
}

val table1 : unit -> result
val table2 : unit -> result
val table3 : analysis -> result
val table4 : unit -> result
val table5 : analysis -> result
val table6 : analysis -> result
val table7 : analysis -> result
val table8 : analysis -> result
val table9 : unit -> result
val table10 : analysis -> result
val table11 : analysis -> result
val figure1 : analysis -> result
val figure2 : analysis -> result
val figure3 : analysis -> result
val figure4 : analysis -> result
val figure5 : analysis -> result
val section5_2 : analysis -> result

val section6 : analysis -> result
(** Section 6 made executable: remediation advice, the capability-ablation
    ladder behind the section 6.2 claim, and the issuer-tie statistics. *)

val dataset_overview : analysis -> result
(** The section 3.1 collection statistics (vantage totals, unique chains and
    certificates, TLS 1.2/1.3 agreement). *)

val table_results : view -> result list
(** The cheap store-reproducible subset (no differential testing): dataset
    overview and tables 3, 5 and 7. [chaoscheck diff] and the chaind
    [experiments] stats block use this. *)

val scan_results : view -> result list
(** The store-reproducible subset, in paper order: dataset overview, tables
    3, 5 and 7, and section 5.2. [chaoscheck scan] and [chaoscheck replay]
    both print exactly this list. *)

type experiment =
  | Static of (unit -> result)  (** needs no population *)
  | Measured of (analysis -> result)

val experiments : (string * experiment) list
(** Every experiment by its result's [id], in paper order. [chaoscheck
    reproduce --only ID] runs just the one named (a [Static] one without
    generating a population). *)

val run_all : analysis -> result list
(** Every experiment of {!experiments}, in order. *)
