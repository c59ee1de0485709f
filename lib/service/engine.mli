(** chaind — the online chain-compliance query engine.

    One request carries a served certificate list (PEM, a named lab
    scenario, or a base64 raw TLS Certificate message in either the 1.2 or
    1.3 framing) plus options; the reply is a structured verdict combining the
    server-side compliance report ({!Chaoschain_core.Compliance}), the
    per-client differential-testing outcomes ({!Chaoschain_core.Difftest})
    and the section-6 remediation advice ({!Chaoschain_core.Recommend}).

    Built for throughput:

    - a bounded {!Lru} verdict cache keyed by [Difftest.chain_key] extended
      with the request options — repeated chains are answered with the
      byte-identical cached verdict;
    - micro-batching: admitted frames queue up and are drained in batches of
      [batch] through a persistent {!Chaoschain_measurement.Pipeline.Pool};
      identical checks inside one batch coalesce onto a single computation;
    - a bounded admission queue with explicit overload rejections
      (backpressure instead of unbounded buffering);
    - per-request {!Metrics} served by the [stats] op and printed on
      shutdown.

    Verdicts are deterministic: byte-identical across [jobs] values and
    across the cache hit/miss paths. *)

open Chaoschain_x509
open Chaoschain_core
open Chaoschain_pki

type env = {
  diff_env : Difftest.env;
  union_store : Root_store.t;
  program_store : Root_store.program -> Root_store.t;
  aia : Aia_repo.t;
  find_scenario : string -> (string * Cert.t list) option;
      (** Resolve a scenario-name substring to (domain, served chain); the
          CLI backs this with {!Chaoschain_measurement.Scenario_index.find},
          tests with a fixture. Called once per [scenario] check, on the
          serve thread, so it must not scan the population: build any
          table before creating the engine. *)
}

type t

val create :
  env:env ->
  ?cache_capacity:int ->
  ?queue_capacity:int ->
  ?batch:int ->
  ?jobs:int ->
  ?now:(unit -> float) ->
  unit ->
  t
(** Defaults: [cache_capacity = 1024], [queue_capacity = 64], [batch = 8],
    [jobs = 1]. [cache_capacity] must be [>= 0] (0 disables caching), the
    other three [>= 1] (raises [Invalid_argument]). A ["certmsg"] check
    that declares no ["format"] is auto-detected
    ({!Chaoschain_tlssim.Certmsg.decode_auto}). The framing never reaches
    the verdict key, so the same chain delivered under either encoding
    yields byte-identical verdicts (and shares one cache entry). [now] is the clock used for latency timing (default
    [Unix.gettimeofday]); injecting a scripted clock makes the latency
    histogram deterministic in tests. *)

val warm : t -> (string * Cert.t list) list -> int
(** [warm t pairs] pre-fills the verdict cache from [(domain, chain)] pairs
    (typically a loaded corpus): each distinct default-options verdict key
    is computed once, over the engine's worker pool, and installed in the
    LRU — at most [cache_capacity] entries, surplus pairs skipped. Returns
    the number of entries computed. Metrics are untouched, so a warmed
    engine's replies are byte-identical to a cold one's; the warm fill
    surfaces as cache hits on later requests. *)

val set_store_stats : t -> (string * Chaoschain_report.Json.t) list -> unit
(** Attach a ["store"] block (e.g. corpus record counts, Merkle root, warm
    fill) that {!stats_json} will append to every stats reply. *)

val set_experiments : t -> Chaoschain_report.Json.t -> unit
(** Attach an ["experiments"] block — the warm corpus's compliance tables
    rendered as report-IR JSON ([Report.to_json] per table) — appended to
    every stats reply after the store block. *)

val link_shards : t list -> unit
(** Declare the engines one shard group (>= 2, or [Invalid_argument]):
    each member's [stats] replies then report the cross-shard union —
    {!Metrics.aggregate} over every member, cache occupancy summed — plus
    a ["shards"] field, so a client sees the whole service whichever
    shard its connection landed on. Verdict processing is untouched: each
    shard keeps its own queue, batcher, worker pool and LRU (an engine is
    not thread-safe; sharing state across shard Domains is confined to
    the Mutex-guarded {!Metrics} and the process-wide intern table). *)

val aggregate_metrics : t list -> Metrics.snapshot
(** {!Metrics.aggregate} over the engines' metric instances (the shutdown
    summary for a sharded run). *)

val copy_cache : t -> t -> unit
(** [copy_cache src dst] replays [src]'s verdict-cache bindings into
    [dst] (least-recently-used first, preserving recency) — how one
    [--warm-store] pass fills every shard without recomputing. *)

val submit : t -> tag:int -> string -> [ `Admitted | `Rejected of string ]
(** Offer one raw frame to the admission queue. An admitted frame is
    parsed here, once; the stats barrier and request preparation both read
    that result. [`Rejected response] is
    returned (and counted) when the queue already holds [queue_capacity]
    frames; the response is a ready-to-send ["overloaded"] error. The
    opaque [tag] comes back with the frame's response from
    {!drain_tagged} — how the netd event loop routes each reply back to
    the connection that sent the request. *)

val pending : t -> int
(** Frames currently queued. *)

val queue_capacity : t -> int

val can_admit : t -> bool
(** [pending t < queue_capacity t]: the next {!submit} would be admitted.
    A readiness-driven front end polls this to hold parsed frames (and
    pause reading) instead of drawing ["overloaded"] rejections. *)

val drain_tagged : t -> (int * string) list
(** Process one micro-batch from the queue and return the responses in
    request order, each paired with the tag its request was submitted
    under. At most [batch] checks per call; a [stats] request acts as a
    batch barrier so its reply reflects every request admitted before it.
    Empty list when the queue is empty. *)

val submit_overlong : t -> tag:int -> unit
(** Queue the canonical ["overlong"] error for a request line past the
    framing layer's [max_frame] bound. It is answered in submission order,
    like any frame, so it never overtakes replies to earlier requests; it
    counts one error and no request. Never rejected: call it only when
    {!can_admit}, as for {!submit}. *)

val handle_frame : t -> string -> string
(** Admit-free, serial processing of one request: the byte-identity
    oracle that tests and the benchmark hold served replies against. *)

val metrics : t -> Metrics.snapshot
val cache_size : t -> int
val cache_capacity : t -> int
val cache_evictions : t -> int

val stats_json : t -> Chaoschain_report.Json.t
(** The payload of a [stats] reply: counters, latency histogram, cache
    occupancy and the engine's configured bounds. *)

val shutdown : t -> unit
(** Join the worker pool. *)
