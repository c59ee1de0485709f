open Chaoschain_x509
open Chaoschain_core
open Chaoschain_pki
module Pem = Chaoschain_deployment.Pem
module Base64 = Chaoschain_deployment.Base64
module Certmsg = Chaoschain_tlssim.Certmsg
module Pipeline = Chaoschain_measurement.Pipeline
module Scanner = Chaoschain_measurement.Scanner
module Hex = Chaoschain_crypto.Hex
module Json = Chaoschain_report.Json

type env = {
  diff_env : Difftest.env;
  union_store : Root_store.t;
  program_store : Root_store.program -> Root_store.t;
  aia : Aia_repo.t;
  find_scenario : string -> (string * Cert.t list) option;
}

type t = {
  env : env;
  cache : string Lru.t;          (* options+chain key -> verdict JSON bytes *)
  metrics : Metrics.t;
  queue : (int * (Protocol.request, Protocol.error) result) Queue.t;
      (* admitted frames, parsed once at submission and tagged with the
         submitter's connection id; the tag rides through drain so a
         multi-connection front end can route each reply home *)
  queue_capacity : int;
  batch : int;
  pool : Pipeline.Pool.t;
  empty_aia : Aia_repo.t;        (* every fetch 404s: the aia:false world *)
  default_format : Certmsg.format option;
      (* assumed framing for "certmsg" checks that do not declare one;
         [None] = auto-detect. NOT part of the verdict key: the verdict
         depends only on the decoded certificate list. *)
  now : unit -> float;           (* injectable clock for latency timing *)
  mutable store_stats : (string * Json.t) list option;
      (* extra "store" block in stats replies, set by --warm-store *)
  mutable experiments_stats : Json.t option;
      (* extra "experiments" block: the warm corpus's compliance tables as
         report-IR JSON *)
  mutable shard_group : t list;
      (* [] = standalone. Non-empty: this engine is one shard of the group
         (itself included), and its stats replies report the union so a
         client gets the same whole-service picture whichever shard
         answers. *)
}

let create ~env ?(cache_capacity = 1024) ?(queue_capacity = 64) ?(batch = 8)
    ?(jobs = 1) ?default_format ?(now = Unix.gettimeofday) () =
  if cache_capacity < 0 then invalid_arg "Engine.create: cache_capacity >= 0";
  if queue_capacity < 1 then invalid_arg "Engine.create: queue_capacity >= 1";
  if batch < 1 then invalid_arg "Engine.create: batch >= 1";
  if jobs < 1 then invalid_arg "Engine.create: jobs >= 1";
  {
    env;
    cache = Lru.create ~capacity:cache_capacity;
    metrics = Metrics.create ();
    queue = Queue.create ();
    queue_capacity;
    batch;
    pool = Pipeline.Pool.create ~jobs;
    empty_aia = Aia_repo.create ();
    default_format;
    now;
    store_stats = None;
    experiments_stats = None;
    shard_group = [];
  }

let metrics t = Metrics.snapshot t.metrics
let cache_size t = Lru.size t.cache
let cache_capacity t = Lru.capacity t.cache
let cache_evictions t = Lru.evictions t.cache
let pending t = Queue.length t.queue
let queue_capacity t = t.queue_capacity
let can_admit t = Queue.length t.queue < t.queue_capacity
let shutdown t = Pipeline.Pool.shutdown t.pool
let set_store_stats t fields = t.store_stats <- Some fields
let set_experiments t j = t.experiments_stats <- Some j

let link_shards ts =
  (match ts with [] | [ _ ] -> invalid_arg "Engine.link_shards: >= 2 engines"
   | _ -> ());
  List.iter (fun t -> t.shard_group <- ts) ts

let aggregate_metrics ts = Metrics.aggregate (List.map (fun t -> t.metrics) ts)

let copy_cache src dst =
  List.iter
    (fun (k, v) -> Lru.add dst.cache k v)
    (Lru.bindings_lru_first src.cache)

(* --- verdict construction --- *)

let json_strings l = Json.List (List.map (fun s -> Json.String s) l)

let compliance_json (report : Compliance.report) =
  let o = report.Compliance.order in
  let c = report.Compliance.completeness in
  Json.Obj
    [ ("compliant", Json.Bool (Compliance.compliant report));
      ("reasons", json_strings (Compliance.non_compliance_reasons report));
      ("leaf", Json.String (Leaf_check.verdict_to_string report.Compliance.leaf));
      ( "order",
        Json.Obj
          [ ("ordered", Json.Bool o.Order_check.ordered);
            ("violations", json_strings (Order_check.violations o));
            ("path_count", Json.Int o.Order_check.path_count);
            ("reversed_paths", Json.Int o.Order_check.reversed_paths) ] );
      ( "completeness",
        Json.Obj
          [ ( "verdict",
              Json.String (Completeness.verdict_to_string c.Completeness.verdict) );
            ( "cause",
              match c.Completeness.cause with
              | None -> Json.Null
              | Some cause ->
                  Json.String (Completeness.incomplete_cause_to_string cause) );
            ("missing_count", Json.Int c.Completeness.missing_count);
            ("via_aia", Json.Bool c.Completeness.via_aia) ] ) ]

let difftest_json ~full (case : Difftest.case) =
  let clients =
    Json.List
      (List.map
         (fun (r : Difftest.client_result) ->
           Json.Obj
             [ ("name", Json.String r.Difftest.client.Clients.name);
               ("version", Json.String r.Difftest.client.Clients.version);
               ("accepted", Json.Bool (Engine.accepted r.Difftest.outcome));
               ("message", Json.String r.Difftest.message) ])
         case.Difftest.results)
  in
  let agreement =
    (* The cause taxonomy and the agreement statistics are defined over the
       full eight-client panel; a subset request only reports per-client
       outcomes. *)
    if not full then []
    else
      [ ( "causes",
          json_strings
            (List.map Difftest.cause_to_string (Difftest.classify case)) );
        ("browsers_agree", Json.Bool (Difftest.browsers_agree case));
        ("libraries_agree", Json.Bool (Difftest.libraries_agree case));
        ("all_browsers_pass", Json.Bool (Difftest.all_browsers_pass case));
        ("all_libraries_pass", Json.Bool (Difftest.all_libraries_pass case)) ]
  in
  Json.Obj (("clients", clients) :: agreement)

let recommend_json (report : Compliance.report) =
  let advice =
    Json.List
      (List.map
         (fun (a : Recommend.advice) ->
           Json.Obj
             [ ( "audience",
                 Json.String (Recommend.audience_to_string a.Recommend.audience) );
               ( "severity",
                 Json.String
                   (match a.Recommend.severity with
                   | `Must -> "must"
                   | `Should -> "should") );
               ("text", Json.String a.Recommend.text) ])
         (Recommend.server_advice report))
  in
  let corrected =
    match Recommend.corrected_chain report with
    | Some certs -> Json.String (Pem.encode_certs certs)
    | None -> Json.Null
  in
  Json.Obj [ ("advice", advice); ("corrected_pem", corrected) ]

let compute_verdict t (c : Protocol.check) ~domain certs =
  let store =
    match c.Protocol.store with
    | Protocol.Union -> t.env.union_store
    | Protocol.Program p -> t.env.program_store p
  in
  let aia_repo = if c.Protocol.aia then t.env.aia else t.empty_aia in
  let report =
    Compliance.analyze ~aia_enabled:c.Protocol.aia ~store ~aia:aia_repo ~domain
      certs
  in
  let denv =
    let base = t.env.diff_env in
    let base =
      match c.Protocol.store with
      | Protocol.Union -> base
      | Protocol.Program _ -> { base with Difftest.store_of = (fun _ -> store) }
    in
    if c.Protocol.aia then base else { base with Difftest.aia = t.empty_aia }
  in
  let full, case =
    match c.Protocol.clients with
    | None -> (true, Difftest.run_case denv ~domain certs)
    | Some ids ->
        ( false,
          Difftest.run_case_clients denv
            (List.map Clients.by_id ids)
            ~domain certs )
  in
  Json.to_string
    (Json.Obj
       [ ("domain", Json.String domain);
         ( "chain",
           Json.Obj
             [ ("length", Json.Int (List.length certs));
               ( "sha256",
                 Json.String (Hex.encode (Scanner.chain_fingerprint certs)) ) ] );
         ( "options",
           Json.Obj
             [ ("store", Json.String (Protocol.store_choice_to_string c.Protocol.store));
               ("aia", Json.Bool c.Protocol.aia);
               ( "clients",
                 match c.Protocol.clients with
                 | None -> Json.String "all"
                 | Some ids ->
                     json_strings (List.map Protocol.client_id_to_string ids) ) ] );
         ("compliance", compliance_json report);
         ("difftest", difftest_json ~full case);
         ("recommend", recommend_json report) ])

(* The cache key: PR 1's chain fingerprint scheme ([Difftest.chain_key] =
   chain SHA-256 + the hostname-match bit) extended with the exact request
   parameters the verdict depends on — the scanned domain (the leaf-placement
   classification reads it beyond the match bit) and the option set. *)
let verdict_key (c : Protocol.check) ~domain certs =
  let opts =
    Printf.sprintf "%s|%c|%s"
      (Protocol.store_choice_to_string c.Protocol.store)
      (if c.Protocol.aia then '1' else '0')
      (match c.Protocol.clients with
      | None -> "all"
      | Some ids ->
          String.concat ","
            (List.sort_uniq compare (List.map Protocol.client_id_to_string ids)))
  in
  Hex.encode (Difftest.chain_key ~domain certs) ^ "|" ^ domain ^ "|" ^ opts

(* --- cache warming --- *)

(* Pre-fill the verdict LRU from a corpus: compute the default-options
   verdict (union store, AIA on, all clients) for each distinct chain and
   install it under the same key a live request would probe. Metrics are NOT
   touched — warming is not traffic, and a warmed engine must answer with
   bytes identical to a cold one (the warm fill shows up only as cache hits
   on later requests, and in the "store" stats block). *)
let warm t pairs =
  let check =
    { Protocol.domain = None; pem = None; scenario = None; certmsg = None;
      format = None; aia = true; store = Protocol.Union; clients = None }
  in
  let cap = Lru.capacity t.cache in
  if cap = 0 then 0
  else begin
    let seen = Hashtbl.create 1024 in
    let todo = ref [] in
    List.iter
      (fun (domain, certs) ->
        if Hashtbl.length seen < cap then begin
          let key = verdict_key check ~domain certs in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            todo := (key, domain, certs) :: !todo
          end
        end)
      pairs;
    let todo = Array.of_list (List.rev !todo) in
    let out = Array.make (Array.length todo) "" in
    Pipeline.Pool.run t.pool (Array.length todo) (fun i ->
        let _, domain, certs = todo.(i) in
        out.(i) <- compute_verdict t check ~domain certs);
    Array.iteri (fun i (key, _, _) -> Lru.add t.cache key out.(i)) todo;
    Array.length todo
  end

(* --- batch processing --- *)

(* A prepared frame. Preparation runs sequentially on the serve thread: it
   parses, resolves the chain, consults the cache and coalesces duplicate
   keys; only [Fresh] slots reach the parallel pool. *)
type fresh = { f_id : string option; f_key : string; compute : unit -> string }

type slot =
  | Ready of string  (* response fully determined (errors, cache hits) *)
  | Stats of string option
  | Fresh of fresh
  | Join of string option * string
      (* (id, key) of an earlier Fresh in this batch: coalesced, counted hit *)

let with_domain (c : Protocol.check) certs =
  match c.Protocol.domain with
  | Some d -> Ok (d, certs)
  | None -> Error ("malformed_frame", "\"domain\" is required")

(* Decode a base64 TLS Certificate message in the declared framing, the
   engine's default framing, or — absent both — by auto-detection. The
   source and framing stop mattering here: downstream, only the decoded
   certificate list (and thus the verdict key) exists, which is what makes
   verdicts byte-identical across the two encodings of one chain. *)
let resolve_certmsg t (c : Protocol.check) b64 =
  match Base64.decode b64 with
  | Error e -> Error ("malformed_certmsg", "invalid base64: " ^ e)
  | Ok wire -> (
      let decoded =
        match (c.Protocol.format, t.default_format) with
        | Some f, _ | None, Some f -> Certmsg.decode f wire
        | None, None -> Certmsg.decode_auto wire
      in
      match decoded with
      | Error e -> Error ("malformed_certmsg", e)
      | Ok msg -> (
          match Certmsg.certs msg with
          | [] -> Error ("malformed_certmsg", "no certificates in message")
          | certs -> with_domain c certs))

let resolve_chain t (c : Protocol.check) =
  match (c.Protocol.pem, c.Protocol.scenario, c.Protocol.certmsg) with
  | Some pem, _, _ -> (
      match Pem.decode_certs pem with
      | Error e -> Error ("malformed_pem", e)
      | Ok [] -> Error ("malformed_pem", "no certificates in input")
      | Ok certs -> with_domain c certs)
  | None, Some scenario, _ -> (
      match t.env.find_scenario scenario with
      | None -> Error ("unknown_scenario", "no scenario matches " ^ scenario)
      | Some (scenario_domain, certs) ->
          Ok (Option.value c.Protocol.domain ~default:scenario_domain, certs))
  | None, None, Some b64 -> resolve_certmsg t c b64
  | None, None, None -> Error ("malformed_frame", "no chain source")

let stats_json t =
  (* Sharded, the reply must describe the whole service, not whichever
     shard the connection landed on: counters and histograms are the
     cross-shard union, cache occupancy is summed, and a "shards" field
     announces the group size. Standalone (the stdio path, --shards 1)
     the reply bytes are exactly the ungrouped ones — no "shards" field. *)
  let s, cache_block, shards_block =
    match t.shard_group with
    | [] ->
        ( Metrics.snapshot t.metrics,
          [ ("size", Json.Int (cache_size t));
            ("capacity", Json.Int (cache_capacity t));
            ("evictions", Json.Int (cache_evictions t)) ],
          [] )
    | group ->
        let sum f = List.fold_left (fun acc g -> acc + f g) 0 group in
        ( aggregate_metrics group,
          [ ("size", Json.Int (sum cache_size));
            ("capacity", Json.Int (sum cache_capacity));
            ("evictions", Json.Int (sum cache_evictions)) ],
          [ ("shards", Json.Int (List.length group)) ] )
  in
  let store_block =
    match t.store_stats with
    | None -> []
    | Some fields -> [ ("store", Json.Obj fields) ]
  in
  let experiments_block =
    match t.experiments_stats with
    | None -> []
    | Some j -> [ ("experiments", j) ]
  in
  Json.Obj
    ([ ("requests", Json.Int s.Metrics.requests);
      ("checks", Json.Int s.Metrics.checks);
      ("hits", Json.Int s.Metrics.hits);
      ("misses", Json.Int s.Metrics.misses);
      ("rejects", Json.Int s.Metrics.rejects);
      ("errors", Json.Int s.Metrics.errors);
      ( "cache", Json.Obj cache_block );
      ( "intern",
        (* The process-wide certificate intern table (distinct from the
           verdict LRU above): the LRU caches whole responses keyed by
           chain + options, the intern table shares parsed [Cert.t] values
           keyed by DER bytes, so even LRU misses skip re-parsing any
           certificate seen before. *)
        let i = Intern.stats () in
        Json.Obj
          [ ("entries", Json.Int i.Intern.entries);
            ("lookups", Json.Int i.Intern.lookups);
            ("reused", Json.Int i.Intern.hits) ] );
      ( "config",
        Json.Obj
          [ ("queue_capacity", Json.Int t.queue_capacity);
            ("batch", Json.Int t.batch);
            ("jobs", Json.Int (Pipeline.Pool.jobs t.pool)) ] );
      ( "latency_ms",
        Json.Obj
          [ ("count", Json.Int s.Metrics.lat_count);
            ("mean", Json.Float s.Metrics.lat_mean_ms);
            ("p50", Json.Float s.Metrics.lat_p50_ms);
            ("p90", Json.Float s.Metrics.lat_p90_ms);
            ("p95", Json.Float s.Metrics.lat_p95_ms);
            ("p99", Json.Float s.Metrics.lat_p99_ms);
            ("p999", Json.Float s.Metrics.lat_p999_ms);
            ("max", Json.Float s.Metrics.lat_max_ms);
            ( "buckets",
              Json.List
                (List.map
                   (fun (bound, count) ->
                     Json.Obj
                       [ ( "le",
                           if Float.is_finite bound then Json.Float bound
                           else Json.String "inf" );
                         ("count", Json.Int count) ])
                   s.Metrics.buckets) ) ] ) ]
    @ shards_block @ store_block @ experiments_block)

let prepare t seen parsed =
  match parsed with
  | Error { Protocol.err_id; code; message } ->
      Metrics.incr_errors t.metrics;
      Ready (Protocol.error_response ~id:err_id ~code message)
  | Ok { Protocol.id; op = Protocol.Stats } -> Stats id
  | Ok { Protocol.id; op = Protocol.Check c } -> (
      Metrics.incr_checks t.metrics;
      match resolve_chain t c with
      | Error (code, message) ->
          Metrics.incr_errors t.metrics;
          Ready (Protocol.error_response ~id ~code message)
      | Ok (domain, certs) -> (
          let key = verdict_key c ~domain certs in
          match Lru.find t.cache key with
          | Some verdict ->
              Metrics.incr_hits t.metrics;
              Ready (Protocol.verdict_response ~id ~verdict)
          | None ->
              if Hashtbl.mem seen key then begin
                Metrics.incr_hits t.metrics;
                Join (id, key)
              end
              else begin
                Hashtbl.add seen key ();
                Metrics.incr_misses t.metrics;
                Fresh
                  {
                    f_id = id;
                    f_key = key;
                    compute = (fun () -> compute_verdict t c ~domain certs);
                  }
              end))

let process_slots t slots =
  let fresh =
    List.filter_map (function Fresh f -> Some f | _ -> None) slots
  in
  let results = Hashtbl.create (List.length fresh * 2 + 1) in
  let fresh = Array.of_list fresh in
  let out = Array.make (Array.length fresh) (Ok "") in
  Pipeline.Pool.run t.pool (Array.length fresh) (fun i ->
      let f = fresh.(i) in
      let t0 = t.now () in
      (out.(i) <-
        (match f.compute () with
        | verdict -> Ok verdict
        | exception e -> Error (Printexc.to_string e)));
      Metrics.observe_latency t.metrics (t.now () -. t0));
  Array.iteri
    (fun i f ->
      match out.(i) with
      | Ok verdict ->
          Lru.add t.cache f.f_key verdict;
          Hashtbl.replace results f.f_key (Ok verdict)
      | Error msg ->
          Metrics.incr_errors t.metrics;
          Hashtbl.replace results f.f_key (Error msg))
    fresh;
  let render_key id key =
    match Hashtbl.find_opt results key with
    | Some (Ok verdict) -> Protocol.verdict_response ~id ~verdict
    | Some (Error msg) -> Protocol.error_response ~id ~code:"internal" msg
    | None ->
        Protocol.error_response ~id ~code:"internal" "lost computation"
  in
  List.map
    (function
      | Ready response -> response
      | Fresh { f_id; f_key; _ } -> render_key f_id f_key
      | Join (id, key) -> render_key id key
      | Stats id ->
          let t0 = t.now () in
          let response = Protocol.stats_response ~id (stats_json t) in
          Metrics.observe_latency t.metrics (t.now () -. t0);
          response)
    slots

(* --- admission and draining --- *)

let overload_response frame =
  let id =
    match Protocol.of_frame frame with
    | Ok { Protocol.id; _ } -> id
    | Error { Protocol.err_id; _ } -> err_id
  in
  Protocol.error_response ~id ~code:"overloaded"
    "admission queue full; retry later"

let submit t ~tag frame =
  if Queue.length t.queue >= t.queue_capacity then begin
    Metrics.incr_rejects t.metrics;
    `Rejected (overload_response frame)
  end
  else begin
    Metrics.incr_requests t.metrics;
    Queue.add (tag, Protocol.of_frame frame) t.queue;
    `Admitted
  end

(* An overlong line never reaches the parser; it queues as an error that
   [prepare] answers (counting one error, no request) in its turn. *)
let overlong_error =
  Error
    { Protocol.err_id = None; code = "overlong";
      message = "request line exceeds the transport's frame-length bound" }

let submit_overlong t ~tag = Queue.add (tag, overlong_error) t.queue

(* Take the next micro-batch: up to [batch] frames, but a stats frame is a
   barrier — it is taken alone, so its reply observes every check admitted
   before it (batch members are processed concurrently). *)
let take_batch t =
  let rec go acc n =
    if n >= t.batch || Queue.is_empty t.queue then List.rev acc
    else
      match Queue.peek t.queue with
      | _, Ok { Protocol.op = Protocol.Stats; _ } ->
          if acc = [] then [ Queue.pop t.queue ] else List.rev acc
      | _ -> go (Queue.pop t.queue :: acc) (n + 1)
  in
  go [] 0

let drain_tagged t =
  match take_batch t with
  | [] -> []
  | tagged ->
      let seen = Hashtbl.create 16 in
      let responses =
        process_slots t (List.map (fun (_, p) -> prepare t seen p) tagged)
      in
      List.map2 (fun (tag, _) response -> (tag, response)) tagged responses

let handle_frame t frame =
  let seen = Hashtbl.create 1 in
  match process_slots t [ prepare t seen (Protocol.of_frame frame) ] with
  | [ response ] -> response
  | _ -> assert false
