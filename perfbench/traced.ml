(* The traced run: the workload's generated frames replayed in this process
   through the libraries' public functions, with spans recorded here, in
   the benchmark, around each call into a layer.

   Every frame goes through two executions, in alternating order:
   - Engine.handle_frame, timed whole (service.engine.hit_us / miss_us)
     with Gc.minor_words around it;
   - the mirror: the same steps the engine takes, called one by one under
     spans (parse, chain decode, chain key, key formatting, LRU probe, and
     on a miss compliance, difftest, recommend and LRU insert; on a hit the
     reply render). The mirror keeps its own LRU of the engine's capacity,
     fed the same keys, so it takes the hit and miss paths the engine does;
     a disagreement fails the run.

   A layer's self time is its span minus the child spans inside it. The
   engine's self time is handle_frame minus the mirrored children, which
   leaves render and key formatting. *)

open Chaoschain_core
open Chaoschain_measurement
module Engine = Chaoschain_service.Engine
module Protocol = Chaoschain_service.Protocol
module Lru = Chaoschain_service.Lru
module Pem = Chaoschain_deployment.Pem
module Base64 = Chaoschain_deployment.Base64
module Certmsg = Chaoschain_tlssim.Certmsg
module Hex = Chaoschain_crypto.Hex
module Universe = Chaoschain_pki.Universe
module Framing = Chaoschain_net.Framing

(* --- spans --- *)

type span = { id : int; req : int; name : string; parent : int; t0 : int64; t1 : int64 }

type tracer = { mutable on : bool; mutable next : int; mutable spans : span list }

let tracer () = { on = true; next = 0; spans = [] }

(* [f] receives the new span's id, to parent the spans it opens. *)
let span tr ~req ~parent name f =
  if not tr.on then f (-1)
  else begin
    let id = tr.next in
    tr.next <- id + 1;
    let t0 = Clock.now_ns () in
    let r = f id in
    let t1 = Clock.now_ns () in
    tr.spans <- { id; req; name; parent; t0; t1 } :: tr.spans;
    r
  end

(* the span just closed *)
let last tr = List.hd tr.spans

let dur_us s = Clock.us_between s.t0 s.t1

(* name -> (calls, total self us) *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_us s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur_us s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, t +. self))
    spans;
  by_name

let write_spans path spans =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "req\tid\tparent\tname\tstart_ns\tend_ns\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" s.req s.id s.parent s.name
            s.t0 s.t1)
        (List.rev spans))

(* --- the serving replay --- *)

let env_of pop =
  let u = pop.Population.universe in
  { Engine.diff_env = Population.env pop;
    union_store = Universe.union_store u;
    program_store = Universe.store u;
    aia = Universe.aia u;
    find_scenario = Inputs.find_scenario pop }

let fail fmt = Printf.ksprintf failwith fmt

(* The spans the mirror wraps around the engine's children; the engine's
   self time is handle_frame minus these. *)
let children =
  [ "service.protocol.parse"; "deployment.pem.decode"; "tlssim.certmsg.decode";
    "scenario.resolve"; "core.difftest.chain_key"; "service.lru.find";
    "core.compliance.analyze"; "core.difftest.run_case"; "core.recommend.advice";
    "service.lru.add" ]

(* Render and key formatting: mirrored too, but part of the engine's self. *)
let own = [ "service.engine.key"; "service.protocol.render" ]

let mirror tr ~req (env : Engine.env) (lru : string ref Lru.t) frame =
  span tr ~req ~parent:(-1) "mirror" (fun root ->
      let sp name f = span tr ~req ~parent:root name (fun _ -> f ()) in
      let id, c =
        match sp "service.protocol.parse" (fun () -> Protocol.of_frame frame) with
        | Ok { Protocol.id; op = Protocol.Check c } -> (id, c)
        | _ -> fail "traced replay: not a check frame"
      in
      let domain, certs =
        match (c.Protocol.pem, c.Protocol.scenario, c.Protocol.certmsg) with
        | Some pem, _, _ -> (
            match sp "deployment.pem.decode" (fun () -> Pem.decode_certs pem) with
            | Ok certs -> (Option.get c.Protocol.domain, certs)
            | Error e -> fail "pem: %s" e)
        | None, Some s, _ -> (
            match sp "scenario.resolve" (fun () -> env.Engine.find_scenario s) with
            | Some (d, certs) -> (Option.value c.Protocol.domain ~default:d, certs)
            | None -> fail "unknown scenario %s" s)
        | None, None, Some b64 ->
            let decoded =
              sp "tlssim.certmsg.decode" (fun () ->
                  Result.bind (Base64.decode b64) (fun wire ->
                      Result.map Certmsg.certs
                        (Certmsg.decode (Option.get c.Protocol.format) wire)))
            in
            (match decoded with
            | Ok certs -> (Option.get c.Protocol.domain, certs)
            | Error e -> fail "certmsg: %s" e)
        | None, None, None -> fail "no chain source"
      in
      let k = sp "core.difftest.chain_key" (fun () -> Difftest.chain_key ~domain certs) in
      let key =
        sp "service.engine.key" (fun () ->
            Hex.encode k ^ "|" ^ domain ^ "|"
            ^ Printf.sprintf "%s|%c|all"
                (Protocol.store_choice_to_string c.Protocol.store)
                (if c.Protocol.aia then '1' else '0'))
      in
      match sp "service.lru.find" (fun () -> Lru.find lru key) with
      | Some verdict ->
          ignore
            (sp "service.protocol.render" (fun () ->
                 Protocol.verdict_response ~id ~verdict:!verdict));
          (`Hit, None)
      | None ->
          let report =
            sp "core.compliance.analyze" (fun () ->
                Compliance.analyze ~aia_enabled:true ~store:env.Engine.union_store
                  ~aia:env.Engine.aia ~domain certs)
          in
          ignore
            (sp "core.difftest.run_case" (fun () ->
                 Difftest.run_case env.Engine.diff_env ~domain certs));
          sp "core.recommend.advice" (fun () ->
              ignore (Recommend.server_advice report);
              ignore (Recommend.corrected_chain report));
          let cell = ref "" in
          sp "service.lru.add" (fun () -> Lru.add lru key cell);
          (`Miss, Some cell))

type serving = {
  metrics : (string * float * string) list;
  engine_us_per_frame : float;  (* mean handle_frame time over the stream *)
  problems : string list;
}

(* Coverage = mirrored spans / handle_frame, per path. Hits mirror every
   step; a miss leaves the verdict's JSON rendering unmirrored. *)
let coverage_band = (0.80, 1.10)

(* a path seen on fewer frames is reported but not checked *)
let min_frames = 50

type row = {
  path : [ `Hit | `Miss ];
  timed : bool;        (* a frame of the timed streams, not the fill *)
  engine_us : float;   (* Engine.handle_frame *)
  words : float;       (* minor words allocated by handle_frame *)
  children_us : float; (* mirrored children *)
  own_us : float;      (* mirrored key formatting and render *)
}

(* The request stream's bytes through one framing machine, in 64 KiB
   chunks; ns per frame. *)
let framing tr frames =
  let bytes = String.concat "" (Array.to_list (Array.map (fun f -> f ^ "\n") frames)) in
  let fr = Framing.create () in
  let n = ref 0 in
  span tr ~req:(-1) ~parent:(-1) "net.framing" (fun _ ->
      let rec pump () = match Framing.next fr with `Frame _ -> incr n; pump () | _ -> () in
      let pos = ref 0 in
      while !pos < String.length bytes do
        let k = min 65536 (String.length bytes - !pos) in
        Framing.feed fr (Bytes.unsafe_of_string bytes) !pos k;
        pump ();
        pos := !pos + k
      done);
  if !n <> Array.length frames then fail "framing: %d frames of %d" !n (Array.length frames);
  dur_us (last tr) *. 1e3 /. Float.of_int (max 1 !n)

let serving ~spans_out ~(w : Inputs.workload) ~pop ~fill ~stream =
  let env = env_of pop in
  let engine = Engine.create ~env ~cache_capacity:w.Inputs.cache ~jobs:1 () in
  let lru = Lru.create ~capacity:w.Inputs.cache in
  let tr = tracer () in
  let rows = ref [] and overhead = ref [] and mismatch = ref 0 in
  let hits () = (Engine.metrics engine).Chaoschain_service.Metrics.hits in
  let handle ~timed req frame =
    let run_engine () =
      let before = hits () and w0 = Gc.minor_words () in
      let reply =
        span tr ~req ~parent:(-1) "service.engine.handle_frame" (fun _ ->
            Engine.handle_frame engine frame)
      in
      let us = dur_us (last tr) and words = Gc.minor_words () -. w0 in
      (reply, hits () > before, us, words)
    in
    let mark = tr.spans in
    (* alternate which runs first, so neither always finds caches warm *)
    let (reply, hit, engine_us, words), (path, cell) =
      if req mod 2 = 0 then
        let e = run_engine () in
        (e, mirror tr ~req env lru frame)
      else
        let m = mirror tr ~req env lru frame in
        (run_engine (), m)
    in
    Option.iter (fun c -> c := reply) cell;
    if hit <> (path = `Hit) then incr mismatch;
    let rec added acc l =
      if l == mark then acc else match l with [] -> acc | s :: rest -> added (s :: acc) rest
    in
    let mine = added [] tr.spans in
    let sum names =
      List.fold_left (fun acc s -> if List.mem s.name names then acc +. dur_us s else acc) 0.0 mine
    in
    rows :=
      { path; timed; engine_us; words; children_us = sum children; own_us = sum own } :: !rows;
    (* tracing overhead: the same mirror calls again, untraced, on hits
       (re-running a hit leaves the LRU as it was) *)
    if path = `Hit && req mod 4 = 1 then begin
      tr.on <- false;
      let t0 = Clock.now_ns () in
      ignore (mirror tr ~req env lru frame);
      let t1 = Clock.now_ns () in
      tr.on <- true;
      overhead := (sum [ "mirror" ] -. Clock.us_between t0 t1) :: !overhead
    end
  in
  Array.iteri (handle ~timed:false) fill;
  Array.iteri (fun i f -> handle ~timed:true (Array.length fill + i) f) stream;
  let framing_ns = framing tr stream in
  write_spans spans_out tr.spans;
  let rows = !rows in
  let mean f l =
    if l = [] then 0.0
    else List.fold_left (fun a r -> a +. f r) 0.0 l /. Float.of_int (List.length l)
  in
  let hits = List.filter (fun r -> r.path = `Hit) rows in
  let misses = List.filter (fun r -> r.path = `Miss) rows in
  let engine_us = mean (fun r -> r.engine_us) in
  let self_us l = if l = [] then 0.0 else engine_us l -. mean (fun r -> r.children_us) l in
  let coverage l =
    if l = [] then 0.0 else mean (fun r -> r.children_us +. r.own_us) l /. engine_us l
  in
  let lo, hi = coverage_band in
  let problems =
    (if !mismatch > 0 then
       [ Printf.sprintf "traced: mirror and engine disagreed on hit/miss for %d frames" !mismatch ]
     else [])
    @ List.filter_map
        (fun (label, l) ->
          let c = coverage l in
          if List.length l < min_frames || (c >= lo && c <= hi) then None
          else
            Some
              (Printf.sprintf "traced: %s spans cover %.3f of handle_frame, outside [%.2f, %.2f]"
                 label c lo hi))
        [ ("hit", hits); ("miss", misses) ]
  in
  let selfs = self_times tr.spans in
  let per_call name =
    match Hashtbl.find_opt selfs name with
    | Some (n, t) when n > 0 -> t /. Float.of_int n
    | _ -> 0.0
  in
  let us name = (name ^ "_us", per_call name, "us") in
  let metrics =
    [ ("net.framing.ns_per_frame", framing_ns, "ns");
      us "service.protocol.parse"; us "deployment.pem.decode"; us "tlssim.certmsg.decode";
      us "core.difftest.chain_key"; us "service.lru.find"; us "service.lru.add";
      ("service.engine.hit_us", engine_us hits, "us");
      ("service.engine.miss_us", engine_us misses, "us");
      ("service.engine.self_us", self_us hits, "us");
      ("service.engine.miss_self_us", self_us misses, "us");
      ("alloc.minor_words_per_hit", mean (fun r -> r.words) hits, "words");
      ("alloc.minor_words_per_miss", mean (fun r -> r.words) misses, "words");
      us "core.compliance.analyze"; us "core.difftest.run_case"; us "core.recommend.advice";
      ("trace.coverage_hit", coverage hits, "ratio");
      ("trace.coverage_miss", coverage misses, "ratio");
      ("trace.overhead_us_per_req",
       (match !overhead with [] -> 0.0 | l -> Clock.median l), "us") ]
  in
  { metrics; engine_us_per_frame = engine_us (List.filter (fun r -> r.timed) rows); problems }

(* --- the corpus pipeline, stage by stage --- *)

let corpus ~spans_out ~dir ~jobs ~format pop =
  let tr = tracer () in
  let stage name f =
    let r = span tr ~req:0 ~parent:(-1) name (fun _ -> f ()) in
    (r, dur_us (last tr) /. 1e6)
  in
  let render results = String.concat "\n" (List.map Chaoschain_report.Report.to_text results) in
  let analysis, analyze_s =
    stage "measurement.experiments.analyze" (fun () -> Experiments.analyze ~jobs ~format pop)
  in
  let scan_text, render_s =
    stage "report.render" (fun () ->
        render (Experiments.scan_results (Experiments.view analysis)))
  in
  let _, save_s = stage "measurement.corpus.save" (fun () -> Corpus.save ~dir analysis) in
  let loaded, load_s =
    stage "measurement.corpus.load" (fun () ->
        match Corpus.load ~jobs dir with Ok l -> l | Error e -> fail "corpus load: %s" e)
  in
  let view, canalyze_s =
    stage "measurement.corpus.analyze" (fun () -> Corpus.analyze ~jobs loaded)
  in
  let pool = Pipeline.Pool.create ~jobs in
  let audit, audit_s =
    Fun.protect
      ~finally:(fun () -> Pipeline.Pool.shutdown pool)
      (fun () ->
        stage "store.audit" (fun () ->
            Corpus.Store.audit ~par:(Pipeline.Pool.run pool) ~repair:true ~samples:8 dir))
  in
  write_spans spans_out tr.spans;
  let problems =
    (if render (Experiments.scan_results view) <> scan_text then
       [ "traced corpus: replayed tables differ from the scanned ones" ]
     else [])
    @
    if audit.Corpus.Store.a_ok && not audit.Corpus.Store.a_repaired then []
    else [ "traced corpus: audit not clean" ]
  in
  ( [ ("measurement.experiments.analyze_s", analyze_s, "s");
      ("measurement.corpus.save_s", save_s, "s");
      ("report.render_s", render_s, "s");
      ("measurement.corpus.load_s", load_s, "s");
      ("measurement.corpus.analyze_s", canalyze_s, "s");
      ("store.audit_s", audit_s, "s") ],
    problems )
