(* The micro-benchmark harness: Bechamel micro-benchmarks of the core
   machinery (hashing, codecs, topology analysis, one build+validate per
   client profile, the backtracking ablation, the store and the poller),
   plus wall-clock workloads selected by --filter. The paper's tables and
   figures are regenerated by [chaoscheck reproduce].

   Usage: see [usage] below (also printed by --help). *)

open Chaoschain_measurement
open Chaoschain_core
module Json = Chaoschain_report.Json

(* Aliased before the Bechamel opens, which shadow [Monotonic_clock]. *)
module Mclock = Monotonic_clock

open Bechamel
open Bechamel.Toolkit

(* Wall-clock seconds on the monotonic clock; Sys.time would report CPU time,
   which overstates elapsed time for work that runs several Domains. *)
let wall_s () = Int64.to_float (Mclock.now ()) /. 1e9

(* --- argument parsing --- *)

let usage =
  "usage: main.exe [options]\n\
   \n\
   Run the Bechamel micro-benchmarks (the paper's tables and figures come\n\
   from `chaoscheck reproduce`).\n\
   \n\
   options:\n\
  \  --json FILE    also write the micro-benchmark estimates and wall-clock\n\
  \                 timings to FILE\n\
  \  --filter GLOB  run only workloads whose name matches GLOB (* and ?\n\
  \                 wildcards, e.g. 'store/*'). Heavy workloads — the\n\
  \                 65536/1M-leaf Merkle trees and the store/audit(100k)\n\
  \                 wall-clock run — are skipped by default and run only\n\
  \                 when a --filter explicitly matches them\n\
  \  --smoke        run every selected micro workload on a tiny quota, so a\n\
  \                 workload that raises fails fast\n\
  \  --help, -h     print this help\n"

type config = { smoke : bool; json : string option; filter : string option }

(* Workload selection: shell-style glob with [*] (any run) and [?] (any one
   character); everything else matches literally. *)
let glob_match pat name =
  let np = String.length pat and nn = String.length name in
  let rec go i j =
    if i = np then j = nn
    else
      match pat.[i] with
      | '*' -> go (i + 1) j || (j < nn && go i (j + 1))
      | '?' -> j < nn && go (i + 1) (j + 1)
      | c -> j < nn && name.[j] = c && go (i + 1) (j + 1)
  in
  go 0 0

let die msg =
  Printf.eprintf "main.exe: %s\n\n%s" msg usage;
  exit 2

let parse_args () =
  let rec go cfg = function
    | [] -> cfg
    | ("--help" | "-h") :: _ ->
        print_string usage;
        exit 0
    | "--json" :: v :: rest -> go { cfg with json = Some v } rest
    | "--filter" :: v :: rest -> go { cfg with filter = Some v } rest
    | "--smoke" :: rest -> go { cfg with smoke = true } rest
    | [ ("--json" | "--filter") as flag ] -> die (flag ^ " expects a value")
    | arg :: _ -> die ("unknown argument " ^ arg)
  in
  go { smoke = false; json = None; filter = None }
    (List.tl (Array.to_list Sys.argv))

(* --- micro-benchmarks --- *)

(* Workloads are (name, thunk) pairs so the harness can warm each one up
   directly before handing it to Bechamel. *)
let micro_workloads () =
  let fx_order = Capability.fixture Capability.Order_reorganization in
  let fx_aia = Capability.fixture Capability.Aia_completion in
  let module Certmsg = Chaoschain_tlssim.Certmsg in
  let certmsg_of fmt = Certmsg.of_certs fmt fx_order.Capability.served in
  let msg12 = certmsg_of Certmsg.Tls12 and msg13 = certmsg_of Certmsg.Tls13 in
  let wire12 = Certmsg.encode msg12 and wire13 = Certmsg.encode msg13 in
  let sample_der = Chaoschain_x509.Cert.to_der (List.hd fx_order.Capability.served) in
  let derfuzz_corpus =
    Array.of_list
      (List.map Chaoschain_x509.Cert.to_der fx_order.Capability.served)
  in
  let pem_text = Chaoschain_deployment.Pem.encode_certs fx_order.Capability.served in
  let topo_chain = fx_order.Capability.served in
  let mini_pop = Population.generate ~scale:0.001 () in
  let env = Population.env mini_pop in
  let moex =
    Array.to_list mini_pop.Population.domains
    |> List.find (fun r -> r.Population.scenario = Calibration.Fig_moex)
  in
  let client_bench (client : Clients.t) fx =
    ( Printf.sprintf "build+validate/%s" client.Clients.name,
      fun () -> ignore (Capability.run_client client fx) )
  in
  let one_client id =
    Difftest.run_case_clients env [ Clients.by_id id ] ~domain:moex.Population.domain
      moex.Population.chain
  in
  let sha_buf = String.make 1024 'x' in
  let compliance_rec = mini_pop.Population.domains.(0) in
  (* chainstore codec: one ~200 B observation-sized payload per run. The
     append side frames + CRCs into a reused buffer; the replay side decodes
     (and CRC-checks) frames off a prebuilt segment, cycling through it. *)
  let module Frame = Chaoschain_store.Frame in
  let module Merkle = Chaoschain_store.Merkle in
  let store_payload = String.init 200 (fun i -> Char.chr (i * 7 land 0xff)) in
  let append_buf = Buffer.create (1 lsl 16) in
  let replay_seg =
    let b = Buffer.create (256 * (200 + Frame.header_size)) in
    for _ = 1 to 256 do
      Frame.add b ~kind:2 store_payload
    done;
    Buffer.contents b
  in
  let replay_cursor = Frame.Cursor.create replay_seg in
  let merkle_leaves =
    Array.init 1024 (fun i -> Merkle.leaf_hash (Printf.sprintf "leaf %d" i))
  in
  let merkle_tree = Merkle.Tree.of_leaf_hashes merkle_leaves in
  let merkle_root = Merkle.Tree.root merkle_tree in
  let merkle_idx = ref 0 in
  (* netd poller: one zero-timeout wait over 64 registered descriptors with
     exactly one ready — the steady-state readiness probe the event loop
     issues every iteration, on each backend the platform offers. *)
  let module Poller = Chaoschain_net.Poller in
  let poll_wait backend =
    let p = Poller.create backend in
    let pairs =
      Array.init 64 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
    in
    Array.iter (fun (r, _) -> Poller.set p r ~read:true ~write:false) pairs;
    let _, w0 = pairs.(0) in
    ignore (Unix.write_substring w0 "x" 0 1 : int);
    ( Printf.sprintf "net/poll-wait(%s,64fd)" (Poller.backend_name backend),
      fun () ->
        match Poller.wait p ~timeout:0. with
        | [ _ ] -> ()
        | _ -> failwith "poll-wait bench: expected exactly one ready fd" )
  in
  let poll_workloads =
    List.filter_map
      (fun b -> if Poller.available b then Some (poll_wait b) else None)
      [ Poller.Select; Poller.Epoll ]
  in
  [ ("sha256/1KiB", fun () -> ignore (Chaoschain_crypto.Sha256.digest sha_buf));
    ( "der/decode-certificate",
      fun () -> ignore (Chaoschain_x509.Cert.of_der sample_der) );
    ( "der2/decode-certificate",
      (* The independent table-driven decoder over the same bytes; the gap
         to plain TLV decoding through lib/der is the X.509 typing cost. *)
      fun () -> ignore (Chaoschain_der2.Der2.decode sample_der) );
    ( "derfuzz/campaign(32)",
      (* One bounded differential campaign: mutate, decode through both
         readers, classify — the per-mutant cost of `chaoscheck derfuzz`. *)
      fun () ->
        let r =
          Chaoschain_fuzz.Derfuzz.run ~seed:4242 ~iters:32 derfuzz_corpus
        in
        if Chaoschain_fuzz.Derfuzz.divergence_count r <> 0 then
          failwith "derfuzz bench found a divergence" );
    ( "pem/decode-chain",
      fun () -> ignore (Chaoschain_deployment.Pem.decode_certs pem_text) );
    ( "certmsg/encode-1.2",
      fun () -> ignore (Chaoschain_tlssim.Certmsg.encode msg12) );
    ( "certmsg/encode-1.3",
      fun () -> ignore (Chaoschain_tlssim.Certmsg.encode msg13) );
    ( "certmsg/decode-1.2",
      fun () ->
        ignore (Chaoschain_tlssim.Certmsg.decode Chaoschain_tlssim.Certmsg.Tls12 wire12) );
    ( "certmsg/decode-1.3",
      fun () ->
        ignore (Chaoschain_tlssim.Certmsg.decode Chaoschain_tlssim.Certmsg.Tls13 wire13) );
    ( "topology/build+paths",
      fun () ->
        let t = Topology.build topo_chain in
        ignore (Topology.paths t) );
    client_bench (Clients.by_id Clients.Openssl) fx_order;
    client_bench (Clients.by_id Clients.Mbedtls) fx_order;
    client_bench (Clients.by_id Clients.Cryptoapi) fx_aia;
    client_bench (Clients.by_id Clients.Chrome) fx_order;
    client_bench Clients.reference fx_order;
    ( "compliance/full-report",
      fun () -> ignore (Population.compliance_report mini_pop compliance_rec) );
    ( "ablation/moex-no-backtracking(OpenSSL)",
      fun () -> ignore (one_client Clients.Openssl) );
    ( "ablation/moex-backtracking(CryptoAPI)",
      fun () -> ignore (one_client Clients.Cryptoapi) );
    ( "store/append-record",
      fun () ->
        if Buffer.length append_buf > 1 lsl 20 then Buffer.clear append_buf;
        Frame.add append_buf ~kind:2 store_payload );
    ( "store/replay-record",
      (* The strict-reader hot path: header decode + CRC verify of one
         frame through the reusable cursor — no payload copy, no result
         record, zero allocation per record. *)
      fun () ->
        match Frame.Cursor.next replay_cursor with
        | Frame.Cursor.Item -> ()
        | Frame.Cursor.Done -> Frame.Cursor.reset replay_cursor replay_seg
        | _ -> failwith "replay bench segment damaged" );
    ( "store/merkle-proof(1024)",
      (* O(log n) reads off the prebuilt layers — what `chaoscheck proof`
         does against the persisted tree.mrk. *)
      fun () ->
        let i = !merkle_idx in
        merkle_idx := (i + 41) land 1023;
        let path = Merkle.Tree.proof merkle_tree i in
        if
          not
            (Merkle.verify ~root:merkle_root ~index:i ~count:1024
               merkle_leaves.(i) path)
        then failwith "merkle bench proof rejected" ) ]
  @ poll_workloads

(* Heavy micro-workloads: skipped unless --filter explicitly matches them
   (the setup builds 65k/1M-leaf trees — O(n) hashing). The proof cost
   across 1024/65536/1M is the O(log n) scaling probe. *)
let heavy_workloads =
  let module Merkle = Chaoschain_store.Merkle in
  List.map
    (fun (name, n) ->
      ( name,
        fun () ->
          let leaves =
            Array.init n (fun i -> Merkle.leaf_hash (Printf.sprintf "leaf %d" i))
          in
          let tree = Merkle.Tree.of_leaf_hashes leaves in
          let root = Merkle.Tree.root tree in
          let idx = ref 0 in
          fun () ->
            let i = !idx in
            idx := (i + 40961) mod n;
            let path = Merkle.Tree.proof tree i in
            if
              not
                (Merkle.verify ~root ~index:i ~count:n (Merkle.Tree.leaf tree i)
                   path)
            then failwith "merkle bench proof rejected" ))
    [ ("store/merkle-proof(65536)", 65536);
      ("store/merkle-proof(1048576)", 1 lsl 20) ]

(* Wall-clock workloads: one timed end-to-end run each, reported in
   seconds rather than Bechamel ns/run. Skipped unless --filter matches. *)
type wall_result = { w_name : string; w_seconds : float; w_note : string }

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let wall_workloads =
  let module Store = Chaoschain_store.Store in
  [ ( "store/audit(100k)",
      fun () ->
        let n = 100_000 in
        let dir = Filename.temp_dir "chaosbench-store" "" in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let rng = Chaoschain_crypto.Prng.create 4242L in
            let blob len =
              String.init len (fun _ ->
                  Char.chr (Chaoschain_crypto.Prng.int rng 256))
            in
            let w = Store.create dir in
            for _ = 1 to 64 do
              ignore (Store.add_cert w (blob 600) : string)
            done;
            for _ = 1 to n do
              Store.add_obs w (blob 32)
            done;
            Store.add_env w (blob 128);
            ignore (Store.close w ~scale:1.0 : string);
            let t0 = wall_s () in
            let r = Store.audit dir in
            let dt = wall_s () -. t0 in
            if not r.Store.a_ok then failwith "audit bench: store not clean";
            if r.Store.a_repaired then failwith "audit bench: unexpected repair";
            {
              w_name = "store/audit(100k)";
              w_seconds = dt;
              w_note = Printf.sprintf "%d records, repair-free" n;
            }) ) ]

let run_wall ~filter =
  let selected =
    match filter with
    | None -> []
    | Some g -> List.filter (fun (name, _) -> glob_match g name) wall_workloads
  in
  if selected = [] then []
  else begin
    Printf.printf "== wall-clock workloads ==\n%!";
    List.map
      (fun (name, run) ->
        Printf.printf "%-45s ...\r%!" name;
        let r = run () in
        Printf.printf "%-45s %12.3f s   (%s)\n%!" name r.w_seconds r.w_note;
        r)
      selected
  end

type micro_result = {
  bench : string;
  ns_per_run : float option;
  r2 : float option;
  minor_words : float option;  (* minor-heap words allocated per run *)
}

(* Warmup + a min-runs floor: each workload runs for [warmup_s] before
   measurement (fills caches, triggers any lazy initialisation, lets the
   allocator reach steady state), and the sampling quota is high enough that
   fast workloads get thousands of measured runs; r^2 of the OLS fit is
   reported so a noisy estimate is visible in the output. *)
let run_micro ?(quota_s = 1.0) ?(warmup_s = 0.05) ?filter () =
  let matches name =
    match filter with None -> true | Some g -> glob_match g name
  in
  let workloads =
    List.filter (fun (name, _) -> matches name) (micro_workloads ())
    @ (match filter with
      | None -> []  (* heavy trees are built only on explicit request *)
      | Some _ ->
          List.filter_map
            (fun (name, setup) ->
              if matches name then Some (name, setup ()) else None)
            heavy_workloads)
  in
  if workloads = [] then begin
    Printf.printf "== Bechamel micro-benchmarks ==\n(no workload matches the filter)\n%!";
    []
  end
  else begin
  Printf.printf "== Bechamel micro-benchmarks ==\n%!";
  Printf.printf "%-45s %15s %10s %12s\n" "benchmark" "ns/run" "r^2" "mnr-w/run";
  let cfg =
    Benchmark.cfg ~limit:5000 ~quota:(Time.second quota_s) ~stabilize:true ()
  in
  (* Bechamel's minor-allocated instance reads [Gc.quick_stat], which OCaml 5
     only refreshes at collection boundaries — it reports 0 for workloads that
     fit in the minor heap.  Allocation is measured directly instead:
     [Gc.minor_words] around a counted loop. *)
  let instances = [ Instance.monotonic_clock ] in
  let estimate_of instance raw =
    let results =
      Analyze.all
        (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
        instance raw
    in
    let found = ref None in
    Hashtbl.iter (fun _ ols -> found := Some ols) results;
    match !found with
    | None -> (None, None)
    | Some ols ->
        ( (match Analyze.OLS.estimates ols with Some (e :: _) -> Some e | _ -> None),
          Analyze.OLS.r_square ols )
  in
  let collected = ref [] in
  List.iter
    (fun (name, fn) ->
      let t0 = wall_s () in
      while wall_s () -. t0 < warmup_s do
        fn ()
      done;
      let mw =
        let runs = 64 in
        let m0 = Gc.minor_words () in
        for _ = 1 to runs do fn () done;
        let m1 = Gc.minor_words () in
        Some ((m1 -. m0) /. float_of_int runs)
      in
      let test = Test.make ~name (Staged.stage fn) in
      let raw = Benchmark.all cfg instances test in
      let ns, r2 = estimate_of Instance.monotonic_clock raw in
      Printf.printf "%-45s %15s %10s %12s\n%!" name
        (match ns with Some e -> Printf.sprintf "%.1f" e | None -> "n/a")
        (match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-")
        (match mw with Some w -> Printf.sprintf "%.1f" w | None -> "n/a");
      collected :=
        { bench = name; ns_per_run = ns; r2; minor_words = mw } :: !collected)
    workloads;
  List.rev !collected
  end

(* --- machine-readable timing dump (--json) --- *)

let json_of_run ~(micro : micro_result list) ~(wall : wall_result list) =
  let opt_float = function Some f -> Json.Float f | None -> Json.Null in
  let micro_json =
    match micro with
    | [] -> []
    | l ->
        [ ( "micro",
            Json.List
              (List.map
                 (fun m ->
                   Json.Obj
                     [ ("name", Json.String m.bench);
                       ("ns_per_run", opt_float m.ns_per_run);
                       ("r_square", opt_float m.r2);
                       ("minor_words_per_run", opt_float m.minor_words) ])
                 l) ) ]
  in
  let wall_json =
    match wall with
    | [] -> []
    | l ->
        [ ( "wall",
            Json.List
              (List.map
                 (fun w ->
                   Json.Obj
                     [ ("name", Json.String w.w_name);
                       ("seconds", Json.Float w.w_seconds);
                       ("note", Json.String w.w_note) ])
                 l) ) ]
  in
  Json.Obj (micro_json @ wall_json)

let () =
  let cfg = parse_args () in
  let micro =
    if cfg.smoke then run_micro ~quota_s:0.02 ~warmup_s:0.005 ?filter:cfg.filter ()
    else run_micro ?filter:cfg.filter ()
  in
  let wall = run_wall ~filter:cfg.filter in
  match cfg.json with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Json.to_string (json_of_run ~micro ~wall));
          Out_channel.output_char oc '\n');
      Printf.printf "timings written to %s\n%!" path
