(* chaoscheck — command-line front end of the reproduction.

   Subcommands:
     scenario  — write the served PEM chain of a named deployment scenario
     analyze   — server-side structural compliance report over a PEM chain
     difftest  — validate a PEM chain in all eight client models
     matrix    — the Table 9 capability matrix
     scan      — run the measurement scan, optionally persisting a corpus
     replay    — re-run the compliance tables from a persisted corpus
     classify  — parsifal-style chain classification over a persisted corpus
     diff      — per-cell comparison of two persisted corpora
     audit     — verify (and repair) a corpus store's integrity
     get       — random-access one record payload via the offset index
     proof     — O(log n) Merkle inclusion proof from the persisted layers
     mkstore   — synthetic N-record store (the scale harness for CI/bench)
     compact   — drop unreferenced certificates from the dedup segment
     certmsg   — encode a PEM chain as a raw TLS Certificate message
     derfuzz   — differential byte-level DER fuzzing (lib/der vs lib/der2)
     serve     — chaind: the online chain-compliance query service
                 (stdio, or many connections via --listen / netd)
     loadgen   — open-loop load generator + latency report for chaind
     reproduce — regenerate paper tables/figures *)

open Cmdliner
open Chaoschain_core
open Chaoschain_measurement
module Pem = Chaoschain_deployment.Pem
module Base64 = Chaoschain_deployment.Base64
module Certmsg = Chaoschain_tlssim.Certmsg
module Service = Chaoschain_service
module Report = Chaoschain_report.Report
module Json = Chaoschain_report.Json
module Framing = Chaoschain_net.Framing
module Netloop = Chaoschain_net.Netloop
module Loadgen = Chaoschain_net.Loadgen
module Poller = Chaoschain_net.Poller

(* The lab population: scenario/analyze/difftest/serve operate inside the
   same simulated universe so certificates parse and verify consistently.
   [--scale] selects its size (default 0.002 keeps the CLI snappy). *)
let default_lab_scale = 0.002

let scale_arg =
  let doc =
    "Lab population scale in (0, 1] (1.0 = the paper's full Tranco Top-1M \
     universe). All chain-consuming commands run inside this shared \
     simulated universe."
  in
  Arg.(value & opt float default_lab_scale & info [ "scale" ] ~doc)

(* Every command validates the scale before generating: [check_scale]
   holds the one validation message, and [with_lab] validates, then
   generates the population. *)
let check_scale scale f =
  if not (scale > 0.0 && scale <= 1.0) then
    `Error (true, Printf.sprintf "--scale must be in (0, 1] (got %g)" scale)
  else f ()

let with_lab scale f =
  check_scale scale (fun () -> f (Population.generate ~scale ()))

(* --- scenario --- *)

let scenario_cmd =
  let name_arg =
    let doc = "Scenario name (substring match); try 'reversed', 'duplicate', \
               'incomplete', 'cross'. Use --list for all names." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List all scenario names.")
  in
  let run list_them name scale =
    if list_them then begin
      List.iter (fun (n, _) -> print_endline n) Scenario_index.names;
      `Ok ()
    end
    else
      match name with
      | None -> `Error (true, "scenario name required (or --list)")
      | Some needle -> (
          match Scenario_index.match_name needle with
          | None -> `Error (false, "no scenario matches " ^ needle)
          | Some (label, _) ->
              with_lab scale (fun pop ->
                  match Scenario_index.find (Scenario_index.create pop) needle with
                  | None ->
                      `Error (false, "scenario not present in lab population")
                  | Some (domain, chain) ->
                      Printf.eprintf "# %s — domain %s\n" label domain;
                      print_string (Pem.encode_certs chain);
                      `Ok ()))
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Emit the PEM chain a scenario's server serves")
    Term.(ret (const run $ list_arg $ name_arg $ scale_arg))

(* --- shared PEM input --- *)

let chain_arg =
  let doc = "PEM file holding the served certificate list ('-' for stdin)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CHAIN.pem" ~doc)

let domain_arg =
  let doc = "Domain name the chain was served for." in
  Arg.(value & opt string "example.com" & info [ "domain"; "d" ] ~doc)

let read_chain path =
  let text =
    if path = "-" then In_channel.input_all stdin
    else In_channel.with_open_text path In_channel.input_all
  in
  Pem.decode_certs text

(* --- shared TLS wire-format choice --- *)

let tls_format_conv =
  let parse s =
    match Certmsg.format_of_string s with
    | Some f -> Ok f
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown TLS format %S (want 1.2 or 1.3)" s))
  in
  let print ppf f = Format.pp_print_string ppf (Certmsg.format_to_string f) in
  Arg.conv (parse, print)

let tls_format_arg =
  Arg.(value & opt tls_format_conv Certmsg.Tls12
       & info [ "tls-format" ] ~docv:"VERSION"
           ~doc:"Certificate-message wire framing: $(b,1.2) (RFC 5246 bare \
                 certificate_list) or $(b,1.3) (RFC 8446 per-entry framing \
                 with extension blocks).")

(* --- analyze --- *)

let analyze_format_arg =
  let fmt = Arg.enum [ ("text", `Text); ("json", `Json); ("md", `Md) ] in
  Arg.(value & opt fmt `Text
       & info [ "format" ] ~docv:"FORMAT"
           ~doc:"Output renderer: $(b,text), $(b,json) or $(b,md).")

let analyze_cmd =
  let run path domain scale fmt =
    match read_chain path with
    | Error e -> `Error (false, e)
    | Ok [] -> `Error (false, "no certificates in input")
    | Ok certs ->
        with_lab scale (fun pop ->
            let u = pop.Population.universe in
            let report =
              Compliance.analyze
                ~store:(Chaoschain_pki.Universe.union_store u)
                ~aia:(Chaoschain_pki.Universe.aia u) ~domain certs
            in
            (match fmt with
            | `Text -> Format.printf "%a@." Compliance.pp_report report
            | `Json ->
                print_endline
                  (Json.pretty
                     (Report.to_json (Compliance.report_ir report)))
            | `Md ->
                print_string
                  (Report.to_markdown (Compliance.report_ir report)));
            `Ok ())
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Server-side structural compliance report")
    Term.(ret (const run $ chain_arg $ domain_arg $ scale_arg
               $ analyze_format_arg))

(* --- difftest --- *)

let difftest_cmd =
  let run path domain scale =
    match read_chain path with
    | Error e -> `Error (false, e)
    | Ok certs ->
        with_lab scale (fun pop ->
        let env = Population.env pop in
        let case = Difftest.run_case env ~domain certs in
        List.iter
          (fun r ->
            Printf.printf "%-14s %s\n" r.Difftest.client.Clients.name
              r.Difftest.message)
          case.Difftest.results;
        (match Difftest.classify case with
        | [] -> print_endline "all clients agree"
        | causes ->
            List.iter
              (fun c -> print_endline ("cause: " ^ Difftest.cause_to_string c))
              causes);
        `Ok ())
  in
  Cmd.v
    (Cmd.info "difftest" ~doc:"Validate a chain in all eight client models")
    Term.(ret (const run $ chain_arg $ domain_arg $ scale_arg))

(* --- matrix --- *)

let matrix_cmd =
  let run () =
    print_endline (Report.to_text (Experiments.table9 ()));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Client capability matrix (Table 9)")
    Term.(ret (const run $ const ()))

(* --- recommend --- *)

let recommend_cmd =
  let run path domain scale =
    match read_chain path with
    | Error e -> `Error (false, e)
    | Ok certs ->
        with_lab scale (fun pop ->
        let u = pop.Population.universe in
        let report =
          Compliance.analyze
            ~store:(Chaoschain_pki.Universe.union_store u)
            ~aia:(Chaoschain_pki.Universe.aia u) ~domain certs
        in
        (match Recommend.server_advice report with
        | [] -> print_endline "deployment is compliant; nothing to recommend"
        | advice ->
            List.iter
              (fun a ->
                Printf.printf "[%s] (%s) %s\n"
                  (match a.Recommend.severity with `Must -> "MUST" | `Should -> "SHOULD")
                  (Recommend.audience_to_string a.Recommend.audience)
                  a.Recommend.text)
              advice;
            (match Recommend.corrected_chain report with
            | Some fixed ->
                Printf.eprintf "# corrected chain follows\n";
                print_string (Pem.encode_certs fixed)
            | None -> print_endline "(no self-contained correction possible)"));
        `Ok ())
  in
  Cmd.v
    (Cmd.info "recommend"
       ~doc:"Section 6 remediation advice (and a corrected chain if derivable)")
    Term.(ret (const run $ chain_arg $ domain_arg $ scale_arg))

(* --- fuzz --- *)

let fuzz_cmd =
  let iterations_arg =
    Arg.(value & opt int 500 & info [ "iterations"; "n" ] ~doc:"Fuzzing iterations.")
  in
  let seed_arg =
    Arg.(value & opt int 4242 & info [ "seed" ] ~doc:"PRNG seed.")
  in
  let run iterations seed scale =
    with_lab scale (fun pop ->
    let env = Population.env pop in
    let seeds =
      Array.to_list pop.Population.domains
      |> List.filteri (fun i _ -> i mod 17 = 0)
      |> List.map (fun r -> (r.Population.domain, r.Population.chain))
    in
    let rng = Chaoschain_crypto.Prng.create (Int64.of_int seed) in
    let report = Fuzzer.run ~env ~rng ~iterations seeds in
    Printf.printf "%d iterations, %d divergences, %d crashes\n" report.Fuzzer.iterations
      (List.length report.Fuzzer.divergences)
      (List.length report.Fuzzer.crashes);
    List.iteri
      (fun i d ->
        if i < 10 then Format.printf "%a@." Fuzzer.pp_divergence d)
      report.Fuzzer.divergences;
    if report.Fuzzer.crashes <> [] then begin
      List.iter
        (fun (ms, e) ->
          Printf.printf "CRASH [%s]: %s\n"
            (String.concat "; " (List.map Fuzzer.mutation_to_string ms))
            e)
        report.Fuzzer.crashes;
      `Error (false, "fuzzer found crashes")
    end
    else `Ok ())
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Frankencert-style structural fuzzing of the eight client models \
             (chain-level mutations over parsed certificates; for byte-level \
             DER mutations through the two decoders, see $(b,derfuzz))")
    Term.(ret (const run $ iterations_arg $ seed_arg $ scale_arg))

(* --- scan / replay / audit (chainstore) --- *)

let jobs_pipeline_arg =
  Arg.(value & opt int (Pipeline.default_jobs ())
       & info [ "jobs"; "j" ]
           ~doc:"Domain-pool size for the measurement pipeline (1 = purely \
                 sequential; default: all cores). Output is identical for \
                 every value.")

(* Store-level operations (audit, compact) inject the Domain pool as a
   [Par.t] runner; jobs <= 1 short-circuits to the sequential runner
   without spawning a pool. Results are identical for every value. *)
let with_store_par jobs f =
  if jobs <= 1 then f Chaoschain_store.Par.seq
  else begin
    let pool = Pipeline.Pool.create ~jobs in
    Fun.protect
      ~finally:(fun () -> Pipeline.Pool.shutdown pool)
      (fun () -> f (Pipeline.Pool.run pool))
  end

let no_index_arg =
  Arg.(value & flag
       & info [ "no-index" ]
           ~doc:"Ignore the per-segment offset indexes and decode every \
                 segment sequentially (the reference path the indexed path \
                 is byte-identical to).")

(* Experiment results are the typed report IR; --format selects the
   renderer. Text keeps the historical byte-exact framing (body, blank
   line). JSON prints one deterministic document — stable key order, fixed
   float formatting — so scan and replay agree byte-for-byte at any
   --jobs. *)
let format_arg =
  let fmt = Arg.enum [ ("text", `Text); ("json", `Json); ("md", `Md) ] in
  Arg.(value & opt fmt `Text
       & info [ "format" ] ~docv:"FORMAT"
           ~doc:"Output renderer: $(b,text) (the classic ASCII tables), \
                 $(b,json) (deterministic machine-readable cells) or $(b,md) \
                 (Markdown, what EXPERIMENTS.md embeds).")

let print_results fmt results =
  match fmt with
  | `Text ->
      List.iter
        (fun r ->
          print_endline (Report.to_text r);
          print_newline ())
        results
  | `Md -> List.iter (fun r -> print_string (Report.to_markdown r)) results
  | `Json ->
      print_endline
        (Json.pretty
           (Json.List (List.map Report.to_json results)))

let check_paper_arg =
  Arg.(value & flag
       & info [ "check-paper" ]
           ~doc:"After printing, compare every tolerance-carrying cell \
                 against the paper's reported value and exit non-zero if any \
                 falls outside its tolerance.")

let inject_deviation_arg =
  Arg.(value & flag
       & info [ "inject-deviation" ]
           ~doc:"Perturb one checked cell far outside its tolerance before \
                 rendering (CI hook: proves --check-paper really fails on a \
                 deviation).")

let run_paper_check results =
  match Report.check_paper results with
  | [] ->
      Printf.eprintf "check-paper: %d checked cell(s) within tolerance\n"
        (Report.checked_cell_count results);
      `Ok ()
  | devs ->
      List.iter
        (fun d ->
          Printf.eprintf "check-paper: %s: expected %s, measured %s\n"
            d.Report.dev_path d.Report.dev_expected d.Report.dev_actual)
        devs;
      `Error
        ( false,
          Printf.sprintf "%d cell(s) outside paper tolerance"
            (List.length devs) )

(* --- derfuzz --- *)

(* Byte-level differential DER fuzzing: mutate corpus certificates and
   decode each mutant through both lib/der and lib/der2 (see lib/fuzz).
   Distinct from [fuzz], which mutates parsed chain structure and compares
   the eight client verdict models. *)
let derfuzz_cmd =
  let module Derfuzz = Chaoschain_fuzz.Derfuzz in
  let module Cert = Chaoschain_x509.Cert in
  let iters_arg =
    Arg.(value & opt int 2000
         & info [ "iters"; "n" ] ~doc:"Number of mutants to classify.")
  in
  let seed_arg =
    Arg.(value & opt int 4242
         & info [ "seed" ]
             ~doc:"Campaign PRNG seed. The same seed over the same corpus \
                   yields a byte-identical report at any --jobs.")
  in
  let max_mutations_arg =
    Arg.(value & opt int 3
         & info [ "max-mutations" ]
             ~doc:"Upper bound on stacked mutations per mutant (each mutant \
                   applies 1..N).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Also write the report as report-IR JSON to $(docv).")
  in
  let seeds_out_arg =
    Arg.(value & opt (some string) None
         & info [ "seeds-out" ] ~docv:"FILE"
             ~doc:"Write exemplar mutants as '<outcome> <hex>' lines to \
                   $(docv) (the test/golden/der_fuzz.seeds format).")
  in
  let run iters seed max_mutations scale jobs fmt out seeds_out =
    if jobs < 1 then `Error (true, "--jobs must be >= 1")
    else if iters < 0 then `Error (true, "--iters must be >= 0")
    else if max_mutations < 1 then `Error (true, "--max-mutations must be >= 1")
    else
      with_lab scale (fun pop ->
          (* The corpus: every distinct certificate the lab universe serves,
             deduplicated by fingerprint, in first-appearance order. *)
          let seen = Hashtbl.create 1024 in
          let rev_corpus = ref [] in
          Array.iter
            (fun r ->
              List.iter
                (fun c ->
                  let fp = Cert.fingerprint c in
                  if not (Hashtbl.mem seen fp) then begin
                    Hashtbl.add seen fp ();
                    rev_corpus := Cert.to_der c :: !rev_corpus
                  end)
                r.Population.chain)
            pop.Population.domains;
          let corpus = Array.of_list (List.rev !rev_corpus) in
          with_store_par jobs (fun par ->
              match Derfuzz.check_corpus ~par corpus with
              | (i, d) :: _ as bad ->
                  Printf.eprintf
                    "derfuzz: decoders disagree on unmutated corpus cert %d: \
                     %s\n"
                    i d;
                  `Error
                    ( false,
                      Printf.sprintf
                        "%d corpus certificate(s) fail the two-decoder \
                         agreement precondition"
                        (List.length bad) )
              | [] ->
                  let report =
                    Derfuzz.run ~par ~max_mutations ~seed ~iters corpus
                  in
                  let ir = Derfuzz.report_ir report in
                  print_results fmt [ ir ];
                  Option.iter
                    (fun file ->
                      Out_channel.with_open_text file (fun oc ->
                          Out_channel.output_string oc
                            (Json.pretty (Report.to_json ir));
                          Out_channel.output_char oc '\n'))
                    out;
                  Option.iter
                    (fun file ->
                      Out_channel.with_open_text file (fun oc ->
                          Printf.fprintf oc
                            "# chaoscheck derfuzz --seed %d --iters %d \
                             --max-mutations %d (corpus: %d certs)\n\
                             # <outcome-key> <mutant hex>\n"
                            seed iters max_mutations (Array.length corpus);
                          List.iter
                            (fun l ->
                              Out_channel.output_string oc l;
                              Out_channel.output_char oc '\n')
                            (Derfuzz.seed_lines report)))
                    seeds_out;
                  let divergences = Derfuzz.divergence_count report in
                  if divergences > 0 then
                    `Error
                      ( false,
                        Printf.sprintf "%d divergent mutant(s)" divergences )
                  else `Ok ()))
  in
  Cmd.v
    (Cmd.info "derfuzz"
       ~doc:"Differential byte-level DER fuzzing: corpus-seeded mutants \
             decoded through two independent decoders (lib/der vs lib/der2), \
             every disagreement classified. For structural chain-level \
             fuzzing of the client models, see $(b,fuzz).")
    Term.(ret (const run $ iters_arg $ seed_arg $ max_mutations_arg
               $ scale_arg $ jobs_pipeline_arg $ format_arg $ out_arg
               $ seeds_out_arg))

let scan_cmd =
  let store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Persist the scanned corpus as an append-only, \
                   content-addressed chainstore under $(docv): every \
                   certificate once, one observation record per domain, the \
                   full trust environment, and a Merkle root over the \
                   observation log.")
  in
  let run scale jobs store fmt tls_format check_paper inject =
    if jobs < 1 then `Error (true, "--jobs must be >= 1")
    else
      with_lab scale (fun pop ->
          let analysis = Experiments.analyze ~jobs ~format:tls_format pop in
          let results =
            Experiments.scan_results (Experiments.view analysis)
          in
          let results =
            if inject then Report.inject_deviation results else results
          in
          print_results fmt results;
          (match store with
          | None -> ()
          | Some dir ->
              let s = Corpus.save ~dir analysis in
              Printf.eprintf
                "store: %d observation records, %d certificates, merkle root \
                 %s -> %s\n"
                s.Corpus.s_records s.Corpus.s_certs s.Corpus.s_root_hex dir);
          if check_paper then run_paper_check results else `Ok ())
  in
  Cmd.v
    (Cmd.info "scan"
       ~doc:"Run the two-vantage measurement scan and print the \
             chain-compliance tables (dataset, tables 3/5/7, section 5.2); \
             with --store, also persist the corpus for replay and audit. \
             Every chain is probed under BOTH Certificate-message framings \
             (--tls-format picks which parse feeds the dataset; output is \
             identical for either)")
    Term.(ret (const run $ scale_arg $ jobs_pipeline_arg $ store_arg
               $ format_arg $ tls_format_arg $ check_paper_arg
               $ inject_deviation_arg))

let replay_cmd =
  let store_arg =
    Arg.(required & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Chainstore directory written by 'scan --store'.")
  in
  let run store jobs fmt check_paper no_index =
    if jobs < 1 then `Error (true, "--jobs must be >= 1")
    else
      match Corpus.load ~jobs ~use_index:(not no_index) store with
      | Error e -> `Error (false, e)
      | Ok loaded ->
          let view = Corpus.analyze ~jobs loaded in
          let results = Experiments.scan_results view in
          print_results fmt results;
          Printf.eprintf
            "replayed %d observation records (%d certificates, scale %g, \
             merkle root %s)\n"
            loaded.Corpus.l_records loaded.Corpus.l_certs
            loaded.Corpus.l_scale loaded.Corpus.l_root_hex;
          if check_paper then run_paper_check results else `Ok ()
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run the compliance and differential-testing tables from a \
             persisted corpus, without regenerating the population; stdout \
             is byte-identical to the scan that wrote the store")
    Term.(ret (const run $ store_arg $ jobs_pipeline_arg $ format_arg
               $ check_paper_arg $ no_index_arg))

(* --- classify: parsifal-style corpus query --- *)

let classify_cmd =
  let store_arg =
    Arg.(required & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Chainstore directory written by 'scan --store'.")
  in
  let run store fmt =
    match Corpus.load store with
    | Error e -> `Error (false, e)
    | Ok loaded ->
        let t = Classify.run loaded.Corpus.l_dataset.Scanner.domains in
        print_results fmt [ Classify.report t ];
        `Ok ()
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Classify every chain of a persisted corpus against \
             corpus-wide subject/issuer indexes (ordered, duplicates, \
             self-contained, transvalid, unbuildable, unused certificates) \
             and report TLS 1.2/1.3 Certificate-message decode agreement \
             and framing overhead")
    Term.(ret (const run $ store_arg $ format_arg))

(* --- certmsg: encode a chain as a raw TLS Certificate message --- *)

let certmsg_cmd =
  let context_arg =
    Arg.(value & opt string ""
         & info [ "context" ] ~docv:"BYTES"
             ~doc:"certificate_request_context for the TLS 1.3 framing \
                   (at most 255 bytes; server certificates use the empty \
                   default). Rejected with --tls-format 1.2.")
  in
  let run path tls_format context =
    if context <> "" && tls_format = Certmsg.Tls12 then
      `Error (true, "--context requires --tls-format 1.3")
    else if String.length context > 255 then
      `Error (true, "--context must be at most 255 bytes")
    else
      match read_chain path with
      | Error e -> `Error (false, e)
      | Ok certs ->
          print_endline
            (Base64.encode
               (Certmsg.encode (Certmsg.of_certs ~context tls_format certs)));
          `Ok ()
  in
  Cmd.v
    (Cmd.info "certmsg"
       ~doc:"Encode a PEM chain as a raw TLS Certificate message \
             (base64 on stdout) in either wire framing — the payload format \
             of chaind's \"certmsg\" checks")
    Term.(ret (const run $ chain_arg $ tls_format_arg $ context_arg))

(* --- diff: per-cell comparison of two persisted corpora --- *)

let diff_cmd =
  let store_a_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"STORE-A" ~doc:"First chainstore directory.")
  in
  let store_b_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"STORE-B" ~doc:"Second chainstore directory.")
  in
  let run a b jobs =
    if jobs < 1 then `Error (true, "--jobs must be >= 1")
    else
      match (Corpus.load a, Corpus.load b) with
      | Error e, _ -> `Error (false, a ^ ": " ^ e)
      | _, Error e -> `Error (false, b ^ ": " ^ e)
      | Ok la, Ok lb ->
          let results l =
            Experiments.table_results (Corpus.analyze ~jobs l)
          in
          let ra = results la and rb = results lb in
          (match Report.diff ra rb with
          | [] ->
              let cells = List.concat_map Report.flatten ra in
              Printf.printf "corpora agree (%d cells compared)\n"
                (List.length cells);
              `Ok ()
          | deltas ->
              List.iter
                (fun d ->
                  match (d.Report.d_a, d.Report.d_b) with
                  | Some va, Some vb ->
                      Printf.printf "%s: %s -> %s\n" d.Report.d_path va vb
                  | Some va, None ->
                      Printf.printf "%s: %s -> (absent)\n" d.Report.d_path va
                  | None, Some vb ->
                      Printf.printf "%s: (absent) -> %s\n" d.Report.d_path vb
                  | None, None -> ())
                deltas;
              `Error
                ( false,
                  Printf.sprintf "%d cell(s) differ" (List.length deltas) ))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Replay the compliance tables (dataset overview, tables 3/5/7) \
             from two persisted corpora and report per-cell deltas by stable \
             cell path; identical corpora print nothing but a summary and \
             exit 0, any difference exits non-zero")
    Term.(ret (const run $ store_a_arg $ store_b_arg $ jobs_pipeline_arg))

let audit_cmd =
  let store_arg =
    Arg.(required & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Chainstore directory to audit.")
  in
  let dry_run_arg =
    Arg.(value & flag
         & info [ "dry-run" ]
             ~doc:"Report findings without repairing (no truncation, no \
                   MANIFEST/ROOT rewrite).")
  in
  let samples_arg =
    Arg.(value & opt int 8
         & info [ "samples" ]
             ~doc:"Number of observation records whose Merkle inclusion \
                   proofs are verified (evenly spread).")
  in
  let run store dry_run samples jobs =
    if samples < 1 then `Error (true, "--samples must be >= 1")
    else if jobs < 1 then `Error (true, "--jobs must be >= 1")
    else begin
      let r =
        with_store_par jobs (fun par ->
            Corpus.Store.audit ~par ~repair:(not dry_run) ~samples store)
      in
      List.iter print_endline r.Corpus.Store.a_messages;
      if r.Corpus.Store.a_repaired then print_endline "store repaired";
      if r.Corpus.Store.a_ok then begin
        print_endline "audit ok";
        `Ok ()
      end
      else `Error (false, "audit found unrecoverable damage")
    end
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Verify a corpus store: segment CRCs, record counts, offset \
             indexes, the persisted Merkle layers, the Merkle root and its \
             authentication tag, and sampled inclusion proofs; a truncated \
             segment tail (crash artifact) is repaired by cutting back to \
             the last whole record — and stale sidecars rebuilt — unless \
             --dry-run. Segment scanning and tree building fan out over \
             --jobs Domains.")
    Term.(ret (const run $ store_arg $ dry_run_arg $ samples_arg
               $ jobs_pipeline_arg))

(* --- get / proof / mkstore / compact: direct store operations --- *)

let store_dir_arg =
  Arg.(required & opt (some string) None
       & info [ "store" ] ~docv:"DIR" ~doc:"Chainstore directory.")

let segment_arg =
  let seg =
    Arg.enum
      [ ("obs", Corpus.Store.Obs); ("certs", Corpus.Store.Certs);
        ("env", Corpus.Store.Env) ]
  in
  Arg.(value & opt seg Corpus.Store.Obs
       & info [ "seg" ] ~docv:"SEGMENT"
           ~doc:"Which segment to read: $(b,obs), $(b,certs) or $(b,env).")

let get_cmd =
  let index_arg =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"INDEX" ~doc:"Record index (0-based).")
  in
  let seq_arg =
    Arg.(value & flag
         & info [ "seq" ]
             ~doc:"Fetch by sequentially decoding the segment instead of \
                   through the offset index (the reference path; bytes are \
                   identical).")
  in
  let run store seg i seq =
    let fetch = if seq then Corpus.Store.read_record_seq else Corpus.Store.read_record_at in
    match fetch store seg i with
    | Error e -> `Error (false, e)
    | Ok payload ->
        print_string payload;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "get"
       ~doc:"Dump one record's raw payload bytes to stdout. The default \
             path seeks straight to the record through the per-segment \
             offset index (O(1) I/O, CRC-verified); --seq takes the \
             sequential reference path. A missing or stale index silently \
             falls back to the sequential scan — the segment always wins.")
    Term.(ret (const run $ store_dir_arg $ segment_arg $ index_arg $ seq_arg))

let proof_cmd =
  let index_arg =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"INDEX" ~doc:"Observation record index (0-based).")
  in
  let run store i =
    match Corpus.Store.inclusion_proof store i with
    | Error e -> `Error (false, e)
    | Ok p ->
        Printf.printf "record %d of %d\n" p.Corpus.Store.p_index
          p.Corpus.Store.p_count;
        Printf.printf "root %s\n" p.Corpus.Store.p_root_hex;
        Printf.printf "leaf %s\n"
          (Chaoschain_crypto.Hex.encode p.Corpus.Store.p_leaf);
        List.iteri
          (fun l h ->
            Printf.printf "path[%d] %s\n" l (Chaoschain_crypto.Hex.encode h))
          p.Corpus.Store.p_path;
        print_endline "proof ok";
        `Ok ()
  in
  Cmd.v
    (Cmd.info "proof"
       ~doc:"Emit (and verify) the Merkle inclusion proof connecting one \
             observation record to the store's authenticated ROOT. Served \
             from the persisted tree.mrk layers and the offset index — \
             O(log n) work, no tree rebuild — falling back to a full \
             rebuild from obs.seg if the layer file is missing or stale.")
    Term.(ret (const run $ store_dir_arg $ index_arg))

let mkstore_cmd =
  let records_arg =
    Arg.(value & opt int 100_000
         & info [ "records"; "n" ] ~doc:"Observation records to write.")
  in
  let certs_arg =
    Arg.(value & opt int 64
         & info [ "certs" ] ~doc:"Distinct synthetic certificate blobs.")
  in
  let seed_arg =
    Arg.(value & opt int 4242 & info [ "seed" ] ~doc:"PRNG seed.")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ]
             ~doc:"Domain-pool size for the Merkle build at close.")
  in
  let run store records certs seed jobs =
    if records < 0 then `Error (true, "--records must be >= 0")
    else if certs < 1 then `Error (true, "--certs must be >= 1")
    else if jobs < 1 then `Error (true, "--jobs must be >= 1")
    else begin
      (* Synthetic but deterministic: payloads are PRNG bytes, so the
         store exercises the full frame/index/Merkle machinery at any
         size without generating a population. Not a corpus — replay
         will not decode it, but audit/get/proof treat it exactly like
         the real thing. *)
      let rng = Chaoschain_crypto.Prng.create (Int64.of_int seed) in
      let blob n =
        String.init n (fun _ -> Char.chr (Chaoschain_crypto.Prng.int rng 256))
      in
      let w = Corpus.Store.create store in
      for _ = 1 to certs do
        ignore (Corpus.Store.add_cert w (blob 600) : string)
      done;
      for _ = 1 to records do
        Corpus.Store.add_obs w (blob (24 + Chaoschain_crypto.Prng.int rng 40))
      done;
      Corpus.Store.add_env w (blob 128);
      let root_hex =
        with_store_par jobs (fun par ->
            Corpus.Store.close ~par w ~scale:1.0)
      in
      Printf.printf "mkstore: %d records, %d certs, merkle root %s -> %s\n"
        records certs root_hex store;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "mkstore"
       ~doc:"Write a synthetic chainstore of N deterministic PRNG records — \
             the scale harness for audit/get/proof benchmarks and CI (a \
             100k-record store in about a second, no population generation).")
    Term.(ret (const run $ store_dir_arg $ records_arg $ certs_arg $ seed_arg
               $ jobs_arg))

let compact_cmd =
  let run store jobs =
    if jobs < 1 then `Error (true, "--jobs must be >= 1")
    else
      with_store_par jobs (fun par ->
          match Corpus.Store.open_ ~par store with
          | Error e -> `Error (false, e)
          | Ok st -> (
              match Corpus.referenced_fps st with
              | exception Chaoschain_store.Frame.Wire.Short ->
                  `Error
                    ( false,
                      "store records are not corpus-encoded (synthetic \
                       mkstore output?); nothing to compact against" )
              | live_tbl -> (
              match
                Corpus.Store.compact ~par ~live:(Hashtbl.mem live_tbl) store
              with
              | Error e -> `Error (false, e)
              | Ok r ->
                  Printf.printf
                    "compact: kept %d, dropped %d, certs.seg %d -> %d bytes\n"
                    r.Corpus.Store.c_kept r.Corpus.Store.c_dropped
                    r.Corpus.Store.c_bytes_before r.Corpus.Store.c_bytes_after;
                  `Ok ())))
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Rewrite the content-addressed certificate segment keeping only \
             certificates still referenced by an observation or environment \
             record (orphans appear when audit truncates a damaged tail). \
             Append order is preserved, certs.idx and MANIFEST are \
             rewritten, and ROOT's self-authentication is untouched — the \
             Merkle tree covers the observation log, which compaction never \
             touches.")
    Term.(ret (const run $ store_dir_arg $ jobs_pipeline_arg))

(* --- serve (chaind) --- *)

(* Shared by serve and loadgen: both event loops run on the pluggable
   readiness backend. *)
let poller_arg =
  let backend_conv =
    Arg.enum [ ("auto", `Auto); ("select", `Select); ("epoll", `Epoll) ]
  in
  Arg.(value & opt backend_conv `Auto
       & info [ "poller" ]
           ~doc:"Readiness backend for the event loop: $(b,select) \
                 (portable, FD_SETSIZE-bounded), $(b,epoll) (Linux), or \
                 $(b,auto) = epoll where available, else select.")

let serve_cmd =
  let cache_arg =
    Arg.(value & opt int 1024
         & info [ "cache" ]
             ~doc:"Verdict LRU-cache capacity (entries; 0 disables caching).")
  in
  let max_frame_arg =
    Arg.(value & opt int Framing.default_max_frame
         & info [ "max-frame" ]
             ~doc:"Longest accepted request line in bytes; longer lines are \
                   dropped with a structured 'overlong' error instead of \
                   being buffered.")
  in
  let warm_store_arg =
    Arg.(value & opt (some string) None
         & info [ "warm-store" ] ~docv:"DIR"
             ~doc:"Pre-fill the verdict cache and the certificate intern \
                   table from a chainstore corpus written by 'scan --store' \
                   (must match --scale), and report a 'store' block in \
                   stats replies.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ]
             ~doc:"Admission-queue bound; while it is full, reading pauses \
                   (on stdin and on every connection) until there is room.")
  in
  let batch_arg =
    Arg.(value & opt int 8
         & info [ "batch" ]
             ~doc:"Micro-batch size: queued requests are drained in groups \
                   of up to this many and processed in parallel.")
  in
  let jobs_arg =
    Arg.(value & opt int (Pipeline.default_jobs ())
         & info [ "jobs"; "j" ]
             ~doc:"Worker-Domain pool size for micro-batch processing \
                   (verdicts are identical for every value).")
  in
  let listen_arg =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Serve many concurrent connections on $(docv) — \
                   $(b,unix:PATH), $(b,tcp:HOST:PORT) or $(b,HOST:PORT) — \
                   instead of stdin/stdout. Both run the same netd event \
                   loop, engine, cache and batcher, so verdicts are \
                   byte-identical. SIGTERM/SIGINT drain gracefully.")
  in
  let max_conns_arg =
    Arg.(value & opt int Netloop.default_config.Netloop.max_conns
         & info [ "max-conns" ]
             ~doc:"Stop accepting while this many connections are live, \
                   per shard (netd only). 0 derives the bound from the \
                   active poller: FD_SETSIZE minus headroom under select, \
                   RLIMIT_NOFILE minus headroom under epoll.")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ]
             ~doc:"Event-loop shards (netd only): each runs its own \
                   Domain, poller and engine over a share of the accepted \
                   connections, which shard 0's listener deals out \
                   round-robin. Verdicts are byte-identical at every shard \
                   count.")
  in
  let write_buf_arg =
    Arg.(value & opt int Netloop.default_config.Netloop.write_bound
         & info [ "write-buf" ]
             ~doc:"Per-connection reply-buffer bound in bytes; a \
                   connection buffering more stops being read until it \
                   drains.")
  in
  let inbox_arg =
    Arg.(value & opt int Netloop.default_config.Netloop.inbox_bound
         & info [ "inbox" ]
             ~doc:"Global bound on parsed frames awaiting admission; all \
                   reading pauses past it.")
  in
  let run scale cache queue batch jobs max_frame warm_store listen max_conns
      write_buf inbox poller shards =
    if cache < 0 then `Error (true, "--cache must be >= 0")
    else if queue < 1 then `Error (true, "--queue must be >= 1")
    else if batch < 1 then `Error (true, "--batch must be >= 1")
    else if jobs < 1 then `Error (true, "--jobs must be >= 1")
    else if max_frame < 1 then `Error (true, "--max-frame must be >= 1")
    else if max_conns < 0 then
      `Error (true, "--max-conns must be >= 1 (or 0 = poller-derived)")
    else if write_buf < 1 then `Error (true, "--write-buf must be >= 1")
    else if inbox < 1 then `Error (true, "--inbox must be >= 1")
    else if shards < 1 then `Error (true, "--shards must be >= 1")
    else
      with_lab scale (fun pop ->
          let u = pop.Population.universe in
          let env =
            {
              Service.Engine.diff_env = Population.env pop;
              union_store = Chaoschain_pki.Universe.union_store u;
              program_store = Chaoschain_pki.Universe.store u;
              aia = Chaoschain_pki.Universe.aia u;
              find_scenario = Scenario_index.find (Scenario_index.create pop);
            }
          in
          let warm_corpus =
            match warm_store with
            | None -> Ok None
            | Some dir -> (
                match Corpus.load dir with
                | Error e -> Error e
                | Ok l ->
                    if l.Corpus.l_scale <> scale then
                      Error
                        (Printf.sprintf
                           "--warm-store was written at scale %g, serve is \
                            running at scale %g"
                           l.Corpus.l_scale scale)
                    else Ok (Some l))
          in
          match warm_corpus with
          | Error msg -> `Error (false, msg)
          | Ok warm_corpus ->
          (* One engine per netd shard (the stdio path always runs one).
             Each shard owns its queue, batcher, worker pool and LRU;
             across shards only the Mutex-guarded metrics and the
             process-wide intern table are shared, so verdicts stay
             byte-identical at every shard count. *)
          let n_engines = match listen with None -> 1 | Some _ -> shards in
          let engines =
            List.init n_engines (fun _ ->
                Service.Engine.create ~env ~cache_capacity:cache
                  ~queue_capacity:queue ~batch ~jobs ())
          in
          let engine = List.hd engines in
          (match warm_corpus with
          | None -> ()
          | Some l ->
              let t0 = Unix.gettimeofday () in
              let warmed =
                Service.Engine.warm engine
                  (Array.to_list l.Corpus.l_dataset.Scanner.domains)
              in
              let dt = Unix.gettimeofday () -. t0 in
              let store_fields =
                [ ("records", Json.Int l.Corpus.l_records);
                  ("certs", Json.Int l.Corpus.l_certs);
                  ("root", Json.String l.Corpus.l_root_hex);
                  ("warmed", Json.Int warmed);
                  ("warm_seconds", Json.Float dt) ]
              in
              (* The corpus's compliance tables ride along in stats replies
                 as structured report-IR JSON (cheap: no differential
                 testing). *)
              let experiments =
                Json.List
                  (List.map Report.to_json
                     (Experiments.table_results (Corpus.analyze ~jobs:1 l)))
              in
              List.iter
                (fun e ->
                  (* warm once, replay the filled cache into the sibling
                     shards instead of recomputing per shard *)
                  if e != engine then Service.Engine.copy_cache engine e;
                  Service.Engine.set_store_stats e store_fields;
                  Service.Engine.set_experiments e experiments)
                engines;
              Printf.eprintf
                "warm-store: %d verdicts pre-computed from %d records in \
                 %.2fs\n%!"
                warmed l.Corpus.l_records dt);
          let finish () =
            List.iter Service.Engine.shutdown engines;
            Format.eprintf "%a@." Service.Metrics.pp_summary
              (Service.Engine.aggregate_metrics engines);
            let sum f = List.fold_left (fun acc e -> acc + f e) 0 engines in
            Format.eprintf "cache: %d/%d entries, %d evictions@."
              (sum Service.Engine.cache_size)
              (sum Service.Engine.cache_capacity)
              (sum Service.Engine.cache_evictions);
            let i = Chaoschain_pki.Intern.stats () in
            Format.eprintf "intern: %d certificates, %d/%d lookups reused@."
              i.Chaoschain_pki.Intern.entries i.Chaoschain_pki.Intern.hits
              i.Chaoschain_pki.Intern.lookups
          in
          let config =
            { Netloop.max_frame; max_conns; write_bound = write_buf;
              inbox_bound = inbox }
          in
          match listen with
          | None ->
              ignore (Service.Netd.serve_stdio ~config engine : Netloop.stats);
              finish ();
              `Ok ()
          | Some spec -> (
              match Service.Netd.parse_addr spec with
              | Error msg ->
                  List.iter Service.Engine.shutdown engines;
                  `Error (false, msg)
              | Ok addr -> (
                  match Poller.choose poller with
                  | Error msg ->
                      List.iter Service.Engine.shutdown engines;
                      `Error (false, msg)
                  | Ok backend -> (
                      let resolved_conns =
                        if max_conns = 0 then Poller.default_max_conns backend
                        else max_conns
                      in
                      Printf.eprintf
                        "chaind: listening on %s (%s poller, %d shard%s, up \
                         to %d connections per shard)\n%!"
                        (Service.Netd.addr_to_string addr)
                        (Poller.backend_name backend)
                        shards
                        (if shards = 1 then "" else "s")
                        resolved_conns;
                      match
                        Service.Netd.serve_listen ~config ~backend ~engines
                          addr
                      with
                      | Error msg ->
                          List.iter Service.Engine.shutdown engines;
                          `Error (false, msg)
                      | Ok ns ->
                          Printf.eprintf
                            "netd: %d connections accepted, %d frames, %d \
                             overlong, %d orphaned replies, %d accept \
                             failures\n\
                             %!"
                            ns.Netloop.accepted ns.Netloop.frames
                            ns.Netloop.overlong ns.Netloop.dropped_replies
                            ns.Netloop.accept_failures;
                          finish ();
                          `Ok ()))))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"chaind: answer chain-compliance queries over newline-delimited \
             JSON on stdin/stdout — or over many concurrent connections \
             with --listen — (verdict = analyze + difftest + recommend), \
             with LRU verdict caching, micro-batching and request metrics; \
             \"certmsg\" checks carry a raw TLS Certificate message in \
             either wire framing")
    Term.(ret (const run $ scale_arg $ cache_arg $ queue_arg $ batch_arg
               $ jobs_arg $ max_frame_arg $ warm_store_arg
               $ listen_arg $ max_conns_arg $ write_buf_arg $ inbox_arg
               $ poller_arg $ shards_arg))

(* --- loadgen --- *)

let loadgen_cmd =
  let connect_arg =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"The chaind listener to load — same spellings as serve \
                   --listen ($(b,unix:PATH), $(b,tcp:HOST:PORT), \
                   $(b,HOST:PORT)).")
  in
  let store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Replay request chains from a chainstore corpus written \
                   by 'scan --store': each record becomes a pem+domain \
                   check, cycled when --requests exceeds the record count.")
  in
  let frames_arg =
    Arg.(value & opt (some string) None
         & info [ "frames" ] ~docv:"FILE"
             ~doc:"Replay raw request lines from $(docv) (one JSON frame \
                   per line, cycled). Alternative to --store.")
  in
  let rate_arg =
    Arg.(value & opt float 200.0
         & info [ "rate" ]
             ~doc:"Offered load in requests/second. Open loop: request i \
                   is scheduled at t0 + i/rate no matter how fast the \
                   server answers, so queueing delay lands in the tail \
                   percentiles instead of being silently absorbed.")
  in
  let requests_arg =
    Arg.(value & opt int 1000
         & info [ "requests"; "n" ] ~doc:"Total requests to send.")
  in
  let conns_arg =
    Arg.(value & opt int 8
         & info [ "conns" ]
             ~doc:"Concurrent persistent connections; requests round-robin \
                   across them.")
  in
  let grace_arg =
    Arg.(value & opt float 10.0
         & info [ "grace" ]
             ~doc:"Seconds to wait for outstanding replies after the last \
                   request; stragglers past it count as dropped.")
  in
  let ramp_arg =
    Arg.(value & opt float 0.0
         & info [ "ramp" ]
             ~doc:"Open the --conns connections spread over this many \
                   seconds (connection j dials at t0 + ramp*j/conns) \
                   instead of all upfront; the request schedule is \
                   unaffected. A failed connect is counted and its share \
                   of requests dropped — the run continues.")
  in
  let max_frame_arg =
    Arg.(value & opt int Framing.default_max_frame
         & info [ "max-frame" ] ~doc:"Longest accepted reply line in bytes.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Also write the report as report-IR JSON to $(docv) \
                   (e.g. BENCH_PR7.json).")
  in
  let replies_arg =
    Arg.(value & opt (some string) None
         & info [ "replies" ] ~docv:"FILE"
             ~doc:"Dump every raw reply line to $(docv) in request order \
                   (the CI byte-identity probe).")
  in
  let frame_fun_of_source store frames =
    match (store, frames) with
    | Some _, Some _ | None, None ->
        Error "exactly one of --store or --frames is required"
    | None, Some file -> (
        match In_channel.with_open_text file In_channel.input_lines with
        | lines -> (
            match List.filter (fun l -> String.trim l <> "") lines with
            | [] -> Error (file ^ " holds no request lines")
            | lines ->
                let arr = Array.of_list lines in
                Ok (fun i -> arr.(i mod Array.length arr)))
        | exception Sys_error e -> Error e)
    | Some dir, None -> (
        match Corpus.load dir with
        | Error e -> Error e
        | Ok l ->
            let records = l.Corpus.l_dataset.Scanner.domains in
            if Array.length records = 0 then Error "corpus holds no records"
            else begin
              let arr =
                Array.mapi
                  (fun i (domain, chain) ->
                    Service.Protocol.to_frame
                      {
                        Service.Protocol.id = Some (Printf.sprintf "q%d" i);
                        op =
                          Service.Protocol.Check
                            {
                              Service.Protocol.domain = Some domain;
                              pem = Some (Pem.encode_certs chain);
                              scenario = None;
                              certmsg = None;
                              format = None;
                              aia = true;
                              store = Service.Protocol.Union;
                              clients = None;
                            };
                      })
                  records
              in
              Ok (fun i -> arr.(i mod Array.length arr))
            end)
  in
  let is_error line =
    match Json.of_string line with
    | Error _ -> true
    | Ok j -> (
        match Option.bind (Json.member "ok" j) Json.get_bool with
        | Some ok -> not ok
        | None -> true)
  in
  let report_of ~rate ~conns stats =
    let lat = stats.Loadgen.latencies_ms in
    let q p = Loadgen.quantile lat p in
    let fl v =
      Report.cell (Report.Cell.Float { value = v; digits = 2; suffix = "" })
    in
    let b =
      Report.Table.create ~title:"open-loop load"
        ~header:[ "metric"; "value" ]
    in
    Report.Table.row b [ Report.text "offered rate (req/s)"; fl rate ];
    Report.Table.row b [ Report.text "connections"; Report.int conns ];
    Report.Table.row b [ Report.text "requests sent"; Report.count stats.sent ];
    Report.Table.row b
      [ Report.text "replies received"; Report.count stats.received ];
    Report.Table.row b [ Report.text "ok"; Report.count stats.ok ];
    Report.Table.row b [ Report.text "errors"; Report.count stats.errors ];
    Report.Table.row b [ Report.text "dropped"; Report.count stats.dropped ];
    Report.Table.row b
      [ Report.text "connect errors"; Report.count stats.connect_errors ];
    Report.Table.row b [ Report.text "elapsed (s)"; fl stats.elapsed_s ];
    Report.Table.row b
      [ Report.text "throughput (replies/s)";
        fl
          (if stats.elapsed_s > 0.0 then
             Float.of_int stats.received /. stats.elapsed_s
           else 0.0) ];
    Report.Table.sep b;
    Report.Table.row b
      [ Report.text "latency mean (ms)"; fl (Loadgen.mean lat) ];
    Report.Table.row b [ Report.text "latency p50 (ms)"; fl (q 0.5) ];
    Report.Table.row b [ Report.text "latency p90 (ms)"; fl (q 0.9) ];
    Report.Table.row b [ Report.text "latency p99 (ms)"; fl (q 0.99) ];
    Report.Table.row b [ Report.text "latency p999 (ms)"; fl (q 0.999) ];
    Report.Table.row b
      [ Report.text "latency max (ms)"; fl (Array.fold_left max 0.0 lat) ];
    {
      Report.id = "loadgen";
      title = "loadgen: open-loop latency against chaind";
      blocks = [ Report.Table.block b ];
    }
  in
  let run connect store frames rate requests conns grace ramp max_frame fmt
      out replies poller =
    if rate <= 0.0 then `Error (true, "--rate must be > 0")
    else if requests < 1 then `Error (true, "--requests must be >= 1")
    else if conns < 1 then `Error (true, "--conns must be >= 1")
    else if grace < 0.0 then `Error (true, "--grace must be >= 0")
    else if ramp < 0.0 then `Error (true, "--ramp must be >= 0")
    else if max_frame < 1 then `Error (true, "--max-frame must be >= 1")
    else
      match Service.Netd.parse_addr connect with
      | Error msg -> `Error (false, msg)
      | Ok addr -> (
          match Poller.choose poller with
          | Error msg -> `Error (false, msg)
          | Ok backend -> (
          match frame_fun_of_source store frames with
          | Error msg -> `Error (false, msg)
          | Ok frame ->
              let reply_log =
                Option.map (fun _ -> Array.make requests None) replies
              in
              let capture =
                Option.map
                  (fun log seq line -> log.(seq) <- Some line)
                  reply_log
              in
              let config =
                {
                  Loadgen.dial = (fun () -> Service.Netd.dial addr);
                  conns;
                  rate;
                  requests;
                  max_frame;
                  is_error;
                  now = Unix.gettimeofday;
                  grace;
                  capture;
                  ramp;
                  backend;
                }
              in
              let stats = Loadgen.run config ~frame in
              let report = report_of ~rate ~conns stats in
              print_results fmt [ report ];
              Option.iter
                (fun file ->
                  Out_channel.with_open_text file (fun oc ->
                      Out_channel.output_string oc
                        (Json.pretty (Report.to_json report));
                      Out_channel.output_char oc '\n'))
                out;
              (match (replies, reply_log) with
              | Some file, Some log ->
                  Out_channel.with_open_text file (fun oc ->
                      Array.iter
                        (function
                          | Some line ->
                              Out_channel.output_string oc line;
                              Out_channel.output_char oc '\n'
                          | None -> ())
                        log)
              | _ -> ());
              if stats.Loadgen.connect_errors > 0 then
                Printf.eprintf "loadgen: %d connection(s) failed to open\n%!"
                  stats.Loadgen.connect_errors;
              if stats.Loadgen.dropped > 0 then
                Printf.eprintf "loadgen: %d request(s) dropped\n%!"
                  stats.Loadgen.dropped;
              `Ok ()))
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Open-loop load generator against a chaind --listen endpoint: \
             replay corpus chains (or raw frames) at a target request rate \
             over N concurrent connections and report throughput plus \
             p50/p90/p99/p999 latency through the report IR")
    Term.(ret (const run $ connect_arg $ store_arg $ frames_arg $ rate_arg
               $ requests_arg $ conns_arg $ grace_arg $ ramp_arg
               $ max_frame_arg $ format_arg $ out_arg $ replies_arg
               $ poller_arg))

(* --- pollers --- *)

let pollers_cmd =
  let run () =
    List.iter
      (fun b ->
        if Poller.available b then print_endline (Poller.backend_name b))
      [ Poller.Select; Poller.Epoll ];
    `Ok ()
  in
  Cmd.v
    (Cmd.info "pollers"
       ~doc:"List the readiness backends available on this platform, one \
             per line (select is always present; epoll on Linux). CI gates \
             its epoll smoke runs on this output.")
    Term.(ret (const run $ const ()))

(* --- reproduce --- *)

let reproduce_cmd =
  let scale_arg =
    Arg.(value & opt float 0.05
         & info [ "scale" ]
             ~doc:"Population scale in (0, 1] (1.0 = Tranco Top-1M).")
  in
  let only_arg =
    Arg.(value & opt (some string) None
         & info [ "only" ] ~doc:"Single experiment id (e.g. table5, figure4).")
  in
  let jobs_arg =
    Arg.(value & opt int (Pipeline.default_jobs ())
         & info [ "jobs"; "j" ]
             ~doc:"Domain-pool size for the measurement pipeline (1 = purely \
                   sequential; default: all cores). Output is identical for \
                   every value.")
  in
  let run scale only jobs fmt check_paper inject =
    let emit selected =
      let selected =
        if inject then Report.inject_deviation selected else selected
      in
      print_results fmt selected;
      if check_paper then run_paper_check selected else `Ok ()
    in
    let measured f =
      with_lab scale (fun pop -> emit (f (Experiments.analyze ~jobs pop)))
    in
    if jobs < 1 then `Error (true, "--jobs must be >= 1")
    else
      match only with
      | None -> measured Experiments.run_all
      | Some id -> (
          (* validated before anything is generated; only the named
             experiment runs *)
          match List.assoc_opt id Experiments.experiments with
          | None ->
              `Error
                ( true,
                  Printf.sprintf "--only: unknown experiment id %S (valid: %s)"
                    id (String.concat ", " (List.map fst Experiments.experiments)) )
          | Some (Experiments.Static f) ->
              check_scale scale (fun () -> emit [ f () ])
          | Some (Experiments.Measured f) -> measured (fun a -> [ f a ]))
  in
  Cmd.v
    (Cmd.info "reproduce" ~doc:"Regenerate the paper's tables and figures")
    Term.(ret (const run $ scale_arg $ only_arg $ jobs_arg $ format_arg
               $ check_paper_arg $ inject_deviation_arg))

let () =
  let doc = "Web PKI certificate-chain deployment and construction analysis" in
  let info = Cmd.info "chaoscheck" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ scenario_cmd; analyze_cmd; difftest_cmd; matrix_cmd; recommend_cmd;
            fuzz_cmd; derfuzz_cmd; scan_cmd; replay_cmd; classify_cmd;
            diff_cmd; audit_cmd;
            get_cmd; proof_cmd; mkstore_cmd; compact_cmd; certmsg_cmd;
            serve_cmd; loadgen_cmd; pollers_cmd; reproduce_cmd ]))
