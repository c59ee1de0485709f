open Chaoschain_core
open Chaoschain_measurement
module C = Calibration

(* --- stats --- *)

let commas () =
  Alcotest.(check string) "906336" "906,336" (Stats.with_commas 906_336);
  Alcotest.(check string) "small" "42" (Stats.with_commas 42);
  Alcotest.(check string) "negative" "-1,234" (Stats.with_commas (-1234))

let percents () =
  Alcotest.(check string) "92.5%" "92.5%" (Stats.pct 838_354 906_336);
  Alcotest.(check string) "~0%" "~0%" (Stats.pct 1 906_336);
  Alcotest.(check string) "zero numerator" "0.0%" (Stats.pct 0 906_336);
  Alcotest.(check string) "zero denominator" "n/a" (Stats.pct 5 0)

let apportion_exact () =
  let shares = Stats.apportion ~total:100 ~weights:[ ("a", 1); ("b", 1); ("c", 1) ] in
  Alcotest.(check int) "sums" 100 (List.fold_left (fun acc (_, n) -> acc + n) 0 shares);
  let uneven = Stats.apportion ~total:10 ~weights:[ ("a", 7); ("b", 2); ("c", 1) ] in
  Alcotest.(check (list (pair string int))) "proportional"
    [ ("a", 7); ("b", 2); ("c", 1) ] uneven;
  Alcotest.(check (list (pair string int))) "zero weights get zero"
    [ ("a", 5); ("b", 0) ]
    (Stats.apportion ~total:5 ~weights:[ ("a", 3); ("b", 0) ])

let qcheck_apportion =
  QCheck.Test.make ~name:"apportion always sums to total" ~count:200
    QCheck.(pair (int_range 0 10_000) (list_of_size Gen.(1 -- 8) (int_range 0 50)))
    (fun (total, ws) ->
      let weights = List.mapi (fun i w -> (string_of_int i, w)) ws in
      let shares = Stats.apportion ~total ~weights in
      let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 shares in
      let wsum = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
      List.for_all (fun (_, n) -> n >= 0) shares
      && if wsum = 0 then sum = 0 else sum = total)

let table_render () =
  let module R = Chaoschain_report.Report in
  let t = R.Table.create ~title:"T" ~header:[ "a"; "bb" ] in
  R.Table.row t [ R.text "1"; R.text "2" ];
  R.Table.sep t;
  R.Table.row t [ R.text "333"; R.text "4" ];
  let s = R.render_table (R.Table.table t) in
  Alcotest.(check bool) "contains title" true (String.length s > 0 && s.[0] = 'T')

(* --- calibration ledger invariants: the paper's aggregates --- *)

let sum_if p =
  List.fold_left (fun acc (s, n) -> if p s then acc + n else acc) 0 C.ledger

let ledger_total () =
  Alcotest.(check int) "sums to 906,336" C.full_population (sum_if (fun _ -> true))

let is_dup = function
  | C.Dup_leaf_front | C.Dup_leaf_scattered | C.Dup_intermediate _ | C.Dup_root
  | C.Dup_leaf_and_intermediate | C.Dup_and_irrelevant | C.Fig_ns3 | C.Fig_serpro ->
      true
  | _ -> false

let is_irr = function
  | C.Irr_self_signed_extra | C.Irr_root_attached | C.Irr_stale_leaves _
  | C.Irr_extra_leaf_distinct | C.Irr_foreign_chain | C.Irr_lone_intermediate
  | C.Dup_and_irrelevant -> true
  | _ -> false

let is_multi = function
  | C.Multi_cross_ok | C.Multi_cross_expired | C.Multi_cross_reversed
  | C.Multi_validity_variants | C.Fig_moex -> true
  | _ -> false

let is_rev = function
  | C.Rev_merge_1int | C.Rev_noroot_2int | C.Rev_merge_2int | C.Rev_full_deep
  | C.Rev_and_incomplete | C.Multi_cross_reversed | C.Fig_moex -> true
  | _ -> false

let is_inc = function
  | C.Inc_missing1 | C.Inc_missing2 | C.Inc_no_aia | C.Inc_aia_fail | C.Inc_wrong_aia
  | C.Rev_and_incomplete -> true
  | _ -> false

let ledger_matches_table5 () =
  Alcotest.(check int) "duplicates (Table 5)" 5_974 (sum_if is_dup);
  Alcotest.(check int) "irrelevant (Table 5)" 3_032 (sum_if is_irr);
  Alcotest.(check int) "multiple paths (Table 5)" 246 (sum_if is_multi);
  Alcotest.(check int) "reversed (Table 5)" 8_566 (sum_if is_rev)

let ledger_matches_table7 () =
  Alcotest.(check int) "incomplete (Table 7)" 12_087 (sum_if is_inc)

let ledger_matches_noncompliant_total () =
  let order s = is_dup s || is_irr s || is_multi s || is_rev s in
  let nc s = order s || is_inc s in
  Alcotest.(check int) "26,361 non-compliant domains" 26_361 (sum_if nc)

let ledger_matches_table8 () =
  let sum scenarios = sum_if (fun s -> List.mem s scenarios) in
  Alcotest.(check int) "Mozilla no-AIA additional" 225_608
    (sum
       [ C.Ok_no_akid; C.Ok_restricted C.R_mc_recoverable;
         C.Ok_restricted C.R_mc_dead_end ]);
  Alcotest.(check int) "Microsoft no-AIA additional" 225_538
    (sum
       [ C.Ok_no_akid; C.Ok_restricted C.R_ms_recoverable;
         C.Ok_restricted C.R_ms_dead_end ]);
  Alcotest.(check int) "Apple no-AIA additional" 225_360
    (sum
       [ C.Ok_no_akid; C.Ok_restricted C.R_apple_recoverable;
         C.Ok_restricted C.R_apple_dead_end ])

let scaled_ledger_properties () =
  let scaled = C.scale_ledger 0.01 in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 scaled in
  Alcotest.(check int) "scaled total" 9_063 total;
  (* Singletons survive scaling. *)
  List.iter
    (fun s ->
      let n = List.assoc s scaled in
      Alcotest.(check bool) (C.scenario_to_string s ^ " alive") true (n >= 1))
    [ C.Fig_moex; C.Fig_serpro; C.Inc_wrong_aia; C.Leaf_incorrect_placed ];
  Alcotest.check_raises "scale 0 rejected" (Invalid_argument "Calibration.scale_ledger")
    (fun () -> ignore (C.scale_ledger 0.0));
  Alcotest.(check bool) "scale 1.0 is identity" true (C.scale_ledger 1.0 == C.ledger)

let vendor_weights_shape () =
  List.iter
    (fun (s, n) ->
      if n > 0 then begin
        let ws = C.vendor_weights s in
        Alcotest.(check bool)
          (C.scenario_to_string s ^ " has positive vendor weight")
          true
          (List.exists (fun (_, w) -> w > 0) ws);
        let sws = C.server_weights s in
        Alcotest.(check bool)
          (C.scenario_to_string s ^ " has positive server weight")
          true
          (List.exists (fun (_, w) -> w > 0) sws)
      end)
    C.ledger

(* --- population --- *)

let pop = lazy (Population.generate ~scale:0.005 ())

let population_deterministic () =
  let a = Population.generate ~scale:0.002 ~seed:5L () in
  let b = Population.generate ~scale:0.002 ~seed:5L () in
  Alcotest.(check int) "same size" (Population.size a) (Population.size b);
  Array.iter2
    (fun ra rb ->
      Alcotest.(check string) "same domain" ra.Population.domain rb.Population.domain;
      Alcotest.(check bool) "same chain" true
        (List.equal Chaoschain_x509.Cert.equal ra.Population.chain rb.Population.chain))
    a.Population.domains b.Population.domains

let population_scenarios_classify () =
  (* Spot-check that realised scenarios land in their intended classification
     buckets. *)
  let p = Lazy.force pop in
  let check_one scenario pred name =
    match
      Array.to_list p.Population.domains
      |> List.find_opt (fun r -> r.Population.scenario = scenario)
    with
    | None -> Alcotest.fail (name ^ " absent from population")
    | Some r ->
        let rep = Population.compliance_report p r in
        Alcotest.(check bool) name true (pred rep)
  in
  check_one C.Ok_plain Compliance.compliant "plain chain compliant";
  check_one (C.Dup_intermediate 1)
    (fun rep -> Order_check.has_duplicates rep.Compliance.order)
    "dup intermediate detected";
  check_one C.Rev_merge_1int
    (fun rep -> Order_check.has_reversed rep.Compliance.order)
    "reversed merge detected";
  check_one C.Inc_missing1
    (fun rep ->
      rep.Compliance.completeness.Completeness.verdict = Completeness.Incomplete
      && rep.Compliance.completeness.Completeness.cause
         = Some (Completeness.Recoverable 1))
    "missing one recoverable";
  check_one C.Inc_no_aia
    (fun rep -> rep.Compliance.completeness.Completeness.cause = Some Completeness.Aia_missing)
    "aia missing cause";
  check_one C.Inc_wrong_aia
    (fun rep -> rep.Compliance.completeness.Completeness.cause = Some Completeness.Aia_wrong_cert)
    "wrong aia cause";
  check_one C.Multi_cross_reversed
    (fun rep ->
      rep.Compliance.order.Order_check.multiple_paths
      && Order_check.has_reversed rep.Compliance.order)
    "cross reversed is multipath+reversed";
  check_one C.Ok_no_akid
    (fun rep ->
      Compliance.compliant rep && rep.Compliance.completeness.Completeness.via_aia)
    "no-akid completes only via AIA";
  check_one C.Fig_serpro
    (fun rep -> Topology.list_length rep.Compliance.topology = 17)
    "serpro has 17 certificates";
  check_one C.Fig_ns3
    (fun rep -> Topology.list_length rep.Compliance.topology = 29)
    "ns3 has 29 certificates"

let population_blemish_share () =
  let p = Lazy.force pop in
  let inc, inc_blemished =
    Array.fold_left
      (fun (n, b) r ->
        if r.Population.scenario = C.Inc_missing1 then
          (n + 1, b + if r.Population.blemish = Population.Expired_leaf then 1 else 0)
        else (n, b))
      (0, 0) p.Population.domains
  in
  Alcotest.(check bool) "half of missing-1 blemished (+-1)" true
    (abs ((2 * inc_blemished) - inc) <= 2)

let experiments_smoke () =
  let p = Population.generate ~scale:0.002 () in
  let a = Experiments.analyze p in
  let results = Experiments.run_all a in
  Alcotest.(check int) "19 experiment artefacts" 19 (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Experiments.id ^ " non-empty") true
        (String.length (Chaoschain_report.Report.to_text r) > 0))
    results

(* The golden test: the committed rendering of [run_all] on the seed
   population (scale 0.002, jobs 2) — the pre-IR sprintf output, captured
   byte-for-byte. [Report.to_text] must keep reproducing it exactly; any
   renderer or experiment change that shifts a byte fails here first. The
   framing matches `chaoscheck reproduce`: each body, then a blank line. *)
let experiments_golden () =
  (* cwd is test/ under `dune runtest`, the workspace root under
     `dune exec test/test_main.exe` *)
  let golden_path =
    List.find Sys.file_exists
      [ "golden/experiments_scale0.002.txt";
        "test/golden/experiments_scale0.002.txt" ]
  in
  let golden = In_channel.with_open_bin golden_path In_channel.input_all in
  let p = Population.generate ~scale:0.002 () in
  let a = Experiments.analyze ~jobs:2 p in
  let rendered =
    Experiments.run_all a
    |> List.map (fun r -> Chaoschain_report.Report.to_text r ^ "\n\n")
    |> String.concat ""
  in
  Alcotest.(check int) "golden length" (String.length golden)
    (String.length rendered);
  Alcotest.(check string) "golden bytes" golden rendered

let scanner_union () =
  let p = Population.generate ~scale:0.002 () in
  let d = Scanner.scan p in
  Alcotest.(check int) "union covers population" (Population.size p)
    (Array.length d.Scanner.domains);
  List.iter
    (fun v ->
      Alcotest.(check bool) (v.Scanner.name ^ " misses a little") true
        (v.Scanner.reached < Population.size p
        && v.Scanner.reached > Population.size p * 90 / 100))
    d.Scanner.vantages

let classify_dataset () =
  let p = Population.generate ~scale:0.002 () in
  let d = Scanner.scan p in
  let c = Classify.run d.Scanner.domains in
  Alcotest.(check int) "every domain classified" (Population.size p) c.Classify.domains;
  Alcotest.(check int) "chain dedup agrees with scanner" d.Scanner.unique_chains
    c.Classify.unique_chains;
  Alcotest.(check int) "cert dedup agrees with scanner" d.Scanner.unique_certs
    c.Classify.unique_certs;
  (* ordered/unordered partition the unique chains; so do the
     buildability classes. *)
  Alcotest.(check int) "ordered + unordered" c.Classify.unique_chains
    (c.Classify.ordered.Classify.cs_chains + c.Classify.unordered.Classify.cs_chains);
  Alcotest.(check int) "self-contained + transvalid + unbuildable"
    c.Classify.unique_chains
    (c.Classify.self_contained.Classify.cs_chains
    + c.Classify.transvalid.Classify.cs_chains
    + c.Classify.unbuildable.Classify.cs_chains);
  (* the population plants unordered and duplicate scenarios, and most
     chains omit their root (transvalid once the corpus supplies it) *)
  Alcotest.(check bool) "unordered chains present" true
    (c.Classify.unordered.Classify.cs_chains > 0);
  Alcotest.(check bool) "duplicate chains present" true
    (c.Classify.with_duplicates.Classify.cs_chains > 0);
  Alcotest.(check bool) "transvalid dominates" true
    (c.Classify.transvalid.Classify.cs_chains
    > c.Classify.self_contained.Classify.cs_chains);
  (* both framings decode every chain to the same certificates *)
  let a = c.Classify.agreement in
  Alcotest.(check int) "all chains round-tripped" c.Classify.unique_chains
    a.Classify.fa_chains;
  Alcotest.(check int) "full decode agreement" a.Classify.fa_chains
    a.Classify.fa_agree;
  (* 1.3 framing adds 1 context byte + 2 ext-block bytes per entry, minus
     the shared 3-byte outer header difference: strictly larger overall *)
  Alcotest.(check bool) "1.3 wire strictly larger" true
    (a.Classify.fa_bytes13 > a.Classify.fa_bytes12);
  (* rendering is total *)
  Alcotest.(check bool) "report renders" true
    (String.length (Chaoschain_report.Report.to_text (Classify.report c)) > 0)

(* RFC 5280 name chaining ignores case and whitespace runs: a leaf whose
   issuer DN matches a corpus intermediate's subject only up to case and
   inner or outer whitespace is still transvalid, and two intermediates
   whose subjects differ only so are one subject name. *)
let classify_loose_names () =
  let module Dn = Chaoschain_x509.Dn in
  let module Issue = Chaoschain_x509.Issue in
  let rng = Chaoschain_crypto.Prng.of_label "classify:loose-names" in
  let ca dn = Issue.spec ~is_ca:true dn in
  let root = Issue.self_signed rng (ca (Dn.make ~o:"Loose" ~cn:"Loose Root" ())) in
  let inter dn = Issue.issue rng ~parent:root (ca dn) in
  let a = inter (Dn.make ~o:"Example Trust" ~cn:"Example Issuing CA" ()) in
  let b = inter (Dn.make ~o:"  example   TRUST " ~cn:"EXAMPLE issuing  ca" ()) in
  let c = inter (Dn.make ~o:"Example trust" ~cn:" example Issuing\tCA" ()) in
  Alcotest.(check bool) "spellings are Dn.equal" true
    (Dn.equal (Chaoschain_x509.Cert.subject a.Issue.cert)
       (Chaoschain_x509.Cert.subject b.Issue.cert));
  let leaf =
    Issue.issue_cert rng ~parent:a
      (Issue.spec (Dn.make ~cn:"loose.example" ()))
  in
  (* the leaf's own issuer is absent: only the other spellings are *)
  let r =
    Classify.run
      [| ("loose.example", [ leaf ]);
         ("b.example", [ b.Issue.cert; root.Issue.cert ]);
         ("c.example", [ c.Issue.cert; root.Issue.cert ]) |]
  in
  Alcotest.(check int) "leaf-only chain is transvalid" 1
    r.Classify.transvalid.Classify.cs_chains;
  Alcotest.(check int) "nothing unbuildable" 0
    r.Classify.unbuildable.Classify.cs_chains;
  (* leaf, root, and the two intermediates as one name *)
  Alcotest.(check int) "intermediate spellings are one subject" 3
    r.Classify.subject_keys;
  Alcotest.(check int) "issuer names" 2 r.Classify.issuer_keys

(* --- scenario resolution (Scenario_index) --- *)

(* The linear resolver the index replaces, kept verbatim as the reference:
   the first ledger name containing the needle, then the first population
   record of that scenario. *)
module Linear = struct
  let scenario_names =
    List.filter_map
      (fun (s, n) ->
        if n > 0 then Some (Calibration.scenario_to_string s, s) else None)
      Calibration.ledger

  let contains ~needle name =
    let needle = String.lowercase_ascii needle in
    let name = String.lowercase_ascii name in
    let ln = String.length needle and nn = String.length name in
    let rec go i = i + ln <= nn && (String.sub name i ln = needle || go (i + 1)) in
    go 0

  let find_scenario (pop : Population.t) needle =
    match List.find_opt (fun (name, _) -> contains ~needle name) scenario_names with
    | None -> None
    | Some (_, scenario) ->
        Array.to_list pop.Population.domains
        |> List.find_opt (fun r -> r.Population.scenario = scenario)
        |> Option.map (fun r -> (r.Population.domain, r.Population.chain))
end

let resolver_needles =
  List.concat_map
    (fun (name, _) -> [ name; String.uppercase_ascii name ])
    Scenario_index.names
  @ [ "rev"; "REV"; "dup"; "cross"; ""; "no such scenario"; "zzz" ]

let index_matches_linear () =
  let pop = Lazy.force pop in
  let idx = Scenario_index.create pop in
  List.iter
    (fun needle ->
      let same =
        match (Scenario_index.find idx needle, Linear.find_scenario pop needle) with
        | None, None -> true
        | Some (d, c), Some (d', c') ->
            d = d' && List.length c = List.length c' && List.for_all2 ( == ) c c'
        | _ -> false
      in
      Alcotest.(check bool) (Printf.sprintf "needle %S" needle) true same)
    resolver_needles;
  Alcotest.(check bool) "names are the ledger's" true
    (Scenario_index.names = Linear.scenario_names);
  Alcotest.(check bool) "unknown needle" true
    (Scenario_index.match_name "no such scenario" = None)

(* Minor words per [find] call, averaged over many calls per needle. *)
let words_per_find idx =
  let calls = 1000 in
  List.map
    (fun needle ->
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (Scenario_index.find idx needle))
      done;
      (Gc.minor_words () -. before) /. float_of_int calls)
    resolver_needles

(* O(1) in the population, pinned as an allocation count: a lookup costs
   the same (and next to nothing) at two population sizes 10x apart. *)
let index_find_flat_in_population () =
  let small = words_per_find (Scenario_index.create (Population.generate ~scale:0.002 ())) in
  let large = words_per_find (Scenario_index.create (Population.generate ~scale:0.02 ())) in
  List.iter2
    (fun (needle, a) b ->
      Alcotest.(check bool) (Printf.sprintf "%S: %.3f words per call" needle a) true (a < 1.0);
      Alcotest.(check (float 0.0)) (Printf.sprintf "%S: same at 0.002 and 0.02" needle) a b)
    (List.combine resolver_needles small) large

let suite =
  [ Alcotest.test_case "comma formatting" `Quick commas;
    Alcotest.test_case "scenario index matches linear" `Slow index_matches_linear;
    Alcotest.test_case "scenario find flat in population" `Slow
      index_find_flat_in_population;
    Alcotest.test_case "percent formatting" `Quick percents;
    Alcotest.test_case "apportion exact" `Quick apportion_exact;
    QCheck_alcotest.to_alcotest qcheck_apportion;
    Alcotest.test_case "table render" `Quick table_render;
    Alcotest.test_case "ledger totals 906,336" `Quick ledger_total;
    Alcotest.test_case "ledger matches Table 5" `Quick ledger_matches_table5;
    Alcotest.test_case "ledger matches Table 7" `Quick ledger_matches_table7;
    Alcotest.test_case "ledger matches 26,361" `Quick ledger_matches_noncompliant_total;
    Alcotest.test_case "ledger matches Table 8" `Quick ledger_matches_table8;
    Alcotest.test_case "scaled ledger" `Quick scaled_ledger_properties;
    Alcotest.test_case "weights shape" `Quick vendor_weights_shape;
    Alcotest.test_case "population deterministic" `Slow population_deterministic;
    Alcotest.test_case "scenario classifications" `Slow population_scenarios_classify;
    Alcotest.test_case "blemish share" `Slow population_blemish_share;
    Alcotest.test_case "experiments smoke" `Slow experiments_smoke;
    Alcotest.test_case "experiments golden" `Slow experiments_golden;
    Alcotest.test_case "scanner union" `Slow scanner_union;
    Alcotest.test_case "classify dataset" `Slow classify_dataset;
    Alcotest.test_case "classify loose names" `Quick classify_loose_names ]
