open Chaoschain_x509
open Chaoschain_core
open Chaoschain_pki
module C = Calibration
module R = Chaoschain_report.Report

type analysis = {
  pop : Population.t;
  dataset : Scanner.dataset;
  reports : (Population.record * Compliance.report) array;
  jobs : int;
  difftest_memo : Difftest.case Pipeline.Memo.t;
}

let analyze ?(jobs = 1) ?format pop =
  let dataset = Scanner.scan ~jobs ?format pop in
  let store = Universe.union_store pop.Population.universe in
  let aia = Universe.aia pop.Population.universe in
  (* Each unique chain is classified once; the per-domain leaf-placement
     verdict is attached when the cached chain report is fanned back out. *)
  let memo = Pipeline.Memo.create () in
  let reports =
    Pipeline.mapi ~jobs
      (fun i r ->
        let cr =
          Pipeline.Memo.find_or_add memo dataset.Scanner.chain_fps.(i) (fun () ->
              Compliance.analyze_chain ~store ~aia r.Population.chain)
        in
        (r, Compliance.localize ~domain:r.Population.domain r.Population.chain cr))
      pop.Population.domains
  in
  { pop; dataset; reports; jobs; difftest_memo = Pipeline.Memo.create () }

(* Differential-test one domain, reusing the analysis-wide memo: chains with
   the same fingerprint (and the same leaf/domain match bit) are tested once
   and relabelled for every domain serving them. *)
let difftest_record analysis (r : Population.record) =
  let env = Population.env analysis.pop in
  let case =
    Pipeline.Memo.find_or_add analysis.difftest_memo
      (Difftest.chain_key ~domain:r.Population.domain r.Population.chain)
      (fun () -> Difftest.run_case env ~domain:r.Population.domain r.Population.chain)
  in
  Difftest.with_domain ~domain:r.Population.domain case

(* One [result] per table/figure: the typed report IR, rendered downstream
   with [Report.to_text] / [to_json] / [to_markdown]. *)
type result = R.t = {
  id : string;
  title : string;
  blocks : R.block list;
}

let count_where analysis p =
  Array.fold_left (fun acc rc -> if p rc then acc + 1 else acc) 0 analysis.reports

(* The paper's non-compliance notion for the 26,361 total: order violation or
   incomplete chain (leaf "Other" chains are excluded, as in section 4). *)
let paper_non_compliant_report rep =
  (not rep.Compliance.order.Order_check.ordered)
  || rep.Compliance.completeness.Completeness.verdict = Completeness.Incomplete

let paper_non_compliant (_, rep) = paper_non_compliant_report rep

(* A [view] is the slice of an analysis the persisted corpus can reproduce:
   no [Population.record]s (vendor and software labels are synthetic and not
   stored), just each domain's served chain and its compliance report plus
   the trust environment. Both the live path ([view] below) and the replay
   path ([Corpus.analyze]) build one, so the replayed tables render through
   exactly the code the direct scan used — byte-identical by construction. *)
type view = {
  v_dataset : Scanner.dataset;
  v_env : Difftest.env;
  v_items : (string * Cert.t list * Compliance.report) array;
  v_jobs : int;
  v_memo : Difftest.case Pipeline.Memo.t;
}

let view analysis =
  {
    v_dataset = analysis.dataset;
    v_env = Population.env analysis.pop;
    v_items =
      Array.map
        (fun (r, rep) -> (r.Population.domain, r.Population.chain, rep))
        analysis.reports;
    v_jobs = analysis.jobs;
    v_memo = analysis.difftest_memo;
  }

let difftest_item view ~domain chain =
  let case =
    Pipeline.Memo.find_or_add view.v_memo (Difftest.chain_key ~domain chain)
      (fun () -> Difftest.run_case view.v_env ~domain chain)
  in
  Difftest.with_domain ~domain case

(* --- Table 1 --- *)

let table1 () =
  let t =
    R.Table.create ~title:"Table 1: client chain-building coverage, BetterTLS vs this work"
      ~header:[ "Capability"; "BetterTLS"; "This work" ]
  in
  List.iter
    (fun c ->
      R.Table.row t
        [ R.text c.Capability.capability;
          R.text (if c.Capability.better_tls then "yes" else "no");
          R.text (if c.Capability.this_work then "yes" else "no") ])
    Capability.betterlts_comparison;
  { id = "table1"; title = "Table 1"; blocks = [ R.Table.block t ] }

(* --- Table 2 --- *)

let table2 () =
  let t =
    R.Table.create ~title:"Table 2: certificate chain construction capability tests"
      ~header:[ "#"; "Capability"; "Test case" ]
  in
  List.iteri
    (fun i test ->
      R.Table.row t
        [ R.int (i + 1);
          R.text (Capability.test_name test);
          R.text (Capability.test_case_notation test) ])
    Capability.all_tests;
  { id = "table2"; title = "Table 2"; blocks = [ R.Table.block t ] }

(* --- Table 3 --- *)

(* The compliance tables (3, 5, 7) depend only on the report array, so they
   have report-level cores shared between the live analysis and a replayed
   corpus view. *)

let count_reports reports p =
  Array.fold_left (fun acc rep -> if p rep then acc + 1 else acc) 0 reports

let table3_reports reports =
  let n = Array.length reports in
  let count v = count_reports reports (fun rep -> rep.Compliance.leaf = v) in
  let t =
    R.Table.create ~title:"Table 3: leaf certificate deployment"
      ~header:[ "Place"; "Match"; "# domains (measured)"; "paper" ]
  in
  let row place mat v ~paper ~pct ~tol =
    R.Table.row t
      [ R.text place; R.text mat;
        R.count_pct ~num:(count v) ~den:n |> R.near ~paper ~pct ~tol;
        R.text paper ]
  in
  row "yes" "yes" Leaf_check.Correct_matched
    ~paper:"838,354 (92.5%)" ~pct:92.5 ~tol:2.0;
  row "yes" "no" Leaf_check.Correct_mismatched
    ~paper:"62,536 (6.9%)" ~pct:6.9 ~tol:2.0;
  row "no" "yes" Leaf_check.Incorrect_matched
    ~paper:"0 (~0%)" ~pct:0.0 ~tol:0.5;
  row "no" "no" Leaf_check.Incorrect_mismatched
    ~paper:"1 (~0%)" ~pct:0.0 ~tol:0.5;
  row "Other" "" Leaf_check.Other ~paper:"5,445 (0.6%)" ~pct:0.6 ~tol:1.0;
  { id = "table3"; title = "Table 3"; blocks = [ R.Table.block t ] }

let table3 analysis = table3_reports (Array.map snd analysis.reports)

(* --- Table 4 --- *)

let table4 () =
  let module H = Chaoschain_deployment.Http_server in
  let softwares =
    [ H.Apache_pre_2_4_8; H.Apache; H.Nginx; H.Azure_app_gateway; H.Iis; H.Aws_elb ]
  in
  let labels = List.map (fun s -> List.map fst (H.table4_row s)) softwares |> List.hd in
  let t =
    R.Table.create ~title:"Table 4: SSL deployment characteristics across HTTP servers"
      ~header:("Characteristic" :: List.map H.software_to_string softwares)
  in
  List.iter
    (fun label ->
      R.Table.row t
        (R.text label
        :: List.map (fun s -> R.text (List.assoc label (H.table4_row s))) softwares))
    labels;
  { id = "table4"; title = "Table 4"; blocks = [ R.Table.block t ] }

(* --- Table 5 --- *)

let table5_reports reports =
  let bad =
    Array.to_list reports
    |> List.filter (fun rep -> not rep.Compliance.order.Order_check.ordered)
  in
  let nbad = List.length bad in
  let c p = List.length (List.filter (fun rep -> p rep.Compliance.order) bad) in
  let t =
    R.Table.create ~title:"Table 5: chains with non-compliant issuance order"
      ~header:[ "Type"; "measured"; "paper" ]
  in
  let row label num ~paper ~pct ~tol =
    R.Table.row t
      [ R.text label;
        R.count_pct ~num ~den:nbad |> R.near ~paper ~pct ~tol;
        R.text paper ]
  in
  row "Duplicate Certificates" (c Order_check.has_duplicates)
    ~paper:"5,974 (35.2%)" ~pct:35.2 ~tol:10.0;
  row "Irrelevant Certificates" (c Order_check.has_irrelevant)
    ~paper:"3,032 (17.9%)" ~pct:17.9 ~tol:10.0;
  row "Multiple Paths" (c (fun o -> o.Order_check.multiple_paths))
    ~paper:"246 (1.5%)" ~pct:1.5 ~tol:12.0;
  row "Reversed Sequences" (c Order_check.has_reversed)
    ~paper:"8,566 (50.5%)" ~pct:50.5 ~tol:12.0;
  R.Table.sep t;
  R.Table.row t
    [ R.text "Total"; R.count nbad; R.text "16,952" |> R.paper "16,952" ];
  (* The section 4.2 sub-statistics. *)
  let dup_kind k =
    List.length
      (List.filter
         (fun rep ->
           List.exists (fun (kind, _) -> kind = k) rep.Compliance.order.Order_check.duplicates)
         bad)
  in
  let all_rev =
    List.length
      (List.filter (fun rep -> rep.Compliance.order.Order_check.all_paths_reversed) bad)
  in
  {
    id = "table5";
    title = "Table 5";
    blocks =
      [ R.Table.block t;
        R.line
          [ R.S "duplicate leaf / intermediate / root chains: ";
            R.C (R.int (dup_kind Order_check.Dup_leaf)); R.S " / ";
            R.C (R.int (dup_kind Order_check.Dup_intermediate)); R.S " / ";
            R.C (R.int (dup_kind Order_check.Dup_root));
            R.S " (paper: 4,730 / 1,354 / 401)" ];
        R.line
          [ R.S "chains with every path reversed: "; R.C (R.int all_rev);
            R.S " (paper: 8,370 of 8,566)" ] ];
  }

let table5 analysis = table5_reports (Array.map snd analysis.reports)

(* --- Table 6 --- *)

let table6 analysis =
  let module V = Chaoschain_deployment.Ca_vendor in
  let u = analysis.pop.Population.universe in
  let vendors =
    [ Universe.Lets_encrypt; Universe.Zerossl; Universe.Gogetssl; Universe.Trustico;
      Universe.Cyber_folks ]
  in
  let rows = List.map (fun v -> (v, V.table6_row u v)) vendors in
  let labels = List.map fst (snd (List.hd rows)) in
  let t =
    R.Table.create ~title:"Table 6: SSL issuance characteristics of CAs/resellers"
      ~header:("Characteristic" :: List.map Universe.vendor_to_string vendors)
  in
  List.iter
    (fun label ->
      R.Table.row t
        (R.text label
        :: List.map (fun (_, row) -> R.text (List.assoc label row)) rows))
    labels;
  { id = "table6"; title = "Table 6"; blocks = [ R.Table.block t ] }

(* --- Table 7 --- *)

let table7_reports reports =
  let n = Array.length reports in
  let c v =
    count_reports reports (fun rep ->
        rep.Compliance.completeness.Completeness.verdict = v)
  in
  let t =
    R.Table.create ~title:"Table 7: completeness of certificate chains"
      ~header:[ "Type"; "measured"; "paper" ]
  in
  let row label num ~paper ~pct ~tol =
    R.Table.row t
      [ R.text label;
        R.count_pct ~num ~den:n |> R.near ~paper ~pct ~tol;
        R.text paper ]
  in
  row "Complete Chain w/ Root" (c Completeness.Complete_with_root)
    ~paper:"79,144 (8.7%)" ~pct:8.7 ~tol:2.0;
  row "Complete Chain w/o Root" (c Completeness.Complete_without_root)
    ~paper:"815,105 (89.9%)" ~pct:89.9 ~tol:2.0;
  row "Incomplete Chain" (c Completeness.Incomplete)
    ~paper:"12,087 (1.3%)" ~pct:1.3 ~tol:2.0;
  let inc =
    Array.to_list reports
    |> List.filter_map (fun rep ->
           match rep.Compliance.completeness.Completeness.verdict with
           | Completeness.Incomplete -> Some rep.Compliance.completeness
           | _ -> None)
  in
  let ninc = List.length inc in
  let cause p = List.length (List.filter p inc) in
  let recoverable =
    cause (fun c -> match c.Completeness.cause with Some (Completeness.Recoverable _) -> true | _ -> false)
  in
  let missing1 =
    cause (fun c -> c.Completeness.cause = Some (Completeness.Recoverable 1))
  in
  {
    id = "table7";
    title = "Table 7";
    blocks =
      [ R.Table.block t;
        R.line
          [ R.S "incomplete chains missing a single intermediate: ";
            R.C
              (R.count_pct ~num:missing1 ~den:ninc
              |> R.near ~paper:"8,729 / 72.2%" ~pct:72.2 ~tol:10.0);
            R.S " (paper: 8,729 / 72.2%)" ];
        R.line
          [ R.S "recoverable via recursive AIA: ";
            R.C
              (R.count_pct ~num:recoverable ~den:ninc
              |> R.near ~paper:"11,419 / 94.5%" ~pct:94.5 ~tol:10.0);
            R.S " (paper: 11,419 / 94.5%)" ];
        R.line
          [ R.S "AIA missing: ";
            R.C (R.int (cause (fun c -> c.Completeness.cause = Some Completeness.Aia_missing)));
            R.S " (paper: 579)   AIA URI fails: ";
            R.C (R.int (cause (fun c -> c.Completeness.cause = Some Completeness.Aia_fetch_failed)));
            R.S " (paper: 88)   wrong cert served: ";
            R.C (R.int (cause (fun c -> c.Completeness.cause = Some Completeness.Aia_wrong_cert)));
            R.S " (paper: 1)" ] ];
  }

let table7 analysis = table7_reports (Array.map snd analysis.reports)

(* --- Table 8 --- *)

let table8 analysis =
  let u = analysis.pop.Population.universe in
  let aia_repo = Universe.aia u in
  let baseline_incomplete =
    Array.map
      (fun (_, rep) ->
        rep.Compliance.completeness.Completeness.verdict = Completeness.Incomplete)
      analysis.reports
  in
  let additional program ~aia_enabled =
    let store = Universe.store u program in
    (* Fresh memo per (store, AIA) configuration: completeness is a pure
       function of the chain under that configuration. *)
    let memo = Pipeline.Memo.create () in
    let incomplete =
      Pipeline.mapi ~jobs:analysis.jobs
        (fun i (_, rep) ->
          if baseline_incomplete.(i) then false
          else
            let c =
              Pipeline.Memo.find_or_add memo analysis.dataset.Scanner.chain_fps.(i)
                (fun () ->
                  Completeness.analyze ~aia_enabled ~store ~aia:aia_repo
                    rep.Compliance.topology)
            in
            c.Completeness.verdict = Completeness.Incomplete)
        analysis.reports
    in
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 incomplete
  in
  let t =
    R.Table.create
      ~title:
        "Table 8: additional incomplete chains per root store, with and without AIA"
      ~header:
        ("Root Store" :: List.map Root_store.program_to_string Root_store.all_programs)
  in
  let row label ~aia_enabled =
    R.Table.row t
      (R.text label
      :: List.map
           (fun p -> R.count (additional p ~aia_enabled))
           Root_store.all_programs)
  in
  row "AIA Supported (measured)" ~aia_enabled:true;
  R.Table.row t
    (R.text "AIA Supported (paper)" :: List.map R.text [ "66"; "66"; "5"; "4" ]);
  R.Table.sep t;
  row "AIA Not Supported (measured)" ~aia_enabled:false;
  R.Table.row t
    (R.text "AIA Not Supported (paper)"
    :: List.map R.text [ "225,608"; "225,608"; "225,538"; "225,360" ]);
  { id = "table8"; title = "Table 8"; blocks = [ R.Table.block t ] }

(* --- Table 9 --- *)

let table9 () =
  let t =
    R.Table.create ~title:"Table 9: capabilities of TLS implementations (measured == paper?)"
      ~header:("Type" :: List.map (fun c -> c.Clients.name) Clients.all)
  in
  List.iter
    (fun test ->
      R.Table.row t
        (R.text (Capability.test_name test)
        :: List.map
             (fun client ->
               let got = Capability.evaluate client test in
               let want = Capability.table9_expected client.Clients.id test in
               R.text got |> R.same_text ~paper:want)
             Clients.all))
    Capability.all_tests;
  { id = "table9"; title = "Table 9"; blocks = [ R.Table.block t ] }

(* --- Tables 10 and 11: cross-tabs --- *)

type violation = V_dup | V_irr | V_multi | V_rev | V_inc

let violations_of rep =
  let o = rep.Compliance.order in
  (if Order_check.has_duplicates o then [ V_dup ] else [])
  @ (if Order_check.has_irrelevant o then [ V_irr ] else [])
  @ (if o.Order_check.multiple_paths then [ V_multi ] else [])
  @ (if Order_check.has_reversed o then [ V_rev ] else [])
  @
  if rep.Compliance.completeness.Completeness.verdict = Completeness.Incomplete then
    [ V_inc ]
  else []

let violation_label = function
  | V_dup -> "Duplicate Certificates"
  | V_irr -> "Irrelevant Certificates"
  | V_multi -> "Multiple Paths"
  | V_rev -> "Reversed Sequences"
  | V_inc -> "Incomplete Chain"

let table10 analysis =
  let servers =
    [ C.S_apache; C.S_nginx; C.S_azure; C.S_cloudflare; C.S_iis; C.S_aws_elb; C.S_other ]
  in
  let count violation server =
    count_where analysis (fun (r, rep) ->
        r.Population.software = server
        && List.mem violation (violations_of rep))
  in
  let overview server =
    count_where analysis (fun (r, rep) ->
        r.Population.software = server && paper_non_compliant (r, rep))
  in
  let t =
    R.Table.create
      ~title:"Table 10: HTTP servers of domains with non-compliant chains (fingerprinted)"
      ~header:("Type" :: List.map C.server_key_to_string servers @ [ "Total" ])
  in
  let ov = List.map overview servers in
  R.Table.row t
    (R.text "Overview" :: List.map R.count ov
    @ [ R.count (List.fold_left ( + ) 0 ov) ]);
  List.iter
    (fun v ->
      let cells = List.map (count v) servers in
      R.Table.row t
        (R.text (violation_label v) :: List.map R.count cells
        @ [ R.count (List.fold_left ( + ) 0 cells) ]))
    [ V_dup; V_irr; V_multi; V_rev; V_inc ];
  { id = "table10"; title = "Table 10"; blocks = [ R.Table.block t ] }

let table11 analysis =
  let vendors =
    [ C.V_lets_encrypt; C.V_digicert; C.V_sectigo; C.V_zerossl; C.V_gogetssl;
      C.V_taiwan_ca; C.V_cyber_folks; C.V_trustico ]
  in
  let issued v = count_where analysis (fun (r, _) -> r.Population.vendor = v) in
  let count violation v =
    count_where analysis (fun (r, rep) ->
        r.Population.vendor = v && List.mem violation (violations_of rep))
  in
  let nc v =
    count_where analysis (fun (r, rep) ->
        r.Population.vendor = v && paper_non_compliant (r, rep))
  in
  let t =
    R.Table.create ~title:"Table 11: CAs/resellers of non-compliant certificate chains"
      ~header:("Type" :: List.map C.vendor_key_to_string vendors)
  in
  R.Table.row t
    (R.text "Non-compliant"
    :: List.map (fun v -> R.count_pct ~num:(nc v) ~den:(max 1 (issued v))) vendors);
  List.iter
    (fun violation ->
      R.Table.row t
        (R.text (violation_label violation)
        :: List.map (fun v -> R.count (count violation v)) vendors))
    [ V_dup; V_irr; V_multi; V_rev; V_inc ];
  R.Table.sep t;
  R.Table.row t ("Total issued" |> R.text |> fun c -> c :: List.map (fun v -> R.count (issued v)) vendors);
  { id = "table11"; title = "Table 11"; blocks = [ R.Table.block t ] }

(* --- Figures --- *)

let find_scenario analysis scenario =
  Array.to_list analysis.reports
  |> List.find_opt (fun (r, _) -> r.Population.scenario = scenario)

let render_record (r, rep) =
  Printf.sprintf "%s (%s)\n%s" r.Population.domain
    (C.scenario_to_string r.Population.scenario)
    (Topology.render rep.Compliance.topology)

let figure1 analysis =
  (* Walk one compliant chain through the two-step pipeline and narrate it. *)
  let env = Population.env analysis.pop in
  let case =
    Array.to_list analysis.reports
    |> List.find (fun (r, _) -> r.Population.scenario = C.Ok_plain)
  in
  let r, _ = case in
  let client = Clients.by_id Clients.Chrome in
  let ctx =
    Clients.context client
      ~store:(env.Difftest.store_of client.Clients.root_program)
      ~aia:env.Difftest.aia ~cache:[] ~now:env.Difftest.now
  in
  let outcome = Engine.run ctx ~host:(Some r.Population.domain) r.Population.chain in
  {
    id = "figure1";
    title = "Figure 1";
    blocks =
      [ R.line
          [ R.S "Certification path processing for ";
            R.C (R.text r.Population.domain); R.S " (client: ";
            R.C (R.text client.Clients.name); R.S "):" ];
        R.line
          [ R.S "  step 1, path construction: ";
            R.C (R.int (List.length r.Population.chain));
            R.S " certificate(s) served, candidate path of length ";
            R.C
              (R.text
                 (match outcome.Engine.constructed with
                 | Some p -> string_of_int (List.length p)
                 | None -> "-"));
            R.S " built" ];
        R.line
          [ R.S "  step 2, path validation: ";
            R.C
              (R.text
                 (match outcome.Engine.result with
                 | Ok p ->
                     Printf.sprintf "valid (anchored at %s)"
                       (Dn.to_string (Cert.subject (List.nth p (List.length p - 1))))
                 | Error e -> Engine.error_to_string e)) ] ];
  }

let figure2 analysis =
  let pick scenario label =
    match find_scenario analysis scenario with
    | Some case -> R.raw (Printf.sprintf "(%s) %s\n" label (render_record case))
    | None -> R.raw (Printf.sprintf "(%s) no instance at this scale\n" label)
  in
  {
    id = "figure2";
    title = "Figure 2";
    blocks =
      [ pick C.Ok_with_root "a: compliant chain";
        pick (C.Irr_stale_leaves 4) "b: stale leaves (webcanny.com shape)";
        pick C.Multi_cross_reversed "c: cross-signing, multiple paths";
        pick C.Irr_foreign_chain "d: foreign chain appended (archives.gov.tw shape)" ];
  }

let client_outcomes analysis (r : Population.record) =
  let case = difftest_record analysis r in
  String.concat "\n"
    (List.map
       (fun cr ->
         Printf.sprintf "  %-14s %s%s" cr.Difftest.client.Clients.name
           cr.Difftest.message
           (let a = cr.Difftest.outcome.Engine.attempts in
            if a > 1 then Printf.sprintf "  (after %d path attempts)" a else ""))
       case.Difftest.results)

let figure3 analysis =
  match find_scenario analysis C.Fig_serpro with
  | None -> { id = "figure3"; title = "Figure 3"; blocks = [ R.raw "not generated" ] }
  | Some (r, _) ->
      {
        id = "figure3";
        title = "Figure 3";
        blocks =
          [ R.raw
              (render_record (r, snd (Option.get (find_scenario analysis C.Fig_serpro)))
              ^ "\n");
            R.line
              [ R.S "Served list has ";
                R.C (R.int (List.length r.Population.chain));
                R.S " certificates; GnuTLS's input-list limit is 16." ];
            R.raw (client_outcomes analysis r ^ "\n") ];
      }

let figure4 analysis =
  match find_scenario analysis C.Fig_moex with
  | None -> { id = "figure4"; title = "Figure 4"; blocks = [ R.raw "not generated" ] }
  | Some ((r, _) as case) ->
      {
        id = "figure4";
        title = "Figure 4";
        blocks =
          [ R.raw (render_record case ^ "\n");
            R.raw
              "Node 1 is a root certificate absent from every store; the correct path\n\
               runs through the cross-signed alternative. Clients without backtracking\n\
               commit to the untrusted path:\n";
            R.raw (client_outcomes analysis r ^ "\n") ];
      }

let figure5 analysis =
  let u = analysis.pop.Population.universe in
  let a = Universe.digicert_ca1_recent u and b = Universe.digicert_ca1_old u in
  let render_candidate label c =
    Printf.sprintf "%s\n  Subject: %s\n  Validity: %s .. %s\n" label
      (Dn.to_string (Cert.subject c))
      (Vtime.to_string (Cert.not_before c))
      (Vtime.to_string (Cert.not_after c))
  in
  let picks =
    match find_scenario analysis C.Multi_validity_variants with
    | None -> ""
    | Some (r, _) ->
        let case = difftest_record analysis r in
        String.concat "\n"
          (List.map
             (fun cr ->
               let chosen =
                 match cr.Difftest.outcome.Engine.constructed with
                 | Some (_ :: i :: _) ->
                     if Cert.equal i a then "candidate A (recent)"
                     else if Cert.equal i b then "candidate B (older)"
                     else "?"
                 | _ -> "no path"
               in
               Printf.sprintf "  %-14s picks %s" cr.Difftest.client.Clients.name chosen)
             case.Difftest.results)
  in
  {
    id = "figure5";
    title = "Figure 5";
    blocks =
      [ R.raw (render_candidate "Candidate A" a);
        R.raw (render_candidate "Candidate B" b);
        R.raw (picks ^ "\n") ];
  }

(* --- Section 5.2 --- *)

let section5_2_view v =
  let env = v.v_env in
  let nc_arr =
    Array.to_list v.v_items
    |> List.filter (fun (_, _, rep) -> paper_non_compliant_report rep)
    |> Array.of_list
  in
  (* The expensive sweep: eight client models per unique non-compliant chain,
     deduplicated through the analysis-wide memo and spread over the Domain
     pool. Shard-order merge keeps the list in domain order, as before. *)
  let cases_arr =
    Pipeline.map ~jobs:v.v_jobs
      (fun (domain, chain, _) -> difftest_item v ~domain chain)
      nc_arr
  in
  let cases = Array.to_list cases_arr in
  let s = Difftest.summarize cases in
  let total = s.Difftest.total in
  let blocks = ref [] in
  let add b = blocks := b :: !blocks in
  add
    (R.line
       [ R.S "Differential testing over "; R.C (R.count total);
         R.S " non-compliant chains (paper: 26,361)" ]);
  let share label gap n ~paper_suffix ~paper ~pct ~tol =
    add
      (R.line
         [ R.S ("  " ^ label ^ gap); R.C (R.count n); R.S " ";
           R.C (R.percent ~num:n ~den:total |> R.near ~paper ~pct ~tol);
           R.S paper_suffix ])
  in
  share "pass in all 3 browsers:" "   " s.Difftest.browsers_all_pass
    ~paper_suffix:"   (paper: 61.1%)" ~paper:"61.1%" ~pct:61.1 ~tol:15.0;
  share "pass in all 4 libraries:" "  " s.Difftest.libraries_all_pass
    ~paper_suffix:"   (paper: 47.4%)" ~paper:"47.4%" ~pct:47.4 ~tol:10.0;
  share "browser discrepancies:" "    " s.Difftest.browser_discrepancies
    ~paper_suffix:"   (paper: 3,295 / 12.5%)" ~paper:"3,295 / 12.5%" ~pct:12.5
    ~tol:10.0;
  share "library discrepancies:" "    " s.Difftest.library_discrepancies
    ~paper_suffix:"   (paper: 10,804 / 41.0%)" ~paper:"10,804 / 41.0%" ~pct:41.0
    ~tol:16.0;
  add
    (R.line
       [ R.S "  chains rejected by >=1 library: ";
         R.C (R.count s.Difftest.library_build_issue); R.S " ";
         R.C (R.percent ~num:s.Difftest.library_build_issue ~den:total) ]);
  add
    (R.line
       [ R.S "  chains rejected by >=1 browser: ";
         R.C (R.count s.Difftest.browser_build_issue); R.S " ";
         R.C (R.percent ~num:s.Difftest.browser_build_issue ~den:total) ]);
  let firefox_gap =
    List.length
      (List.filter
         (fun case ->
           Difftest.accepted_by case Clients.Chrome
           && Difftest.accepted_by case Clients.Edge
           && not (Difftest.accepted_by case Clients.Firefox))
         cases)
  in
  add
    (R.line
       [ R.S "  Chrome+Edge pass but Firefox fails (intermediate-cache miss): ";
         R.C (R.count firefox_gap); R.S "   (paper: 1,074)" ]);
  add (R.line [ R.S "Attribution (a chain can carry several causes):" ]);
  List.iter
    (fun (cause, n) ->
      let paper =
        match cause with
        | Difftest.I1_no_reorder -> "paper: 51 chains"
        | Difftest.I2_list_limit -> "paper: 10 chains"
        | Difftest.I3_no_backtracking -> "paper: 1 case"
        | Difftest.I4_no_aia -> "paper: 8,553 chains"
        | _ -> ""
      in
      add
        (R.line
           [ R.S "  "; R.Cw (-40, R.text (Difftest.cause_to_string cause));
             R.S " "; R.Cw (6, R.count n); R.S "   "; R.S paper ]))
    s.Difftest.by_cause;
  (* The CryptoAPI AIA-ablation: disable AIA and count which of its accepted
     chains survive thanks to the OS intermediate store. *)
  let cryptoapi = Clients.by_id Clients.Cryptoapi in
  let no_aia_params = { cryptoapi.Clients.params with Build_params.aia_fetch = false } in
  let cryptoapi_used_fetch case =
    match (Difftest.result_of case Clients.Cryptoapi).Difftest.outcome
            .Engine.accepted_attempt
    with
    | Some a -> a.Path_builder.used_aia || a.Path_builder.used_cache
    | None -> false
  in
  let ablation_outcomes =
    Pipeline.mapi ~jobs:v.v_jobs
      (fun i (domain, chain, _) ->
        let case = cases_arr.(i) in
        if Difftest.accepted_by case Clients.Cryptoapi && cryptoapi_used_fetch case
        then begin
          let store = env.Difftest.store_of cryptoapi.Clients.root_program in
          let ctx =
            { Path_builder.params = no_aia_params; store; aia = None;
              cache = env.Difftest.os_store; crls = None; now = env.Difftest.now }
          in
          let o = Engine.run ctx ~host:(Some domain) chain in
          Some (Engine.accepted o)
        end
        else None)
      nc_arr
  in
  let rescued = ref 0 and broke = ref 0 in
  Array.iter
    (function
      | Some true -> incr rescued
      | Some false -> incr broke
      | None -> ())
    ablation_outcomes;
  add
    (R.line
       [ R.S "CryptoAPI AIA-disabled ablation: "; R.C (R.int !broke);
         R.S " of its accepted chains fail, "; R.C (R.int !rescued);
         R.S " rescued by the" ]);
  add (R.line [ R.S "OS intermediate store (paper: 8,373 fail, 180 rescued)" ]);
  { id = "section5.2"; title = "Section 5.2"; blocks = List.rev !blocks }

let section5_2 analysis = section5_2_view (view analysis)

(* --- Section 6: recommendations made executable --- *)

let section6 analysis =
  let env = Population.env analysis.pop in
  let blocks = ref [] in
  let add b = blocks := b :: !blocks in
  (* 6.1: remediation advice for one concrete non-compliant deployment. *)
  (match
     Array.to_list analysis.reports
     |> List.find_opt (fun (r, _) -> r.Population.scenario = C.Rev_merge_1int)
   with
  | Some (r, rep) ->
      add
        (R.line
           [ R.S "Section 6.1 — advice for "; R.C (R.text r.Population.domain);
             R.S " (";
             R.C (R.text (C.scenario_to_string r.Population.scenario));
             R.S "):" ]);
      List.iter
        (fun a ->
          add
            (R.line
               [ R.S "  [";
                 R.C
                   (R.text
                      (match a.Recommend.severity with
                      | `Must -> "MUST"
                      | `Should -> "SHOULD"));
                 R.S "] (";
                 R.C (R.text (Recommend.audience_to_string a.Recommend.audience));
                 R.S ") "; R.C (R.text a.Recommend.text) ]))
        (Recommend.server_advice rep);
      (match Recommend.corrected_chain rep with
      | Some fixed ->
          let fixed_report =
            Compliance.analyze
              ~store:(Universe.union_store analysis.pop.Population.universe)
              ~aia:(Universe.aia analysis.pop.Population.universe)
              ~domain:r.Population.domain fixed
          in
          add
            (R.line
               [ R.S "  auto-corrected chain is ";
                 R.C
                   (R.verdict
                      (Compliance.compliant fixed_report)
                      ~yes:"COMPLIANT" ~no:"still broken") ])
      | None ->
          add
            (R.line
               [ R.S "  no self-contained correction (certificates missing)" ]))
  | None -> add (R.line [ R.S "Section 6.1: no reversed instance at this scale" ]));
  (* 6.2: the capability ablation over the non-compliant corpus. *)
  let corpus =
    Array.to_list analysis.reports
    |> List.filter paper_non_compliant
    |> List.map (fun (r, _) -> (r.Population.domain, r.Population.chain))
  in
  add (R.line []);
  add
    (R.line
       [ R.S "Section 6.2 — capability ablation over the ";
         R.C (R.count (List.length corpus)); R.S " non-compliant chains" ]);
  let steps =
    Recommend.capability_ablation
      ~store:(env.Difftest.store_of Chaoschain_pki.Root_store.Mozilla)
      ~aia:env.Difftest.aia ~now:env.Difftest.now corpus
  in
  List.iter
    (fun s ->
      add
        (R.line
           [ R.S "  "; R.Cw (-34, R.text s.Recommend.label); R.S " accepts ";
             R.C (R.count s.Recommend.accepted); R.S " of ";
             R.C (R.count s.Recommend.total); R.S " (";
             R.C (R.percent ~num:s.Recommend.accepted ~den:s.Recommend.total);
             R.S ")" ]))
    steps;
  (* Prioritization ambiguity statistics (the paper's 785 / 744 / 42). *)
  let all_chains =
    Array.to_list analysis.reports
    |> List.map (fun (r, _) -> (r.Population.domain, r.Population.chain))
  in
  let stats =
    Recommend.ambiguity_statistics
      ~store:(Universe.union_store analysis.pop.Population.universe)
      all_chains
  in
  add (R.line []);
  add (R.line [ R.S "Issuer-candidate ties (same subject_DN, compatible KID):" ]);
  add
    (R.line
       [ R.S "  chains with ties: ";
         R.C (R.count stats.Recommend.chains_with_ties); R.S " (paper: 785)" ]);
  add
    (R.line
       [ R.S "  tie includes a trusted self-signed root -> prefer it: ";
         R.C (R.count stats.Recommend.tie_with_trusted_root);
         R.S " (paper: 744)" ]);
  add
    (R.line
       [ R.S "  tie between validity variants -> prefer most recent: ";
         R.C (R.count stats.Recommend.tie_validity_variants);
         R.S " (paper: 42)" ]);
  { id = "section6"; title = "Section 6"; blocks = List.rev !blocks }

let dataset_overview_of d =
  let blocks = ref [] in
  let add b = blocks := b :: !blocks in
  add (R.line [ R.S "Collection (simulated two-vantage ZGrab over TLS 1.2):" ]);
  List.iter
    (fun v ->
      add
        (R.line
           [ R.S "  vantage "; R.C (R.text v.Scanner.name); R.S ": ";
             R.C (R.count v.Scanner.reached);
             R.S " domains reached (paper: US 870,113 / AU 867,374)" ]))
    d.Scanner.vantages;
  add
    (R.line
       [ R.S "  union dataset: ";
         R.C (R.count (Array.length d.Scanner.domains)); R.S " domains, ";
         R.C (R.count d.Scanner.unique_chains); R.S " unique chains, ";
         R.C (R.count d.Scanner.unique_certs); R.S " unique certificates" ]);
  add
    (R.line
       [ R.S "  (paper: 906,336 unique chains, 861,747 unique certificates)" ]);
  add
    (R.line
       [ R.S "  TLS 1.2 vs 1.3 identical chains: ";
         R.C
           (R.cell
              (R.Cell.Float
                 { value = d.Scanner.tls12_tls13_identical_pct; digits = 1;
                   suffix = "%" })
           |> R.near ~paper:"98.8%" ~pct:98.8 ~tol:1.0);
         R.S " (paper: 98.8%)" ]);
  { id = "dataset"; title = "Section 3.1 dataset"; blocks = List.rev !blocks }

let dataset_overview analysis = dataset_overview_of analysis.dataset

let table_results v =
  let reports = Array.map (fun (_, _, rep) -> rep) v.v_items in
  [ dataset_overview_of v.v_dataset;
    table3_reports reports; table5_reports reports; table7_reports reports ]

let scan_results v = table_results v @ [ section5_2_view v ]

type experiment = Static of (unit -> result) | Measured of (analysis -> result)

let experiments =
  [ ("dataset", Measured dataset_overview);
    ("table1", Static table1); ("table2", Static table2);
    ("table3", Measured table3); ("table4", Static table4);
    ("table5", Measured table5); ("table6", Measured table6);
    ("table7", Measured table7); ("table8", Measured table8);
    ("table9", Static table9); ("table10", Measured table10);
    ("table11", Measured table11);
    ("figure1", Measured figure1); ("figure2", Measured figure2);
    ("figure3", Measured figure3); ("figure4", Measured figure4);
    ("figure5", Measured figure5); ("section5.2", Measured section5_2);
    ("section6", Measured section6) ]

let run_all analysis =
  List.map
    (fun (_, e) -> match e with Static f -> f () | Measured f -> f analysis)
    experiments
