open Chaoschain_x509
open Chaoschain_pki
module Prng = Chaoschain_crypto.Prng

let mk_root label =
  Issue.self_signed (Prng.of_label label)
    (Issue.spec ~is_ca:true (Dn.make ~o:"Store" ~cn:label ()))

let root_store_lookups () =
  let a = mk_root "store-a" and b = mk_root "store-b" in
  let store = Root_store.make "test" [ a.Issue.cert; b.Issue.cert ] in
  Alcotest.(check int) "size" 2 (Root_store.size store);
  Alcotest.(check bool) "mem a" true (Root_store.mem store a.Issue.cert);
  Alcotest.(check bool) "not mem other" false
    (Root_store.mem store (mk_root "store-c").Issue.cert);
  (match Cert.subject_key_id a.Issue.cert with
  | Some skid ->
      Alcotest.(check bool) "skid lookup" true (Root_store.mem_skid store skid);
      Alcotest.(check int) "find by skid" 1 (List.length (Root_store.find_by_skid store skid))
  | None -> Alcotest.fail "root must carry SKID");
  Alcotest.(check bool) "skid miss" false (Root_store.mem_skid store (String.make 20 'z'));
  let leaf =
    Issue.issue_cert (Prng.of_label "store-leaf") ~parent:a
      (Issue.spec (Dn.make ~cn:"s.example" ()))
  in
  Alcotest.(check int) "issuer candidates" 1
    (List.length (Root_store.issuer_candidates store leaf))

let root_store_union_dedup () =
  let a = mk_root "union-a" and b = mk_root "union-b" in
  let s1 = Root_store.make "s1" [ a.Issue.cert; b.Issue.cert ] in
  let s2 = Root_store.make "s2" [ b.Issue.cert ] in
  let u = Root_store.union "u" [ s1; s2 ] in
  Alcotest.(check int) "deduplicated" 2 (Root_store.size u)

let aia_repo_behaviour () =
  let repo = Aia_repo.create () in
  let root = mk_root "aia-root" in
  Aia_repo.publish repo ~uri:"http://x/root.crt" root.Issue.cert;
  (match Aia_repo.fetch repo "http://x/root.crt" with
  | Aia_repo.Served c -> Alcotest.(check bool) "served" true (Cert.equal c root.Issue.cert)
  | _ -> Alcotest.fail "expected Served");
  Alcotest.(check bool) "unknown is 404" true
    (Aia_repo.fetch repo "http://x/none.crt" = Aia_repo.Http_not_found);
  Aia_repo.inject_failure repo ~uri:"http://x/hang.crt" `Timeout;
  Alcotest.(check bool) "timeout" true (Aia_repo.fetch repo "http://x/hang.crt" = Aia_repo.Timeout);
  Alcotest.(check int) "fetch counter" 3 (Aia_repo.fetch_count repo);
  Alcotest.(check int) "per-uri counter" 1 (Aia_repo.fetch_count_for repo "http://x/hang.crt");
  Aia_repo.reset_counters repo;
  Alcotest.(check int) "reset" 0 (Aia_repo.fetch_count repo)

let aia_chase_success_and_failures () =
  let rng = Prng.of_label "chase" in
  let repo = Aia_repo.create () in
  let root = Issue.self_signed rng (Issue.spec ~is_ca:true (Dn.make ~cn:"CR" ())) in
  let i2 =
    Issue.issue rng ~parent:root
      (Issue.spec ~is_ca:true ~aia_ca_issuers:[ "http://c/root.crt" ] (Dn.make ~cn:"CI2" ()))
  in
  let i1 =
    Issue.issue rng ~parent:i2
      (Issue.spec ~is_ca:true ~aia_ca_issuers:[ "http://c/i2.crt" ] (Dn.make ~cn:"CI1" ()))
  in
  let leaf =
    Issue.issue rng ~parent:i1
      (Issue.spec ~aia_ca_issuers:[ "http://c/i1.crt" ] (Dn.make ~cn:"c.example" ()))
  in
  Aia_repo.publish repo ~uri:"http://c/root.crt" root.Issue.cert;
  Aia_repo.publish repo ~uri:"http://c/i2.crt" i2.Issue.cert;
  Aia_repo.publish repo ~uri:"http://c/i1.crt" i1.Issue.cert;
  (match Aia_repo.chase repo leaf.Issue.cert with
  | Ok downloaded -> Alcotest.(check int) "three hops" 3 (List.length downloaded)
  | Error e -> Alcotest.fail e);
  (* The CAcert self-reference: a URI serving the certificate itself. *)
  let selfref =
    Issue.issue rng ~parent:root
      (Issue.spec ~is_ca:true ~aia_ca_issuers:[ "http://c/self.crt" ] (Dn.make ~cn:"Self" ()))
  in
  Aia_repo.publish repo ~uri:"http://c/self.crt" selfref.Issue.cert;
  (match Aia_repo.chase repo selfref.Issue.cert with
  | Error msg ->
      Alcotest.(check bool) "self-reference detected" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "self-referencing chase must fail");
  (* Missing AIA. *)
  let bare = Issue.issue rng ~parent:root (Issue.spec ~is_ca:true (Dn.make ~cn:"Bare" ())) in
  Alcotest.(check bool) "no caIssuers" true (Result.is_error (Aia_repo.chase repo bare.Issue.cert));
  (* A URI serving a non-issuer. *)
  let stranger = mk_root "chase-stranger" in
  let wrong =
    Issue.issue rng ~parent:root
      (Issue.spec ~is_ca:true ~aia_ca_issuers:[ "http://c/wrong.crt" ] (Dn.make ~cn:"W" ()))
  in
  Aia_repo.publish repo ~uri:"http://c/wrong.crt" stranger.Issue.cert;
  Alcotest.(check bool) "non-issuer rejected" true
    (Result.is_error (Aia_repo.chase repo wrong.Issue.cert))

let universe_hierarchies_sound () =
  let u = Universe.create () in
  let vendors =
    Universe.named_vendors
    @ List.init Universe.other_ca_count (fun i -> Universe.Other_ca i)
  in
  List.iter
    (fun v ->
      let h = Universe.hierarchy u v in
      let leaf = Universe.mint_leaf u v ~domain:"probe.example" () in
      Alcotest.(check bool)
        (Universe.vendor_to_string v ^ " issuing signed leaf")
        true
        (Relation.issued ~issuer:h.Universe.issuing.Issue.cert ~child:leaf.Issue.cert);
      let root = List.find Cert.is_self_signed (List.rev h.Universe.above) in
      Alcotest.(check bool)
        (Universe.vendor_to_string v ^ " root in union store")
        true
        (Root_store.mem (Universe.union_store u) root))
    vendors

let universe_deep_hierarchies () =
  let u = Universe.create () in
  let check v levels expected_inters =
    let h = if levels = 2 then Universe.hierarchy_deep u v else Universe.hierarchy_deep4 u v in
    let inters =
      h.Universe.issuing.Issue.cert
      :: List.filter (fun c -> not (Cert.is_self_signed c)) h.Universe.above
    in
    Alcotest.(check int)
      (Printf.sprintf "%s deep%d intermediates" (Universe.vendor_to_string v) levels)
      expected_inters (List.length inters);
    (* The whole chain is AIA-chaseable from the issuing CA. *)
    match Aia_repo.chase (Universe.aia u) h.Universe.issuing.Issue.cert with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  check Universe.Lets_encrypt 2 2;
  check Universe.Digicert 4 4;
  check (Universe.Other_ca 0) 2 2

let universe_restricted_membership () =
  let u = Universe.create () in
  let r = Universe.restricted_mc_dead_end u in
  Alcotest.(check bool) "absent from Mozilla" false
    (Root_store.mem (Universe.store u Root_store.Mozilla) r.Universe.r_root);
  Alcotest.(check bool) "absent from Chrome" false
    (Root_store.mem (Universe.store u Root_store.Chrome) r.Universe.r_root);
  Alcotest.(check bool) "present in Microsoft" true
    (Root_store.mem (Universe.store u Root_store.Microsoft) r.Universe.r_root);
  Alcotest.(check bool) "present in Apple" true
    (Root_store.mem (Universe.store u Root_store.Apple) r.Universe.r_root);
  Alcotest.(check bool) "present in union" true
    (Root_store.mem (Universe.union_store u) r.Universe.r_root);
  let m = Universe.restricted_ms_recoverable u in
  Alcotest.(check bool) "ms-restricted absent from Microsoft" false
    (Root_store.mem (Universe.store u Root_store.Microsoft) m.Universe.r_root)

let universe_special_constructs () =
  let u = Universe.create () in
  let self = Universe.sectigo_usertrust_self u in
  let cross = Universe.sectigo_usertrust_cross u in
  Alcotest.(check bool) "cross shares subject" true
    (Dn.equal (Cert.subject self) (Cert.subject cross));
  Alcotest.(check bool) "cross shares skid" true
    (Cert.subject_key_id self = Cert.subject_key_id cross);
  Alcotest.(check bool) "self is self-signed" true (Cert.is_self_signed self);
  Alcotest.(check bool) "cross is not" false (Cert.is_self_signed cross);
  let expired = Universe.sectigo_usertrust_cross_expired u in
  Alcotest.(check bool) "expired cross in past" true
    Vtime.(Cert.not_after expired < Universe.now u);
  (* Figure 5 pair: same subject and key, different validity. *)
  let a = Universe.digicert_ca1_recent u and b = Universe.digicert_ca1_old u in
  Alcotest.(check bool) "fig5 same subject" true (Dn.equal (Cert.subject a) (Cert.subject b));
  Alcotest.(check bool) "fig5 recent starts later" true
    Vtime.(Cert.not_before b < Cert.not_before a);
  (* Hidden root trusted nowhere. *)
  let hidden = (Universe.gov_hidden_root u).Issue.cert in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("hidden root absent from " ^ Root_store.program_to_string p)
        false
        (Root_store.mem (Universe.store u p) hidden))
    Root_store.all_programs;
  (* CAcert class3's AIA serves itself. *)
  let class3 = Universe.cacert_class3 u in
  (match Cert.aia_ca_issuers class3 with
  | [ uri ] -> (
      match Aia_repo.fetch (Universe.aia u) uri with
      | Aia_repo.Served c -> Alcotest.(check bool) "serves itself" true (Cert.equal c class3)
      | _ -> Alcotest.fail "expected the certificate itself")
  | _ -> Alcotest.fail "class3 must have exactly one caIssuers URI")

let universe_cross_pairs () =
  let u = Universe.create () in
  List.iter
    (fun v ->
      match Universe.cross_pair u v with
      | None -> Alcotest.fail (Universe.vendor_to_string v ^ " should have a cross pair")
      | Some (self, cross) ->
          Alcotest.(check bool)
            (Universe.vendor_to_string v ^ " pair coherent")
            true
            (Dn.equal (Cert.subject self) (Cert.subject cross)
            && Cert.is_self_signed self
            && not (Cert.is_self_signed cross)))
    [ Universe.Lets_encrypt; Universe.Digicert; Universe.Sectigo; Universe.Gogetssl ];
  Alcotest.(check bool) "taiwan has no cross pair" true
    (Universe.cross_pair u Universe.Taiwan_ca = None)

let universe_deterministic () =
  let a = Universe.create ~seed:99L () and b = Universe.create ~seed:99L () in
  Alcotest.(check bool) "same seed, same certs" true
    (Cert.equal (Universe.sectigo_usertrust_self a) (Universe.sectigo_usertrust_self b));
  let c = Universe.create ~seed:100L () in
  Alcotest.(check bool) "different seed differs" false
    (Cert.equal (Universe.sectigo_usertrust_self a) (Universe.sectigo_usertrust_self c))

(* --- certificate intern table --- *)

let intern_chain () =
  let root = mk_root "intern-root" in
  let leaf =
    Issue.issue_cert (Prng.of_label "intern-leaf") ~parent:root
      (Issue.spec (Dn.make ~cn:"intern.example" ()))
  in
  [ leaf; root.Issue.cert ]

let intern_shares_physically () =
  Intern.clear ();
  let der = Cert.to_der (List.hd (intern_chain ())) in
  let a = Result.get_ok (Intern.cert_of_der der) in
  let b = Result.get_ok (Intern.cert_of_der der) in
  Alcotest.(check bool) "same physical value" true (a == b);
  let s = Intern.stats () in
  Alcotest.(check int) "one entry" 1 s.Intern.entries;
  Alcotest.(check int) "two lookups" 2 s.Intern.lookups;
  Alcotest.(check int) "one hit" 1 s.Intern.hits

let intern_sub_window () =
  Intern.clear ();
  let der = Cert.to_der (List.hd (intern_chain ())) in
  let framed = "\x00\x01\x02" ^ der ^ "trailer" in
  let a = Result.get_ok (Intern.cert_of_der der) in
  let b = Result.get_ok (Intern.cert_of_sub framed ~off:3 ~len:(String.length der)) in
  Alcotest.(check bool) "window hit shares" true (a == b);
  Alcotest.check_raises "bad window" (Invalid_argument "Intern.cert_of_sub")
    (fun () -> ignore (Intern.cert_of_sub framed ~off:3 ~len:(String.length framed)))

let intern_disabled_parses_fresh () =
  Intern.clear ();
  let der = Cert.to_der (List.hd (intern_chain ())) in
  Intern.set_enabled false;
  Fun.protect ~finally:(fun () -> Intern.set_enabled true) (fun () ->
      let a = Result.get_ok (Intern.cert_of_der der) in
      let b = Result.get_ok (Intern.cert_of_der der) in
      Alcotest.(check bool) "not shared when disabled" true (not (a == b));
      Alcotest.(check bool) "still equal" true (Cert.equal a b);
      Alcotest.(check int) "no entries" 0 (Intern.stats ()).Intern.entries)

let intern_byte_identity () =
  (* The interned value is byte-for-byte the value a fresh parse produces. *)
  Intern.clear ();
  List.iter
    (fun c ->
      let der = Cert.to_der c in
      let interned = Result.get_ok (Intern.cert_of_der der) in
      let fresh = Result.get_ok (Cert.of_der der) in
      Alcotest.(check bool) "raw equal" true (Cert.equal interned fresh);
      Alcotest.(check bool) "fp equal" true
        (Cert.fingerprint interned = Cert.fingerprint fresh);
      Alcotest.(check bool) "tbs equal" true
        (Cert.tbs_der interned = Cert.tbs_der fresh))
    (intern_chain ())

let intern_errors_not_cached () =
  Intern.clear ();
  Alcotest.(check bool) "malformed errors" true
    (Result.is_error (Intern.cert_of_der "not a certificate"));
  Alcotest.(check int) "no entry for failure" 0 (Intern.stats ()).Intern.entries

let intern_domain_hammer () =
  (* Domains racing on the same certificates all end up sharing one value
     per distinct DER. *)
  Intern.clear ();
  let ders = List.map Cert.to_der (intern_chain ()) in
  let worker () =
    Domain.spawn (fun () ->
        List.init 200 (fun i ->
            let der = List.nth ders (i mod List.length ders) in
            Result.get_ok (Intern.cert_of_der der)))
  in
  let results = List.map Domain.join (List.map worker [ (); (); (); () ]) in
  let canon = List.map (fun der -> Result.get_ok (Intern.cert_of_der der)) ders in
  List.iter
    (fun per_domain ->
      List.iteri
        (fun i c ->
          Alcotest.(check bool) "shared across Domains" true
            (c == List.nth canon (i mod List.length canon)))
        per_domain)
    results;
  Alcotest.(check int) "two entries" 2 (Intern.stats ()).Intern.entries

(* Keyed by the DER bytes: a certificate one byte away from an interned one
   is its own entry, never the interned value. *)
let intern_one_byte_apart () =
  Intern.clear ();
  let der = Cert.to_der (List.hd (intern_chain ())) in
  let a = Result.get_ok (Intern.cert_of_der der) in
  (* the last byte sits in the signature, so the variant still parses *)
  let last = String.length der - 1 in
  let der' =
    String.mapi (fun i c -> if i = last then Char.chr (Char.code c lxor 1) else c) der
  in
  let b = Result.get_ok (Intern.cert_of_der der') in
  Alcotest.(check bool) "not aliased" false (a == b);
  Alcotest.(check string) "its own bytes" der' (Cert.to_der b);
  let framed = "xy" ^ der' in
  let c = Result.get_ok (Intern.cert_of_sub framed ~off:2 ~len:(String.length der')) in
  Alcotest.(check bool) "window finds the variant" true (c == b);
  Alcotest.(check bool) "original still shared" true
    (Result.get_ok (Intern.cert_of_der der) == a);
  Alcotest.(check int) "two entries" 2 (Intern.stats ()).Intern.entries

let intern_stats_counts () =
  Intern.clear ();
  let ders = List.map Cert.to_der (intern_chain ()) in
  let der = List.hd ders in
  ignore (Intern.cert_of_der der);                                (* miss *)
  ignore (Intern.cert_of_sub ("..." ^ der) ~off:3 ~len:(String.length der));
                                                                  (* hit *)
  ignore (Intern.cert_of_der (List.nth ders 1));                  (* miss *)
  ignore (Intern.cert_of_der "not a certificate");         (* failed miss *)
  ignore (Intern.cert_of_der der);                                (* hit *)
  let s = Intern.stats () in
  Alcotest.(check int) "entries" 2 s.Intern.entries;
  Alcotest.(check int) "lookups" 5 s.Intern.lookups;
  Alcotest.(check int) "hits" 2 s.Intern.hits

(* A hit neither copies the window nor fingerprints it: its allocation is a
   few words, far below the window's own size. *)
let intern_hit_allocates_little () =
  Intern.clear ();
  let der = Cert.to_der (List.hd (intern_chain ())) in
  let framed = "\x00\x01\x02" ^ der in
  let len = String.length der in
  ignore (Intern.cert_of_sub framed ~off:3 ~len);
  let calls = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Intern.cert_of_sub framed ~off:3 ~len))
  done;
  let per_hit = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per hit on a %d-byte window" per_hit len)
    true
    (per_hit < 32.0 && 32 * 8 < len)

let suite =
  [ Alcotest.test_case "root store lookups" `Quick root_store_lookups;
    Alcotest.test_case "intern shares physically" `Quick intern_shares_physically;
    Alcotest.test_case "intern window lookup" `Quick intern_sub_window;
    Alcotest.test_case "intern disabled" `Quick intern_disabled_parses_fresh;
    Alcotest.test_case "intern byte-identity" `Quick intern_byte_identity;
    Alcotest.test_case "intern errors not cached" `Quick intern_errors_not_cached;
    Alcotest.test_case "intern Domain hammer" `Quick intern_domain_hammer;
    Alcotest.test_case "intern one byte apart" `Quick intern_one_byte_apart;
    Alcotest.test_case "intern stats counts" `Quick intern_stats_counts;
    Alcotest.test_case "intern hit allocates little" `Quick
      intern_hit_allocates_little;
    Alcotest.test_case "root store union dedup" `Quick root_store_union_dedup;
    Alcotest.test_case "aia repo behaviour" `Quick aia_repo_behaviour;
    Alcotest.test_case "aia chase" `Quick aia_chase_success_and_failures;
    Alcotest.test_case "universe hierarchies sound" `Slow universe_hierarchies_sound;
    Alcotest.test_case "universe deep hierarchies" `Slow universe_deep_hierarchies;
    Alcotest.test_case "restricted store membership" `Quick universe_restricted_membership;
    Alcotest.test_case "special constructs" `Quick universe_special_constructs;
    Alcotest.test_case "cross pairs" `Quick universe_cross_pairs;
    Alcotest.test_case "universe deterministic" `Quick universe_deterministic ]
