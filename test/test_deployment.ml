open Chaoschain_x509
open Chaoschain_pki
open Chaoschain_deployment
module Prng = Chaoschain_crypto.Prng
module Keys = Chaoschain_crypto.Keys

(* --- Base64 / PEM --- *)

let base64_vectors () =
  (* RFC 4648 test vectors. *)
  List.iter
    (fun (plain, enc) ->
      Alcotest.(check string) ("encode " ^ plain) enc (Base64.encode plain);
      Alcotest.(check string) ("decode " ^ enc) plain (Result.get_ok (Base64.decode enc)))
    [ ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v"); ("foob", "Zm9vYg==");
      ("fooba", "Zm9vYmE="); ("foobar", "Zm9vYmFy") ]

let base64_errors () =
  Alcotest.(check bool) "bad length" true (Result.is_error (Base64.decode "abc"));
  Alcotest.(check bool) "bad char" true (Result.is_error (Base64.decode "ab!d"));
  (* Exact messages: callers surface them verbatim in PEM errors. *)
  Alcotest.(check string) "length message"
    "base64: length not a multiple of 4"
    (Result.fold ~ok:(fun _ -> "ok") ~error:Fun.id (Base64.decode "abcde"));
  Alcotest.(check string) "char message" "base64: invalid character '!'"
    (Result.fold ~ok:(fun _ -> "ok") ~error:Fun.id (Base64.decode "ab!d"));
  (* '=' anywhere before the final padding positions is an invalid char. *)
  Alcotest.(check bool) "all padding" true (Result.is_error (Base64.decode "===="));
  Alcotest.(check bool) "pad in first group" true
    (Result.is_error (Base64.decode "a=aaAAAA"))

(* With two padding characters the last must be '=' as well: "AB=C"
   carries data after the padding and used to decode like "AB==". *)
let base64_data_after_padding () =
  let decode s = Result.fold ~ok:(Printf.sprintf "ok %S") ~error:Fun.id (Base64.decode s) in
  Alcotest.(check string) "AB=C" "base64: invalid character 'C'" (decode "AB=C");
  Alcotest.(check string) "Zm9vYg=r" "base64: invalid character 'r'" (decode "Zm9vYg=r");
  Alcotest.(check string) "AB==" "ok \"\\000\"" (decode "AB==");
  Alcotest.(check string) "ABC=" "ok \"\\000\\016\"" (decode "ABC=");
  (* an invalid character elsewhere in the group is still the one named *)
  Alcotest.(check string) "!B=C" "base64: invalid character '!'" (decode "!B=C")

let qcheck_base64_decode_total =
  (* decode never raises: any 4k-length ASCII string yields Ok or Error. *)
  QCheck.Test.make ~name:"base64 decode is total" ~count:300
    QCheck.(string_of_size Gen.(map (fun n -> n * 4) (0 -- 50)))
    (fun s ->
      match Base64.decode s with
      | Ok _ | Error _ -> true)

let qcheck_base64 =
  QCheck.Test.make ~name:"base64 decode . encode = id" ~count:300
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s -> Base64.decode (Base64.encode s) = Ok s)

let lab = lazy (Universe.create ~seed:7L ())

let sample_chain () =
  let u = Lazy.force lab in
  let h = Universe.hierarchy u Universe.Lets_encrypt in
  let leaf = Universe.mint_leaf u Universe.Lets_encrypt ~domain:"pem.example" () in
  [ leaf.Issue.cert; h.Universe.issuing.Issue.cert ]

let pem_roundtrip () =
  let chain = sample_chain () in
  match Pem.decode_certs (Pem.encode_certs chain) with
  | Ok chain' ->
      Alcotest.(check int) "count" (List.length chain) (List.length chain');
      List.iter2
        (fun a b -> Alcotest.(check bool) "bit-identical" true (Cert.equal a b))
        chain chain'
  | Error e -> Alcotest.fail e

let pem_tolerates_headers () =
  let chain = sample_chain () in
  let noisy =
    "Subject: CN=pem.example\nIssued by robot\n" ^ Pem.encode_certs chain
    ^ "\n# trailing comment\n"
  in
  match Pem.decode_certs noisy with
  | Ok chain' -> Alcotest.(check int) "count" 2 (List.length chain')
  | Error e -> Alcotest.fail e

let pem_errors () =
  Alcotest.(check bool) "unterminated" true
    (Result.is_error (Pem.decode_certs "-----BEGIN CERTIFICATE-----\nAAAA\n"));
  Alcotest.(check bool) "garbage body" true
    (Result.is_error
       (Pem.decode_certs
          "-----BEGIN CERTIFICATE-----\n!!!\n-----END CERTIFICATE-----\n"));
  Alcotest.(check bool) "empty input gives empty list" true
    (Pem.decode_certs "" = Ok [])

(* --- CA vendor deliveries (Table 6 behaviours) --- *)

let vendor_deliveries () =
  let u = Lazy.force lab in
  let delivery v =
    let leaf = Universe.mint_leaf u v ~domain:"vendor.example" () in
    Ca_vendor.issue u v ~leaf:leaf.Issue.cert
  in
  let le = delivery Universe.Lets_encrypt in
  Alcotest.(check bool) "LE automated" true le.Ca_vendor.automated;
  Alcotest.(check bool) "LE fullchain" true (le.Ca_vendor.fullchain_file <> None);
  Alcotest.(check bool) "LE order ok" true le.Ca_vendor.bundle_order_compliant;
  let gg = delivery Universe.Gogetssl in
  Alcotest.(check bool) "GoGetSSL bundle reversed" false gg.Ca_vendor.bundle_order_compliant;
  Alcotest.(check bool) "GoGetSSL ships root" true gg.Ca_vendor.includes_root;
  Alcotest.(check bool) "GoGetSSL no guide" true (gg.Ca_vendor.install_guide = Ca_vendor.No_guide);
  (* The reversed bundle really is upside-down: first certificate is the
     self-signed root. *)
  (match Ca_vendor.bundle_certs gg with
  | Ok (first :: _) -> Alcotest.(check bool) "root first" true (Cert.is_self_signed first)
  | _ -> Alcotest.fail "bundle expected");
  let tw = delivery Universe.Taiwan_ca in
  (match Ca_vendor.bundle_certs tw with
  | Ok [ only ] ->
      Alcotest.(check bool) "TWCA ships only the issuing CA" true
        (not (Cert.is_self_signed only))
  | _ -> Alcotest.fail "TWCA bundle should hold one certificate")

(* --- HTTP server models (Table 4 behaviours) --- *)

let server_checks () =
  let u = Lazy.force lab in
  let leaf = Universe.mint_leaf u Universe.Sectigo ~domain:"http.example" () in
  let h = Universe.hierarchy u Universe.Sectigo in
  let key = Keys.public_of_private leaf.Issue.key in
  let good_sf2 =
    { Http_server.cert_file = [ leaf.Issue.cert; h.Universe.issuing.Issue.cert ];
      chain_file = []; private_key_of = key }
  in
  (match Http_server.deploy Http_server.Nginx good_sf2 with
  | Http_server.Deployed served -> Alcotest.(check int) "served 2" 2 (List.length served)
  | Http_server.Config_error e -> Alcotest.fail e);
  (* Key mismatch is caught by everyone. *)
  let other = Universe.mint_leaf u Universe.Sectigo ~domain:"other.example" () in
  let mismatched = { good_sf2 with Http_server.private_key_of = Keys.public_of_private other.Issue.key } in
  List.iter
    (fun sw ->
      match Http_server.deploy sw mismatched with
      | Http_server.Config_error _ -> ()
      | Http_server.Deployed _ ->
          Alcotest.fail (Http_server.software_to_string sw ^ " accepted a key mismatch"))
    Http_server.all;
  (* Azure and IIS reject a duplicated leaf; Apache and Nginx serve it. *)
  let dup =
    { Http_server.cert_file = [ leaf.Issue.cert; leaf.Issue.cert; h.Universe.issuing.Issue.cert ];
      chain_file = []; private_key_of = key }
  in
  (match Http_server.deploy Http_server.Azure_app_gateway dup with
  | Http_server.Config_error _ -> ()
  | Http_server.Deployed _ -> Alcotest.fail "Azure accepted duplicate leaf");
  (match Http_server.deploy Http_server.Iis dup with
  | Http_server.Config_error _ -> ()
  | Http_server.Deployed _ -> Alcotest.fail "IIS accepted duplicate leaf");
  (match Http_server.deploy Http_server.Nginx dup with
  | Http_server.Deployed served -> Alcotest.(check int) "nginx serves the dup" 3 (List.length served)
  | Http_server.Config_error e -> Alcotest.fail e);
  (* SF1 concatenation order: cert file then chain file. *)
  let sf1 =
    { Http_server.cert_file = [ leaf.Issue.cert ];
      chain_file = [ h.Universe.issuing.Issue.cert ]; private_key_of = key }
  in
  match Http_server.deploy Http_server.Apache_pre_2_4_8 sf1 with
  | Http_server.Deployed (first :: _) ->
      Alcotest.(check bool) "leaf first" true (Cert.equal first leaf.Issue.cert)
  | _ -> Alcotest.fail "apache deploy failed"

let table4_shape () =
  List.iter
    (fun sw ->
      let row = Http_server.table4_row sw in
      Alcotest.(check int)
        (Http_server.software_to_string sw ^ " row has 5 characteristics")
        5 (List.length row))
    Http_server.all

(* --- Admin operators --- *)

let admin_ops () =
  let u = Lazy.force lab in
  let leaf_signer = Universe.mint_leaf u Universe.Gogetssl ~domain:"admin.example" () in
  let delivery = Ca_vendor.issue u Universe.Gogetssl ~leaf:leaf_signer.Issue.cert in
  let assemble ops =
    match Admin.assemble u delivery ~leaf_signer ~ops with
    | Ok o -> o.Admin.chain
    | Error e -> Alcotest.fail e
  in
  let naive = assemble [ Admin.Merge_naive ] in
  Alcotest.(check bool) "naive keeps root right after leaf" true
    (Cert.is_self_signed (List.nth naive 1));
  let corrected = assemble [ Admin.Merge_corrected ] in
  Alcotest.(check bool) "corrected puts issuer after leaf" true
    (Relation.issued ~issuer:(List.nth corrected 1) ~child:(List.hd corrected));
  let doubled = assemble [ Admin.Merge_corrected; Admin.Leaf_into_chain_file ] in
  Alcotest.(check bool) "leaf duplicated" true
    (List.length (List.filter (Cert.equal leaf_signer.Issue.cert) doubled) = 2);
  let stale = assemble [ Admin.Merge_corrected; Admin.Keep_stale_leaves 3 ] in
  Alcotest.(check int) "three extras" (List.length corrected + 3) (List.length stale);
  let leaf_only = assemble [ Admin.Serve_leaf_only ] in
  Alcotest.(check int) "leaf only" 1 (List.length leaf_only);
  let pasted = assemble [ Admin.Merge_corrected; Admin.Duplicate_paste 2 ] in
  Alcotest.(check bool) "pasting grows the chain" true
    (List.length pasted > List.length corrected);
  let dropped = assemble [ Admin.Merge_corrected; Admin.Drop_intermediate 0 ] in
  Alcotest.(check int) "one fewer" (List.length corrected - 1) (List.length dropped)

let suite =
  [ Alcotest.test_case "base64 vectors" `Quick base64_vectors;
    Alcotest.test_case "base64 errors" `Quick base64_errors;
    QCheck_alcotest.to_alcotest qcheck_base64;
    QCheck_alcotest.to_alcotest qcheck_base64_decode_total;
    Alcotest.test_case "pem roundtrip" `Quick pem_roundtrip;
    Alcotest.test_case "pem tolerates headers" `Quick pem_tolerates_headers;
    Alcotest.test_case "pem errors" `Quick pem_errors;
    Alcotest.test_case "vendor deliveries" `Quick vendor_deliveries;
    Alcotest.test_case "server checks" `Quick server_checks;
    Alcotest.test_case "table 4 rows" `Quick table4_shape;
    Alcotest.test_case "admin operators" `Quick admin_ops;
    Alcotest.test_case "base64 data after padding" `Quick base64_data_after_padding ]
