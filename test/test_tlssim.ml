open Chaoschain_x509
open Chaoschain_pki
open Chaoschain_core
open Chaoschain_tlssim

let lab = lazy (Universe.create ~seed:11L ())

let sample_chain n =
  let u = Lazy.force lab in
  let h = Universe.hierarchy u Universe.Digicert in
  let leaf = Universe.mint_leaf u Universe.Digicert ~domain:"tls.example" () in
  let base = [ leaf.Issue.cert; h.Universe.issuing.Issue.cert ] in
  let rec pad k acc = if k = 0 then acc else pad (k - 1) (acc @ [ h.Universe.issuing.Issue.cert ]) in
  pad (max 0 (n - 2)) base

let certmsg_tls12_roundtrip () =
  let chain = sample_chain 3 in
  match
    Certmsg.decode Certmsg.Tls12
      (Certmsg.encode (Certmsg.of_certs Certmsg.Tls12 chain))
  with
  | Ok msg ->
      let chain' = Certmsg.certs msg in
      Alcotest.(check int) "count" 3 (List.length chain');
      List.iter2 (fun a b -> Alcotest.(check bool) "identical" true (Cert.equal a b)) chain chain'
  | Error e -> Alcotest.fail e

let certmsg_tls13_roundtrip () =
  let chain = sample_chain 2 in
  match
    Certmsg.decode Certmsg.Tls13
      (Certmsg.encode (Certmsg.of_certs ~context:"ctx!" Certmsg.Tls13 chain))
  with
  | Ok msg ->
      Alcotest.(check string) "context" "ctx!" msg.Certmsg.context;
      Alcotest.(check int) "count" 2 (List.length (Certmsg.certs msg))
  | Error e -> Alcotest.fail e

let certmsg_empty_list () =
  (match
     Certmsg.decode Certmsg.Tls12
       (Certmsg.encode (Certmsg.of_certs Certmsg.Tls12 []))
   with
  | Ok msg when Certmsg.certs msg = [] -> ()
  | _ -> Alcotest.fail "empty list must round-trip (1.2)");
  (* Typed API, both framings: a zero-entry message is legal wire. *)
  List.iter
    (fun fmt ->
      let msg = Certmsg.of_certs fmt [] in
      match Certmsg.decode fmt (Certmsg.encode msg) with
      | Ok msg' ->
          Alcotest.(check bool) "zero entries round-trip" true
            (Certmsg.equal msg msg')
      | Error e -> Alcotest.fail e)
    [ Certmsg.Tls12; Certmsg.Tls13 ]

let certmsg_tls13_extensions_surfaced () =
  (* Non-empty per-entry extension blocks must come back as data, not be
     skipped. *)
  let chain = sample_chain 2 in
  let entries =
    List.mapi
      (fun i c ->
        Certmsg.entry ~extensions:[ (5 + i, "status" ^ string_of_int i); (0x12, "") ] c)
      chain
  in
  let msg = { Certmsg.context = "ctx"; entries; format = Certmsg.Tls13 } in
  match Certmsg.decode Certmsg.Tls13 (Certmsg.encode msg) with
  | Ok msg' ->
      Alcotest.(check bool) "extensions survive the wire" true
        (Certmsg.equal msg msg');
      Alcotest.(check bool) "not classic" false (Certmsg.is_classic msg')
  | Error e -> Alcotest.fail e

let certmsg_tls13_malformed_extensions () =
  let chain = sample_chain 1 in
  let wire =
    Certmsg.encode (Certmsg.of_certs Certmsg.Tls13 chain)
  in
  (* The message ends with the single entry's 16-bit extension-block length
     (0x0000). Claiming bytes past the end of the message must be an Error,
     never a silent truncation. *)
  let n = String.length wire in
  let overrun = Bytes.of_string wire in
  Bytes.set overrun (n - 1) '\x05';
  Alcotest.(check bool) "extension block overrun rejected" true
    (Result.is_error (Certmsg.decode Certmsg.Tls13 (Bytes.to_string overrun)));
  (* An extension item whose own length field overruns its block. *)
  let with_ext =
    Certmsg.encode
      { Certmsg.context = "";
        entries =
          [ Certmsg.entry ~extensions:[ (1, "") ] (List.hd chain) ];
        format = Certmsg.Tls13 }
  in
  let m = String.length with_ext in
  (* ... block is [0004 | type=0001 len=0000]; bump the item length. *)
  let bad_item = Bytes.of_string with_ext in
  Bytes.set bad_item (m - 1) '\x09';
  Alcotest.(check bool) "extension item overrun rejected" true
    (Result.is_error (Certmsg.decode Certmsg.Tls13 (Bytes.to_string bad_item)))

let certmsg_encode_guards () =
  let chain = sample_chain 1 in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "1.2 context rejected" true
    (raises (fun () -> Certmsg.of_certs ~context:"x" Certmsg.Tls12 chain));
  Alcotest.(check bool) "1.2 extensions rejected" true
    (raises (fun () ->
         Certmsg.encode
           { Certmsg.context = "";
             entries = [ Certmsg.entry ~extensions:[ (1, "d") ] (List.hd chain) ];
             format = Certmsg.Tls12 }));
  Alcotest.(check bool) "oversized context rejected" true
    (raises (fun () ->
         Certmsg.encode
           (Certmsg.of_certs ~context:(String.make 256 'c') Certmsg.Tls13 chain)));
  Alcotest.(check bool) "oversized extension block rejected" true
    (raises (fun () ->
         Certmsg.encode
           { Certmsg.context = "";
             entries =
               [ Certmsg.entry ~extensions:[ (1, String.make 0x1_0000 'x') ]
                   (List.hd chain) ];
             format = Certmsg.Tls13 }))

let certmsg_u24_boundary () =
  (* Maximum-size 24-bit length claims: a 2^24-1-byte outer vector is walked
     without crashing (the garbage entry fails DER parsing), and length
     fields that claim more than the message holds are errors. *)
  let full = "\xff\xff\xff" ^ String.make 0xFF_FFFF 'A' in
  Alcotest.(check bool) "16MB outer vector handled" true
    (Result.is_error (Certmsg.decode Certmsg.Tls12 full));
  let claims_more = "\xff\xff\xff" ^ String.make 1024 'A' in
  Alcotest.(check bool) "outer overrun rejected" true
    (Result.is_error (Certmsg.decode Certmsg.Tls12 claims_more));
  let entry_overrun = "\x00\x00\x06\xff\xff\xff\x41\x41\x41" in
  Alcotest.(check bool) "entry overrun rejected" true
    (Result.is_error (Certmsg.decode Certmsg.Tls12 entry_overrun));
  (* Same claims under the 1.3 framing (context prefix first). *)
  Alcotest.(check bool) "1.3 outer overrun rejected" true
    (Result.is_error (Certmsg.decode Certmsg.Tls13 ("\x00" ^ claims_more)))

let certmsg_trailing_garbage () =
  List.iter
    (fun fmt ->
      let wire = Certmsg.encode (Certmsg.of_certs fmt (sample_chain 2)) in
      Alcotest.(check bool) "trailing garbage rejected" true
        (Result.is_error (Certmsg.decode fmt (wire ^ "\x00"))))
    [ Certmsg.Tls12; Certmsg.Tls13 ]

let certmsg_fuzz_seeds () =
  (* The committed corpus of mangled messages: every seed must decode to Ok
     or Error under both framings — never raise. *)
  let path =
    List.find Sys.file_exists
      [ "golden/certmsg_fuzz.seeds"; "test/golden/certmsg_fuzz.seeds" ]
  in
  let seeds =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check bool) "seed corpus non-trivial" true (List.length seeds >= 20);
  List.iter
    (fun line ->
      let raw = Chaoschain_crypto.Hex.decode_exn line in
      List.iter
        (fun fmt ->
          match Certmsg.decode fmt raw with
          | Ok _ | Error _ -> ()
          | exception e ->
              Alcotest.fail
                (Printf.sprintf "seed %s raised %s" line (Printexc.to_string e)))
        [ Certmsg.Tls12; Certmsg.Tls13 ];
      match Certmsg.decode_auto raw with
      | Ok _ | Error _ -> ()
      | exception e ->
          Alcotest.fail
            (Printf.sprintf "seed %s (auto) raised %s" line
               (Printexc.to_string e)))
    seeds

let certmsg_errors () =
  let good = Certmsg.encode (Certmsg.of_certs Certmsg.Tls12 (sample_chain 2)) in
  let decode12 = Certmsg.decode Certmsg.Tls12 in
  let truncated = String.sub good 0 (String.length good - 5) in
  Alcotest.(check bool) "truncated rejected" true
    (Result.is_error (decode12 truncated));
  Alcotest.(check bool) "garbage appended rejected" true
    (Result.is_error (decode12 (good ^ "xx")));
  Alcotest.(check bool) "empty input rejected" true
    (Result.is_error (decode12 ""))

let env () =
  let u = Lazy.force lab in
  { Difftest.store_of = (fun p -> Universe.store u p);
    aia = Universe.aia u;
    firefox_cache = [];
    os_store = [];
    now = Universe.now u }

let handshake_outcomes () =
  let chain = sample_chain 2 in
  let srv = Handshake.server ~name:"tls.example" ~chain in
  let e = env () in
  let t = Handshake.connect e ~client:(Clients.by_id Clients.Chrome) srv in
  Alcotest.(check bool) "chrome connects" true
    (t.Handshake.client_outcome = Handshake.Connection_established);
  Alcotest.(check bool) "message non-empty" true (t.Handshake.certificate_msg_bytes > 100);
  (* A broken chain: browsers warn, libraries refuse. *)
  let broken = [ List.hd chain ] in
  let bad_srv = Handshake.server ~name:"tls.example" ~chain:broken in
  (match (Handshake.connect e ~client:(Clients.by_id Clients.Openssl) bad_srv).Handshake.client_outcome with
  | Handshake.Connection_refused _ -> ()
  | _ -> Alcotest.fail "library should refuse");
  match (Handshake.connect e ~client:(Clients.by_id Clients.Firefox) bad_srv).Handshake.client_outcome with
  | Handshake.Warning_page _ -> ()
  | _ -> Alcotest.fail "browser should warn"

let handshake_both_versions_agree () =
  let chain = sample_chain 2 in
  let srv = Handshake.server ~name:"tls.example" ~chain in
  let e = env () in
  let t12 = Handshake.connect e ~client:(Clients.by_id Clients.Safari) ~version:Handshake.Tls12 srv in
  let t13 = Handshake.connect e ~client:(Clients.by_id Clients.Safari) ~version:Handshake.Tls13 srv in
  Alcotest.(check bool) "same verdict across versions" true
    (t12.Handshake.client_outcome = t13.Handshake.client_outcome)

let availability_impact_shape () =
  let srv = Handshake.server ~name:"tls.example" ~chain:(sample_chain 2) in
  Alcotest.(check int) "eight clients" 8
    (List.length (Handshake.availability_impact (env ()) srv))

let expect_refused name (t : Handshake.transcript) =
  (match t.Handshake.client_outcome with
  | Handshake.Connection_refused _ -> ()
  | o -> Alcotest.fail (name ^ ": expected refusal, got " ^ Handshake.outcome_to_string o));
  Alcotest.(check int) (name ^ ": no certificate message") 0
    t.Handshake.certificate_msg_bytes;
  Alcotest.(check bool) (name ^ ": no engine run") true (t.Handshake.engine = None)

let handshake_refusals () =
  let chain = sample_chain 2 in
  let e = env () in
  (* Server pinned to 1.3: an explicit 1.2 request is refused pre-Certificate,
     for libraries and browsers alike (protocol alert, not a cert warning). *)
  let srv13 =
    { (Handshake.server ~name:"tls.example" ~chain) with
      Handshake.supports = [ Handshake.Tls13 ] }
  in
  expect_refused "library, server-excluded version"
    (Handshake.connect e ~client:(Clients.by_id Clients.Openssl)
       ~version:Handshake.Tls12 srv13);
  expect_refused "browser, server-excluded version"
    (Handshake.connect e ~client:(Clients.by_id Clients.Chrome)
       ~version:Handshake.Tls12 srv13);
  (* A legacy client profile that only implements the 1.2 framing: an
     explicit 1.3 request is refused, and auto-negotiation against the
     1.3-only server finds no version in common. *)
  let legacy =
    { (Clients.by_id Clients.Openssl) with
      Clients.supported_formats = [ Clients.Tls12 ] }
  in
  let srv = Handshake.server ~name:"tls.example" ~chain in
  expect_refused "client missing 1.3 framing"
    (Handshake.connect e ~client:legacy ~version:Handshake.Tls13 srv);
  expect_refused "no version in common"
    (Handshake.connect e ~client:legacy srv13);
  (* Negotiation still lands the legacy client on 1.2 against a dual server,
     and prefers 1.3 for a full client. *)
  let t = Handshake.connect e ~client:legacy srv in
  Alcotest.(check bool) "legacy negotiates 1.2" true
    (t.Handshake.version = Handshake.Tls12
    && t.Handshake.format = Certmsg.Tls12
    && t.Handshake.engine <> None);
  let t13 = Handshake.connect e ~client:(Clients.by_id Clients.Openssl) srv in
  Alcotest.(check bool) "full client negotiates 1.3" true
    (t13.Handshake.version = Handshake.Tls13
    && t13.Handshake.format = Certmsg.Tls13)

let qcheck_certmsg =
  QCheck.Test.make ~name:"certificate message roundtrip at any width" ~count:15
    QCheck.(int_range 1 8)
    (fun n ->
      let chain = sample_chain n in
      match
        Certmsg.decode Certmsg.Tls12
          (Certmsg.encode (Certmsg.of_certs Certmsg.Tls12 chain))
      with
      | Ok msg -> List.length (Certmsg.certs msg) = List.length chain
      | Error _ -> false)

(* The mitls codec lemmas, pinned as executable properties. *)

let ext_gen =
  (* per-entry extension lists: small, arbitrary 16-bit types, short opaque
     payloads (the codec is agnostic to extension semantics) *)
  QCheck.(
    list_of_size Gen.(0 -- 3)
      (pair (int_range 0 0xFFFF) (string_of_size Gen.(0 -- 8))))

let qcheck_ir_roundtrip =
  QCheck.Test.make
    ~name:"typed round-trip in both formats (decode (encode m) = m)" ~count:30
    QCheck.(triple (int_range 1 5) ext_gen bool)
    (fun (n, exts, use13) ->
      let chain = sample_chain n in
      let msg =
        if use13 then
          { Certmsg.context = "rt";
            entries = List.map (Certmsg.entry ~extensions:exts) chain;
            format = Certmsg.Tls13 }
        else Certmsg.of_certs Certmsg.Tls12 chain
      in
      match Certmsg.decode msg.Certmsg.format (Certmsg.encode msg) with
      | Ok msg' -> Certmsg.equal msg msg'
      | Error _ -> false)

let qcheck_injective =
  QCheck.Test.make
    ~name:"encoding injective per format (m <> m' => bytes differ)" ~count:20
    QCheck.(triple (int_range 1 5) (int_range 1 5) bool)
    (fun (n, m, use13) ->
      let fmt = if use13 then Certmsg.Tls13 else Certmsg.Tls12 in
      let a = Certmsg.of_certs fmt (sample_chain n)
      and b = Certmsg.of_certs fmt (sample_chain m) in
      Certmsg.equal a b || Certmsg.encode a <> Certmsg.encode b)

let qcheck_context_injective =
  QCheck.Test.make
    ~name:"1.3 context participates in injectivity" ~count:15
    QCheck.(
      pair (string_of_size Gen.(0 -- 8)) (string_of_size Gen.(0 -- 8)))
    (fun (c1, c2) ->
      let chain = sample_chain 1 in
      let enc c = Certmsg.encode (Certmsg.of_certs ~context:c Certmsg.Tls13 chain) in
      c1 = c2 || enc c1 <> enc c2)

let qcheck_non_confusable =
  (* For realistic message sizes the two framings cannot be mistaken for
     each other: a 1.2 encoding always fails the 1.3 decoder and vice
     versa. This is what lets chaind auto-detect the framing safely. *)
  QCheck.Test.make
    ~name:"cross-format decode always fails (non-confusability)" ~count:15
    QCheck.(int_range 1 6)
    (fun n ->
      let chain = sample_chain n in
      let w12 = Certmsg.encode (Certmsg.of_certs Certmsg.Tls12 chain)
      and w13 = Certmsg.encode (Certmsg.of_certs Certmsg.Tls13 chain) in
      Result.is_error (Certmsg.decode Certmsg.Tls13 w12)
      && Result.is_error (Certmsg.decode Certmsg.Tls12 w13)
      && (match Certmsg.decode_auto w12 with
         | Ok m -> m.Certmsg.format = Certmsg.Tls12
         | Error _ -> false)
      && (match Certmsg.decode_auto w13 with
         | Ok m -> m.Certmsg.format = Certmsg.Tls13
         | Error _ -> false))

let suite =
  [ Alcotest.test_case "tls12 roundtrip" `Quick certmsg_tls12_roundtrip;
    Alcotest.test_case "tls13 roundtrip" `Quick certmsg_tls13_roundtrip;
    Alcotest.test_case "empty list" `Quick certmsg_empty_list;
    Alcotest.test_case "tls13 extensions surfaced" `Quick
      certmsg_tls13_extensions_surfaced;
    Alcotest.test_case "tls13 malformed extensions" `Quick
      certmsg_tls13_malformed_extensions;
    Alcotest.test_case "encode guards" `Quick certmsg_encode_guards;
    Alcotest.test_case "u24 boundaries" `Quick certmsg_u24_boundary;
    Alcotest.test_case "trailing garbage" `Quick certmsg_trailing_garbage;
    Alcotest.test_case "fuzz seed corpus" `Quick certmsg_fuzz_seeds;
    Alcotest.test_case "wire errors" `Quick certmsg_errors;
    Alcotest.test_case "handshake outcomes" `Quick handshake_outcomes;
    Alcotest.test_case "versions agree" `Quick handshake_both_versions_agree;
    Alcotest.test_case "availability impact" `Quick availability_impact_shape;
    Alcotest.test_case "negotiation refusals" `Quick handshake_refusals;
    QCheck_alcotest.to_alcotest qcheck_certmsg;
    QCheck_alcotest.to_alcotest qcheck_ir_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_injective;
    QCheck_alcotest.to_alcotest qcheck_context_injective;
    QCheck_alcotest.to_alcotest qcheck_non_confusable ]
