(* Primitives rewritten for speed, held to their earlier behaviour: the
   JSON string scanner (one copy per run of plain bytes) and the PEM line
   scanner (lines found and trimmed by index) on the request path; the
   Base64, PEM and JSON-string encoders (one exactly-sized buffer, one copy
   per run) on the reply path; and, on the path-building path, loose DN
   equality (no folded copies) with its hash, the per-certificate
   self-signature flag and the root store's subject index. Each must give
   the same values, and the same error messages with the same offsets, as
   the straightforward versions they replaced, kept here as references. *)

open Chaoschain_x509
open Chaoschain_pki
open Chaoschain_deployment
module Json = Chaoschain_report.Json
module Oid = Chaoschain_der.Oid
module Keys = Chaoschain_crypto.Keys

(* --- JSON strings --- *)

(* Pieces that exercise every branch of the string scanner: plain runs,
   quotes and backslashes (escaped on output), control bytes (\u00XX or a
   short escape), and 2-, 3- and 4-byte UTF-8. *)
let json_piece =
  QCheck.Gen.oneofl
    [ "a"; "plain run "; "\""; "\\"; "/"; "\n"; "\r"; "\t"; "\b"; "\012";
      "\x00"; "\x01"; "\x1f"; "\x7f"; "\xc3\xa9"; "\xe4\xb8\xad";
      "\xf0\x9f\x98\x80"; "\\u0041"; "{}[],:" ]

let qcheck_json_string_round_trip =
  QCheck.Test.make ~name:"json string round-trip" ~count:500
    (QCheck.make
       ~print:(Printf.sprintf "%S")
       QCheck.Gen.(map (String.concat "") (list_size (0 -- 24) json_piece)))
    (fun s ->
      Json.of_string (Json.to_string (Json.String s)) = Ok (Json.String s))

(* Inputs and the exact messages the byte-at-a-time scanner gave. *)
let json_error_cases =
  [ ({|"abc|}, "unterminated string at offset 4");
    ({|"ab\n|}, "unterminated string at offset 5");
    ("\"", "unterminated string at offset 1");
    ({|{"k":"v" ,"k2":"unterminated}|}, "unterminated string at offset 29");
    ("\"ab\x01c\"", "raw control character in string at offset 3");
    ("\"a\x1fb\"", "raw control character in string at offset 2");
    ({|"a\qb"|}, "bad escape at offset 4");
    ({|"abc\|}, "unterminated escape at offset 5");
    ({|"\ud800\u0041"|}, "unpaired surrogate at offset 13");
    ({|"\udc00"|}, "unpaired surrogate at offset 7");
    ({|"ab\ud800x"|}, "expected '\\' at offset 9");
    ({|"\u12G4"|}, "bad \\u escape at offset 5");
    ({|"plain"x|}, "trailing garbage at offset 7") ]

let json_error_messages () =
  List.iter
    (fun (input, message) ->
      Alcotest.(check (result reject string))
        (Printf.sprintf "%S" input) (Error message) (Json.of_string input))
    json_error_cases;
  Alcotest.(check bool) "escape after a plain run" true
    (Json.of_string {|["a","b\tc","d\"e"]|}
    = Ok (Json.List [ Json.String "a"; Json.String "b\tc"; Json.String "d\"e" ]))

(* --- PEM --- *)

(* The split-and-trim decoder the in-place scanner replaced, as the
   reference. *)
let reference_decode text =
  let ( let* ) = Result.bind in
  let body = Buffer.create 4096 in
  let rec scan acc in_block = function
    | [] ->
        if in_block then Error "PEM: unterminated CERTIFICATE block"
        else Ok (List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if not in_block then
          if line = "-----BEGIN CERTIFICATE-----" then begin
            Buffer.clear body;
            scan acc true rest
          end
          else scan acc false rest
        else if line = "-----END CERTIFICATE-----" then begin
          let* der = Base64.decode (Buffer.contents body) in
          let* cert = Cert.of_der der in
          scan (cert :: acc) false rest
        end
        else begin
          Buffer.add_string body line;
          scan acc true rest
        end
  in
  scan [] false (String.split_on_char '\n' text)

let as_der = Result.map (List.map Cert.to_der)

let pem_chain =
  lazy
    (let u = Universe.create ~seed:11L () in
     let h = Universe.hierarchy u Universe.Lets_encrypt in
     let leaf = Universe.mint_leaf u Universe.Lets_encrypt ~domain:"scan.example" () in
     [ leaf.Issue.cert; h.Universe.issuing.Issue.cert ])

let map_lines f text =
  String.concat "\n" (List.map f (String.split_on_char '\n' text))

let pem_cases () =
  let chain = Lazy.force pem_chain in
  let pem = Pem.encode_certs chain in
  let one = Pem.encode_cert (List.hd chain) in
  let cut_footer =
    String.sub pem 0 (String.length pem - String.length "-----END CERTIFICATE-----\n")
  in
  let bad_base64 =
    String.concat "\n"
      (List.mapi
         (fun i l -> if i = 2 then "AB!D" ^ l else l)
         (String.split_on_char '\n' pem))
  in
  [ ("plain", pem);
    ("crlf", map_lines (fun l -> l ^ "\r") pem);
    ("indented", map_lines (fun l -> "   " ^ l) pem);
    ("tab padded", map_lines (fun l -> "\t" ^ l ^ "\t") pem);
    ("form-feed padded", map_lines (fun l -> "\012" ^ l ^ " \012") pem);
    ("vertical tab is not trimmed", map_lines (fun l -> "\011" ^ l) one);
    ("text before and between", "Subject: x\n" ^ one ^ "issuer follows\n\n" ^ pem);
    ("blank lines inside", map_lines (fun l -> l ^ "\n  \n") one);
    ("no final newline", String.sub pem 0 (String.length pem - 1));
    ("missing footer", cut_footer);
    ("bad base64", bad_base64);
    ("empty", "");
    ("only newlines", "\n\n\n") ]

let pem_matches_reference () =
  List.iter
    (fun (name, text) ->
      Alcotest.(check (result (list string) string))
        name (as_der (reference_decode text)) (as_der (Pem.decode_certs text)))
    (pem_cases ());
  (* the cases reach both outcomes: certificates and each error *)
  let outcome name = as_der (Pem.decode_certs (List.assoc name (pem_cases ()))) in
  Alcotest.(check int) "plain decodes both" 2
    (List.length (Result.get_ok (outcome "plain")));
  Alcotest.(check (result (list string) string)) "missing footer"
    (Error "PEM: unterminated CERTIFICATE block") (outcome "missing footer");
  Alcotest.(check bool) "bad base64 is an error" true
    (Result.is_error (outcome "bad base64"))

(* Random texts assembled from PEM lines, whole blocks, padding and
   noise. *)
let qcheck_pem_reference =
  let lines =
    lazy
      (let chain = Lazy.force pem_chain in
       (Pem.encode_cert (List.hd chain) :: String.split_on_char '\n' (Pem.encode_certs chain))
       @ [ ""; "noise"; "AB!D"; "-----BEGIN CERTIFICATE"; "====" ])
  in
  let pads = [ ""; " "; "\t"; "\r"; "\012"; "\011"; "  \r" ] in
  let gen =
    QCheck.Gen.(
      map (String.concat "")
        (list_size (0 -- 40)
           (map
              (fun ((pre, line), (post, nl)) ->
                pre ^ line ^ post ^ if nl then "\n" else "")
              (pair
                 (pair (oneofl pads) (delay (fun () -> oneofl (Lazy.force lines))))
                 (pair (oneofl pads) (frequency [ (9, return true); (1, return false) ]))))))
  in
  QCheck.Test.make ~name:"pem scan matches the split-and-trim reference"
    ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun text -> as_der (Pem.decode_certs text) = as_der (reference_decode text))

(* --- encoders --- *)

(* The Buffer-per-character Base64 encoder, the [wrap64] + [Printf] PEM
   encoder and the per-character JSON string escaper the one-pass versions
   replaced. *)
let reference_base64 s =
  let alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/" in
  let n = String.length s in
  let out = Buffer.create ((n + 2) / 3 * 4) in
  let i = ref 0 in
  while !i + 2 < n do
    let b0 = Char.code s.[!i] and b1 = Char.code s.[!i + 1] and b2 = Char.code s.[!i + 2] in
    Buffer.add_char out alphabet.[b0 lsr 2];
    Buffer.add_char out alphabet.[((b0 land 0x3) lsl 4) lor (b1 lsr 4)];
    Buffer.add_char out alphabet.[((b1 land 0xF) lsl 2) lor (b2 lsr 6)];
    Buffer.add_char out alphabet.[b2 land 0x3F];
    i := !i + 3
  done;
  (match n - !i with
  | 1 ->
      let b0 = Char.code s.[!i] in
      Buffer.add_char out alphabet.[b0 lsr 2];
      Buffer.add_char out alphabet.[(b0 land 0x3) lsl 4];
      Buffer.add_string out "=="
  | 2 ->
      let b0 = Char.code s.[!i] and b1 = Char.code s.[!i + 1] in
      Buffer.add_char out alphabet.[b0 lsr 2];
      Buffer.add_char out alphabet.[((b0 land 0x3) lsl 4) lor (b1 lsr 4)];
      Buffer.add_char out alphabet.[(b1 land 0xF) lsl 2];
      Buffer.add_char out '='
  | _ -> ());
  Buffer.contents out

let reference_pem certs =
  let wrap64 s =
    let buf = Buffer.create (String.length s + (String.length s / 64) + 2) in
    String.iteri
      (fun i c ->
        if i > 0 && i mod 64 = 0 then Buffer.add_char buf '\n';
        Buffer.add_char buf c)
      s;
    Buffer.contents buf
  in
  String.concat ""
    (List.map
       (fun cert ->
         Printf.sprintf "%s\n%s\n%s\n" "-----BEGIN CERTIFICATE-----"
           (wrap64 (reference_base64 (Cert.to_der cert)))
           "-----END CERTIFICATE-----")
       certs)

let reference_json_string s =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let encode_matches s =
  String.equal (Base64.encode s) (reference_base64 s)
  && String.equal (Json.to_string (Json.String s)) (reference_json_string s)

let qcheck_encoders_reference =
  QCheck.Test.make ~name:"base64 and json string encoders match the references"
    ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         oneof
           [ string_size ~gen:char (0 -- 200);
             map (String.concat "") (list_size (0 -- 24) json_piece) ]))
    encode_matches

let all_bytes = String.init 256 Char.chr

let encoders_every_byte () =
  String.iter
    (fun c ->
      let s = String.make 1 c in
      Alcotest.(check string) (Printf.sprintf "base64 %C" c) (reference_base64 s)
        (Base64.encode s);
      Alcotest.(check string) (Printf.sprintf "json %C" c) (reference_json_string s)
        (Json.to_string (Json.String s)))
    all_bytes;
  (* every length mod 3, each ending on every byte value *)
  for len = 0 to 258 do
    let s = String.sub (all_bytes ^ all_bytes) (len mod 256) len in
    Alcotest.(check bool) (Printf.sprintf "length %d" len) true (encode_matches s)
  done

(* A lab population's certificates and the four programs' roots: real DER
   of many sizes, the stores' self-signed roots and the chains' leaves,
   intermediates and cross-signs. *)
let pop = lazy (Chaoschain_measurement.Population.generate ~scale:0.002 ())

let population_certs () =
  let p = Lazy.force pop in
  let u = p.Chaoschain_measurement.Population.universe in
  let seen = Hashtbl.create 4096 in
  let add acc c =
    if Hashtbl.mem seen (Cert.fingerprint c) then acc
    else begin
      Hashtbl.add seen (Cert.fingerprint c) ();
      c :: acc
    end
  in
  let acc =
    Array.fold_left
      (fun acc r -> List.fold_left add acc r.Chaoschain_measurement.Population.chain)
      [] p.Chaoschain_measurement.Population.domains
  in
  let acc =
    List.fold_left
      (fun acc prog -> List.fold_left add acc (Root_store.certs (Universe.store u prog)))
      acc Root_store.all_programs
  in
  List.rev acc

let pem_encoder_population () =
  let certs = population_certs () in
  List.iter
    (fun c ->
      Alcotest.(check string) (Cert.summary c) (reference_pem [ c ]) (Pem.encode_cert c))
    certs;
  Alcotest.(check bool) "some body ends exactly on a 64-column line" true
    (List.exists (fun c -> String.length (Cert.to_der c) mod 48 = 0) certs);
  Alcotest.(check string) "whole bundle" (reference_pem certs) (Pem.encode_certs certs);
  Alcotest.(check string) "empty list" "" (Pem.encode_certs [])

(* --- names, self-signatures and the subject index --- *)

(* The Buffer-folding loose equality [Dn.equal] replaced. *)
let reference_fold_value s =
  let buf = Buffer.create (String.length s) in
  let pending_space = ref false in
  let started = ref false in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' -> if !started then pending_space := true
      | c ->
          if !pending_space then begin
            Buffer.add_char buf ' ';
            pending_space := false
          end;
          started := true;
          Buffer.add_char buf (Char.lowercase_ascii c))
    s;
  Buffer.contents buf

let reference_dn_equal (a : Dn.t) (b : Dn.t) =
  let attr_eq (x : Dn.attr) (y : Dn.attr) =
    Oid.equal x.Dn.typ y.Dn.typ
    && String.equal (reference_fold_value x.Dn.value) (reference_fold_value y.Dn.value)
  in
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> List.length ra = List.length rb && List.for_all2 attr_eq ra rb)
       a b

(* A DN skeleton is RDNs of (type, value tokens); a token is a word or a
   blank run. Rendering picks each letter's case and each blank run's
   spaces and tabs at random, so two renderings of one skeleton are equal
   under the reference and independent skeletons mostly are not. *)
let gen_skeleton =
  QCheck.Gen.(
    let token =
      frequency
        [ (3, map (fun w -> `Word w) (oneofl [ "a"; "ab"; "Z"; "x.y"; "Inc"; "\xc3\xa9"; "-" ]));
          (2, return `Blank) ]
    in
    let attr =
      pair (oneofl [ Oid.at_common_name; Oid.at_organization; Oid.at_org_unit ])
        (list_size (0 -- 6) token)
    in
    list_size (0 -- 3) (list_size (1 -- 2) attr))

let gen_render skeleton =
  QCheck.Gen.(
    let blank = map (String.concat "") (list_size (1 -- 3) (oneofl [ " "; "\t" ])) in
    let token = function
      | `Blank -> blank
      | `Word w ->
          map
            (fun upper ->
              if upper then String.uppercase_ascii w else String.lowercase_ascii w)
            bool
    in
    let value tokens = map (String.concat "") (flatten_l (List.map token tokens)) in
    flatten_l
      (List.map
         (fun rdn ->
           flatten_l
             (List.map
                (fun (typ, tokens) -> map (fun value -> { Dn.typ; value }) (value tokens))
                rdn))
         skeleton))

(* The skeleton with its blank runs removed: equal only where those runs
   were leading or trailing. *)
let without_blanks sk =
  List.map (List.map (fun (typ, tokens) -> (typ, List.filter (( <> ) `Blank) tokens))) sk

let gen_dn_pair =
  QCheck.Gen.(
    gen_skeleton >>= fun sk ->
    frequency
      [ (3, pair (gen_render sk) (gen_render sk));
        (1, pair (gen_render sk) (gen_render (without_blanks sk)));
        (1, pair (gen_render sk) (gen_skeleton >>= gen_render)) ])

let qcheck_dn_equal_reference =
  QCheck.Test.make ~name:"dn equal matches the folding reference; equal => same hash"
    ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "%S / %S" (Dn.to_string a) (Dn.to_string b))
       gen_dn_pair)
    (fun (a, b) ->
      let eq = reference_dn_equal a b in
      Dn.equal a b = eq
      && Dn.equal b a = eq
      && ((not eq) || Dn.hash a = Dn.hash b)
      && Dn.hash a >= 0)

let dn_equal_cases () =
  let cn v = [ [ { Dn.typ = Oid.at_common_name; value = v } ] ] in
  let cases =
    [ ("", ""); ("", "  "); ("\t", ""); ("a", "A"); (" a", "a "); ("a  b", "A\tb");
      ("a b", "ab"); ("a b ", "a b"); ("ab", "a"); ("a\t \tb", "a b"); (" ", "a");
      ("Inc.", "inc") ]
  in
  List.iter
    (fun (x, y) ->
      let eq = reference_dn_equal (cn x) (cn y) in
      Alcotest.(check bool) (Printf.sprintf "%S = %S" x y) eq (Dn.equal (cn x) (cn y));
      if eq then
        Alcotest.(check int) (Printf.sprintf "hash %S %S" x y) (Dn.hash (cn x))
          (Dn.hash (cn y)))
    cases;
  let multi o cn' =
    [ [ { Dn.typ = Oid.at_organization; value = o };
        { Dn.typ = Oid.at_common_name; value = cn' } ] ]
  in
  Alcotest.(check bool) "multi-attribute RDN" true (Dn.equal (multi "A  b" "c") (multi "a b" "C"));
  Alcotest.(check bool) "RDN structure matters" false
    (Dn.equal (multi "a" "c") (Dn.of_attrs [ (Oid.at_organization, "a"); (Oid.at_common_name, "c") ]));
  Alcotest.(check bool) "attribute type matters" false
    (Dn.equal (cn "a") [ [ { Dn.typ = Oid.at_organization; value = "a" } ] ])

let self_signed_reference () =
  let certs = population_certs () in
  let roots = ref 0 in
  List.iter
    (fun c ->
      let issued = Dn.equal (Cert.subject c) (Cert.issuer c) in
      let expected =
        issued && Keys.verify (Cert.public_key c) (Cert.tbs_der c) (Cert.signature c)
      in
      if expected then incr roots;
      Alcotest.(check bool) ("self-issued " ^ Cert.summary c) issued (Cert.is_self_issued c);
      Alcotest.(check bool) ("self-signed " ^ Cert.summary c) expected (Cert.is_self_signed c);
      (* the decoding constructor computes the same flag *)
      match Cert.of_der (Cert.to_der c) with
      | Ok d -> Alcotest.(check bool) "decoded" expected (Cert.is_self_signed d)
      | Error e -> Alcotest.fail e)
    certs;
  Alcotest.(check bool) "population has roots and non-roots" true
    (!roots > 0 && !roots < List.length certs);
  (* a self-issued certificate whose signature does not verify *)
  let root = List.find Cert.is_self_signed certs in
  let der = Bytes.of_string (Cert.to_der root) in
  let last = Bytes.length der - 1 in
  Bytes.set der last (Char.chr (Char.code (Bytes.get der last) lxor 1));
  match Cert.of_der (Bytes.to_string der) with
  | Ok forged ->
      Alcotest.(check bool) "forged is self-issued" true (Cert.is_self_issued forged);
      Alcotest.(check bool) "forged is not self-signed" false (Cert.is_self_signed forged)
  | Error e -> Alcotest.fail e

let subject_index_reference () =
  let p = Lazy.force pop in
  let u = p.Chaoschain_measurement.Population.universe in
  let stores =
    Universe.union_store u :: List.map (Universe.store u) Root_store.all_programs
  in
  let certs = population_certs () in
  let found = ref 0 in
  List.iter
    (fun store ->
      List.iter
        (fun c ->
          List.iter
            (fun dn ->
              let expected = List.filter (fun r -> Dn.equal (Cert.subject r) dn) (Root_store.certs store) in
              let got = Root_store.find_by_subject store dn in
              found := !found + List.length got;
              Alcotest.(check (list string)) (Root_store.name store ^ " " ^ Dn.to_string dn)
                (List.map Cert.fingerprint expected) (List.map Cert.fingerprint got))
            [ Cert.issuer c; Cert.subject c ];
          Alcotest.(check (list string)) "issuer candidates"
            (List.map Cert.fingerprint (Root_store.find_by_subject store (Cert.issuer c)))
            (List.map Cert.fingerprint (Root_store.issuer_candidates store c)))
        certs)
    stores;
  Alcotest.(check bool) "lookups find roots" true (!found > 0)

(* Roots sharing one subject under loose equality (a re-keyed root, a
   re-cased one) come back in insertion order, as the linear filter gives
   them. *)
let subject_index_order () =
  let root label dn =
    (Issue.self_signed (Chaoschain_crypto.Prng.of_label label) (Issue.spec ~is_ca:true dn))
      .Issue.cert
  in
  let dn = Dn.make ~o:"Shared  Root" ~cn:"R1" () in
  let a = root "idx-a" dn and b = root "idx-b" (Dn.make ~o:"shared root" ~cn:"r1" ())
  and other = root "idx-other" (Dn.make ~o:"Other" ~cn:"R2" ())
  and c = root "idx-c" (Dn.make ~o:" SHARED\tROOT " ~cn:"R1" ()) in
  List.iter
    (fun order ->
      let store = Root_store.make "idx" order in
      Alcotest.(check (list string)) "insertion order"
        (List.map Cert.fingerprint
           (List.filter (fun r -> Dn.equal (Cert.subject r) dn) (Root_store.certs store)))
        (List.map Cert.fingerprint (Root_store.find_by_subject store dn));
      Alcotest.(check int) "three share the name" 3
        (List.length (Root_store.find_by_subject store dn)))
    [ [ a; other; b; c ]; [ c; b; other; a ]; [ b; a; c; other ] ]

(* Signature checks from two Domains at once, each against its own memo,
   agree with a direct verification. *)
let signature_memo_domains () =
  let certs = Array.of_list (population_certs ()) in
  let n = Array.length certs in
  let check_all () =
    let bad = ref 0 in
    for k = 0 to 4 * n do
      let issuer = certs.(k * 7 mod n) and child = certs.(k mod n) in
      let expected =
        Keys.verify (Cert.public_key issuer) (Cert.tbs_der child) (Cert.signature child)
      in
      if Relation.signature_ok ~issuer ~child <> expected then incr bad
    done;
    !bad
  in
  let d = Domain.spawn check_all in
  let here = check_all () in
  Alcotest.(check int) "this domain" 0 here;
  Alcotest.(check int) "other domain" 0 (Domain.join d)

let suite =
  [ QCheck_alcotest.to_alcotest qcheck_json_string_round_trip;
    Alcotest.test_case "json error messages and offsets" `Quick
      json_error_messages;
    Alcotest.test_case "pem matches reference" `Quick pem_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_pem_reference;
    QCheck_alcotest.to_alcotest qcheck_encoders_reference;
    Alcotest.test_case "encoders every byte and length" `Quick encoders_every_byte;
    Alcotest.test_case "pem encoder on the population" `Slow pem_encoder_population;
    QCheck_alcotest.to_alcotest qcheck_dn_equal_reference;
    Alcotest.test_case "dn equal fixed cases" `Quick dn_equal_cases;
    Alcotest.test_case "self-signed flag matches verify" `Slow self_signed_reference;
    Alcotest.test_case "subject index matches linear" `Slow subject_index_reference;
    Alcotest.test_case "subject index keeps insertion order" `Quick subject_index_order;
    Alcotest.test_case "signature memo per domain" `Slow signature_memo_domains ]
