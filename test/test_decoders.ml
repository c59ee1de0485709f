(* The request-path decoders rewritten for speed, held to their earlier
   behaviour: the JSON string scanner (one copy per run of plain bytes) and
   the PEM line scanner (lines found and trimmed by index). Each must give
   the same values, and the same error messages with the same offsets, as
   the straightforward versions they replaced. *)

open Chaoschain_x509
open Chaoschain_pki
open Chaoschain_deployment
module Json = Chaoschain_report.Json

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

let suite =
  [ QCheck_alcotest.to_alcotest qcheck_json_string_round_trip;
    Alcotest.test_case "json error messages and offsets" `Quick
      json_error_messages;
    Alcotest.test_case "pem matches reference" `Quick pem_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_pem_reference ]
