open Chaoschain_x509
module Intern = Chaoschain_pki.Intern

let header = "-----BEGIN CERTIFICATE-----"
let footer = "-----END CERTIFICATE-----"

(* One exactly-sized buffer: the header line, the Base64 body blitted in
   64-column lines (one empty line for an empty body), the footer line. *)
let encode_cert cert =
  let body = Base64.encode (Cert.to_der cert) in
  let n = String.length body and hn = String.length header in
  let lines = max 1 ((n + 63) / 64) in
  let out = Bytes.create (hn + 1 + n + lines + String.length footer + 1) in
  Bytes.blit_string header 0 out 0 hn;
  Bytes.set out hn '\n';
  let o = ref (hn + 1) in
  for l = 0 to lines - 1 do
    let len = min 64 (n - (l * 64)) in
    Bytes.blit_string body (l * 64) out !o len;
    Bytes.set out (!o + len) '\n';
    o := !o + len + 1
  done;
  Bytes.blit_string footer 0 out !o (String.length footer);
  Bytes.set out (Bytes.length out - 1) '\n';
  Bytes.unsafe_to_string out

let encode_certs certs = String.concat "" (List.map encode_cert certs)

let ( let* ) = Result.bind

(* The characters [String.trim] strips. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let line_end text i =
  let n = String.length text in
  match Chaoschain_crypto.Bytescan.newline text i n with -1 -> n | j -> j

let rec skip_space text i stop =
  if i < stop && is_space (String.unsafe_get text i) then
    skip_space text (i + 1) stop
  else i

let rec trim_end text start i =
  if i > start && is_space (String.unsafe_get text (i - 1)) then
    trim_end text start (i - 1)
  else i

let rec same_from text a word i =
  i = String.length word
  || String.unsafe_get text (a + i) = String.unsafe_get word i
     && same_from text a word (i + 1)

(* [text.[a, b)] equals [word], compared in place. *)
let window_is text a b word =
  b - a = String.length word && same_from text a word 0

let decode_certs text =
  (* Lines are found and trimmed by index over [text] (no line list, no
     per-line copy). A block's body characters are gathered into the
     Domain's scratch buffer, base64-decoded there in place, and the DER
     window is probed in the intern table: a certificate seen before costs
     no further copy, a new one is copied out once and parsed. No block's
     body is longer than [text], so the scratch never grows mid-scan. *)
  let n = String.length text in
  let body = Intern.scratch n in
  let rec scan acc in_block len pos =
    if pos > n then
      if in_block then Error "PEM: unterminated CERTIFICATE block"
      else Ok (List.rev acc)
    else
      let eol = line_end text pos in
      let a = skip_space text pos eol in
      let b = trim_end text a eol in
      if not in_block then scan acc (window_is text a b header) 0 (eol + 1)
      else if window_is text a b footer then begin
        let* der_len = Base64.decode_into body ~off:0 ~len body 0 in
        let* cert = Intern.cert_of_scratch body ~off:0 ~len:der_len in
        scan (cert :: acc) false 0 (eol + 1)
      end
      else begin
        Bytes.blit_string text a body len (b - a);
        scan acc true (len + b - a) (eol + 1)
      end
  in
  scan [] false 0 0
