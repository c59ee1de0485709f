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

let rec line_end text i =
  if i = String.length text || String.unsafe_get text i = '\n' then i
  else line_end text (i + 1)

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
     per-line copy); body lines accumulate into one reused [Buffer], and
     each decoded DER blob goes through the intern table so a certificate
     repeated across chains is parsed once. *)
  let n = String.length text in
  let body = Buffer.create 4096 in
  let rec scan acc in_block pos =
    if pos > n then
      if in_block then Error "PEM: unterminated CERTIFICATE block"
      else Ok (List.rev acc)
    else
      let eol = line_end text pos in
      let a = skip_space text pos eol in
      let b = trim_end text a eol in
      if not in_block then
        if window_is text a b header then begin
          Buffer.clear body;
          scan acc true (eol + 1)
        end
        else scan acc false (eol + 1)
      else if window_is text a b footer then begin
        let* der = Base64.decode (Buffer.contents body) in
        let* cert = Intern.cert_of_der der in
        scan (cert :: acc) false (eol + 1)
      end
      else begin
        Buffer.add_substring body text a (b - a);
        scan acc true (eol + 1)
      end
  in
  scan [] false 0
