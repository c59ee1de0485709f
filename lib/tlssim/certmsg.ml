open Chaoschain_x509
module Intern = Chaoschain_pki.Intern

type format = Tls12 | Tls13

let format_to_string = function Tls12 -> "1.2" | Tls13 -> "1.3"

let format_of_string s =
  match String.lowercase_ascii s with
  | "1.2" | "tls12" | "tls1.2" -> Some Tls12
  | "1.3" | "tls13" | "tls1.3" -> Some Tls13
  | _ -> None

type entry = { cert : Cert.t; extensions : (int * string) list }

type t = { context : string; entries : entry list; format : format }

let entry ?(extensions = []) cert = { cert; extensions }

let is_classic t = List.for_all (fun e -> e.extensions = []) t.entries

let of_certs ?(context = "") format certs =
  if format = Tls12 && context <> "" then
    invalid_arg "Certmsg.of_certs: TLS 1.2 has no certificate_request_context";
  { context; entries = List.map (fun c -> { cert = c; extensions = [] }) certs;
    format }

let certs t = List.map (fun e -> e.cert) t.entries

let entry_equal a b =
  Cert.equal a.cert b.cert && a.extensions = b.extensions

let equal a b =
  a.format = b.format && a.context = b.context
  && List.length a.entries = List.length b.entries
  && List.for_all2 entry_equal a.entries b.entries

(* --- wire primitives --- *)

let max_u24 = 0xFF_FFFF
let max_u16 = 0xFFFF

let add_u24 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (n land 0xFF))

let add_u16 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (n land 0xFF))

(* Readers bounded by [stop], the end of the message's window. *)
let read_u24 s ~stop off =
  if off + 3 > stop then Error "truncated u24"
  else
    Ok ((Char.code s.[off] lsl 16) lor (Char.code s.[off + 1] lsl 8)
        lor Char.code s.[off + 2])

let read_u16 s ~stop off =
  if off + 2 > stop then Error "truncated u16"
  else Ok ((Char.code s.[off] lsl 8) lor Char.code s.[off + 1])

let ( let* ) = Result.bind

(* --- encoding --- *)

let der_of_entry e =
  let der = Cert.to_der e.cert in
  if String.length der > max_u24 then
    invalid_arg "Certmsg.encode: certificate exceeds 2^24-1 bytes";
  der

(* The per-entry extension block: a flat list of (u16 type, u16 length,
   data) items, framed by the entry's own u16 block length. *)
let extension_block e =
  let b = Buffer.create 32 in
  List.iter
    (fun (typ, data) ->
      if typ < 0 || typ > max_u16 then
        invalid_arg "Certmsg.encode: extension type outside u16";
      if String.length data > max_u16 - 4 then
        invalid_arg "Certmsg.encode: extension data exceeds its u16 frame";
      add_u16 b typ;
      add_u16 b (String.length data);
      Buffer.add_string b data)
    e.extensions;
  if Buffer.length b > max_u16 then
    invalid_arg "Certmsg.encode: extension block exceeds 2^16-1 bytes";
  Buffer.contents b

let encode t =
  match t.format with
  | Tls12 ->
      if not (is_classic t) then
        invalid_arg
          "Certmsg.encode: per-entry extensions need the TLS 1.3 format";
      if t.context <> "" then
        invalid_arg
          "Certmsg.encode: TLS 1.2 has no certificate_request_context";
      let body = Buffer.create 1024 in
      List.iter
        (fun e ->
          let der = der_of_entry e in
          add_u24 body (String.length der);
          Buffer.add_string body der)
        t.entries;
      if Buffer.length body > max_u24 then
        invalid_arg "Certmsg.encode: certificate_list exceeds 2^24-1 bytes";
      let msg = Buffer.create (Buffer.length body + 3) in
      add_u24 msg (Buffer.length body);
      Buffer.add_buffer msg body;
      Buffer.contents msg
  | Tls13 ->
      if String.length t.context > 0xFF then
        invalid_arg "Certmsg.encode: context exceeds 255 bytes";
      let body = Buffer.create 1024 in
      List.iter
        (fun e ->
          let der = der_of_entry e in
          let exts = extension_block e in
          add_u24 body (String.length der);
          Buffer.add_string body der;
          add_u16 body (String.length exts);
          Buffer.add_string body exts)
        t.entries;
      if Buffer.length body > max_u24 then
        invalid_arg "Certmsg.encode: certificate_list exceeds 2^24-1 bytes";
      let msg = Buffer.create (Buffer.length body + 4 + String.length t.context) in
      Buffer.add_char msg (Char.chr (String.length t.context));
      Buffer.add_string msg t.context;
      add_u24 msg (Buffer.length body);
      Buffer.add_buffer msg body;
      Buffer.contents msg

(* --- decoding --- *)

(* The decoders read the message in [s.[base, stop)]; [cert off len]
   interns the entry at [s.[off, off+len)] in place, so on an intern hit the
   entry's DER is never copied out of the message. Everything else kept
   (context, extension data) is copied, so nothing returned aliases [s]. *)

(* Parse one entry's extension block: items must tile the block exactly;
   an item length that overruns the block is an error, never a silent
   truncation. *)
let read_extensions s ~off ~len =
  let stop = off + len in
  let rec items acc off =
    if off = stop then Ok (List.rev acc)
    else if off + 4 > stop then Error "truncated extension item header"
    else
      let* typ = read_u16 s ~stop off in
      let* elen = read_u16 s ~stop (off + 2) in
      if off + 4 + elen > stop then
        Error "extension length overruns its block"
      else
        items ((typ, String.sub s (off + 4) elen) :: acc) (off + 4 + elen)
  in
  items [] off

let decode_tls12_ir ~cert s ~base ~stop =
  let* total = read_u24 s ~stop base in
  if base + total + 3 <> stop then Error "certificate_list length mismatch"
  else begin
    let rec entries acc off =
      if off = stop then
        Ok { context = ""; entries = List.rev acc; format = Tls12 }
      else
        let* len = read_u24 s ~stop off in
        if off + 3 + len > stop then Error "truncated certificate entry"
        else
          let* cert = cert (off + 3) len in
          entries ({ cert; extensions = [] } :: acc) (off + 3 + len)
    in
    entries [] (base + 3)
  end

let decode_tls13_ir ~cert s ~base ~stop =
  if stop - base < 1 then Error "truncated context length"
  else begin
    let ctx_len = Char.code s.[base] in
    if base + 1 + ctx_len > stop then Error "truncated context"
    else begin
      let context = String.sub s (base + 1) ctx_len in
      let* total = read_u24 s ~stop (base + 1 + ctx_len) in
      let first = base + 1 + ctx_len + 3 in
      if first + total <> stop then Error "certificate_list length mismatch"
      else begin
        let rec entries acc off =
          if off = stop then
            Ok { context; entries = List.rev acc; format = Tls13 }
          else
            let* len = read_u24 s ~stop off in
            if off + 3 + len + 2 > stop then Error "truncated entry"
            else
              let* cert = cert (off + 3) len in
              let* ext_len = read_u16 s ~stop (off + 3 + len) in
              let ext_off = off + 3 + len + 2 in
              if ext_off + ext_len > stop then
                Error "extension block overruns the message"
              else
                let* extensions = read_extensions s ~off:ext_off ~len:ext_len in
                entries ({ cert; extensions } :: acc) (ext_off + ext_len)
        in
        entries [] first
      end
    end
  end

let decode_in format ~cert s ~base ~stop =
  match format with
  | Tls12 -> decode_tls12_ir ~cert s ~base ~stop
  | Tls13 -> decode_tls13_ir ~cert s ~base ~stop

let auto_in ~cert s ~base ~stop =
  match decode_tls12_ir ~cert s ~base ~stop with
  | Ok t -> Ok t
  | Error e12 -> (
      match decode_tls13_ir ~cert s ~base ~stop with
      | Ok t -> Ok t
      | Error e13 ->
          Error
            (Printf.sprintf
               "not a TLS 1.2 certificate message (%s) nor TLS 1.3 (%s)" e12
               e13))

let decode format s =
  decode_in format
    ~cert:(fun off len -> Intern.cert_of_sub s ~off ~len)
    s ~base:0 ~stop:(String.length s)

let decode_auto s =
  auto_in
    ~cert:(fun off len -> Intern.cert_of_sub s ~off ~len)
    s ~base:0 ~stop:(String.length s)

let decode_scratch format b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Certmsg.decode_scratch";
  (* A read-only view for this call: certificates are interned with
     [cert_of_scratch] (copied on a miss), the rest is copied. *)
  let s = Bytes.unsafe_to_string b in
  let cert off len = Intern.cert_of_scratch b ~off ~len in
  match format with
  | Some f -> decode_in f ~cert s ~base:off ~stop:(off + len)
  | None -> auto_in ~cert s ~base:off ~stop:(off + len)
