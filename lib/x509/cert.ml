module Der = Chaoschain_der.Der
module Oid = Chaoschain_der.Oid
module Keys = Chaoschain_crypto.Keys
module Sha256 = Chaoschain_crypto.Sha256
module Hex = Chaoschain_crypto.Hex

type tbs = {
  version : int;
  serial : string;
  sig_alg : Keys.algorithm;
  issuer : Dn.t;
  not_before : Vtime.t;
  not_after : Vtime.t;
  subject : Dn.t;
  public_key : Keys.public_key;
  extensions : Extension.t list;
}

type t = {
  tbs : tbs;
  signature : Keys.signature;
  raw : string;         (* full certificate DER *)
  raw_tbs : string;     (* TBS DER, the signed message *)
  fp : string;          (* SHA-256 of raw *)
  subject_hash : int;   (* Dn.hash of the subject *)
  issuer_hash : int;    (* Dn.hash of the issuer *)
  self_signed : bool;   (* self-issued and verifies under its own key *)
}

(* Facts path building asks of a certificate again and again, computed once
   here by both constructors. The signature is checked only for a
   self-issued certificate. *)
let finish tbs signature ~raw ~raw_tbs ~fp =
  let subject_hash = Dn.hash tbs.subject and issuer_hash = Dn.hash tbs.issuer in
  let self_signed =
    subject_hash = issuer_hash
    && Dn.equal tbs.subject tbs.issuer
    && Keys.verify tbs.public_key raw_tbs signature
  in
  { tbs; signature; raw; raw_tbs; fp; subject_hash; issuer_hash; self_signed }

let alg_identifier (alg : Keys.algorithm) =
  let oid =
    match alg with
    | Keys.Rsa_2048 | Keys.Rsa_4096 -> Oid.alg_sha256_rsa
    | Keys.Rsa_1024 -> Oid.alg_sha1_rsa
    | Keys.Ecdsa_p256 -> Oid.alg_ecdsa_sha256
    | Keys.Ecdsa_p384 -> Oid.alg_ecdsa_sha384
  in
  (* RSA algorithm identifiers carry an explicit NULL parameter. *)
  match alg with
  | Keys.Rsa_2048 | Keys.Rsa_4096 | Keys.Rsa_1024 ->
      Der.sequence [ Der.oid oid; Der.null ]
  | _ -> Der.sequence [ Der.oid oid ]

let spki_to_der (pub : Keys.public_key) =
  let key_oid =
    match pub.Keys.alg with
    | Keys.Rsa_2048 | Keys.Rsa_4096 | Keys.Rsa_1024 -> Oid.alg_rsa_encryption
    | Keys.Ecdsa_p256 | Keys.Ecdsa_p384 -> Oid.alg_ec_public_key
  in
  let alg_id =
    match pub.Keys.alg with
    | Keys.Rsa_2048 | Keys.Rsa_4096 | Keys.Rsa_1024 ->
        Der.sequence [ Der.oid key_oid; Der.null ]
    | _ -> Der.sequence [ Der.oid key_oid ]
  in
  Der.sequence [ alg_id; Der.bit_string pub.Keys.material ]

let tbs_to_der (tbs : tbs) =
  Der.sequence
    ([ Der.context 0 [ Der.integer_of_int tbs.version ];
       Der.integer_bytes tbs.serial;
       alg_identifier tbs.sig_alg;
       Dn.to_der tbs.issuer;
       Der.sequence [ Vtime.to_der_time tbs.not_before; Vtime.to_der_time tbs.not_after ];
       Dn.to_der tbs.subject;
       spki_to_der tbs.public_key ]
    @
    match tbs.extensions with
    | [] -> []
    | exts -> [ Der.context 3 [ Der.sequence (List.map Extension.to_der exts) ] ])

let create tbs signature =
  let raw_tbs = Der.encode (tbs_to_der tbs) in
  let cert_der =
    Der.sequence
      [ (match Der.decode raw_tbs with Ok v -> v | Error _ -> assert false);
        alg_identifier signature.Keys.sig_alg;
        Der.bit_string signature.Keys.sig_bytes ]
  in
  let raw = Der.encode cert_der in
  finish tbs signature ~raw ~raw_tbs ~fp:(Sha256.digest raw)

let tbs t = t.tbs
let tbs_der t = t.raw_tbs
let signature t = t.signature
let to_der t = t.raw
let fingerprint t = t.fp
let fingerprint_hex t = Hex.encode t.fp
let equal a b = String.equal a.raw b.raw
let compare a b = String.compare a.raw b.raw

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let sig_family_to_alg family (material_len : int option) =
  (* Disambiguate RSA-2048 vs RSA-4096 (same OID) by key material size when
     decoding an SPKI; for signature fields, default to RSA-2048. *)
  match (family, material_len) with
  | `Sha1_rsa, _ -> Ok Keys.Rsa_1024
  | `Ecdsa_sha256, _ -> Ok Keys.Ecdsa_p256
  | `Ecdsa_sha384, _ -> Ok Keys.Ecdsa_p384
  | `Sha256_rsa, Some 512 -> Ok Keys.Rsa_4096
  | `Sha256_rsa, _ -> Ok Keys.Rsa_2048

(* Decoding runs on the zero-copy slice reader: TLV structure is walked over
   the original buffer and [raw_tbs] is the TBS window of [raw] itself
   (header included), so nothing is re-encoded and large blobs (signature
   bits, key material) are copied exactly once.  Small sub-structures — names,
   extensions — are materialised with [Der.tree_of_node] and reuse the
   tree-based decoders; they are a small share of the bytes. *)

let alg_of_identifier_n n =
  let* fields = Der.as_sequence_n n in
  match fields with
  | oid_n :: _ ->
      let* oid = Der.as_oid_n oid_n in
      if Oid.equal oid Oid.alg_sha256_rsa then Ok `Sha256_rsa
      else if Oid.equal oid Oid.alg_sha1_rsa then Ok `Sha1_rsa
      else if Oid.equal oid Oid.alg_ecdsa_sha256 then Ok `Ecdsa_sha256
      else if Oid.equal oid Oid.alg_ecdsa_sha384 then Ok `Ecdsa_sha384
      else Error ("unknown signature algorithm " ^ Oid.to_string oid)
  | [] -> Error "AlgorithmIdentifier: empty"

let spki_of_node n =
  let* fields = Der.as_sequence_n n in
  match fields with
  | [ alg_n; key_n ] ->
      let* alg_fields = Der.as_sequence_n alg_n in
      let* key_oid =
        match alg_fields with
        | oid_n :: _ -> Der.as_oid_n oid_n
        | [] -> Error "SPKI AlgorithmIdentifier: empty"
      in
      let* _unused, material = Der.as_bit_string_n key_n in
      let* alg =
        if Oid.equal key_oid Oid.alg_rsa_encryption then
          match String.length material with
          | 128 -> Ok Keys.Rsa_1024
          | 256 -> Ok Keys.Rsa_2048
          | 512 -> Ok Keys.Rsa_4096
          | n -> Error (Printf.sprintf "unsupported RSA material size %d" n)
        else if Oid.equal key_oid Oid.alg_ec_public_key then
          match String.length material with
          | 65 -> Ok Keys.Ecdsa_p256
          | 97 -> Ok Keys.Ecdsa_p384
          | n -> Error (Printf.sprintf "unsupported EC material size %d" n)
        else Error ("unknown key algorithm " ^ Oid.to_string key_oid)
      in
      Keys.import_public alg material
  | _ -> Error "SubjectPublicKeyInfo: expected 2 fields"

let time_of_node n =
  match Der.node_tag n with
  | { Der.cls = Universal; constructed = false; number = 23 } ->
      Vtime.of_utctime (Der.node_content n)
  | { Der.cls = Universal; constructed = false; number = 24 } ->
      Vtime.of_generalized (Der.node_content n)
  | _ -> Error "expected UTCTime or GeneralizedTime"

let dn_of_node n =
  let* v = Der.tree_of_node n in
  Dn.of_der v

let ext_of_node n =
  let* v = Der.tree_of_node n in
  Extension.of_der v

let tbs_of_node tbs_n =
  let* fields = Der.as_sequence_n tbs_n in
  let* version, rest =
    match fields with
    | first :: rest when Der.is_context_n 0 first ->
        let* kids = Der.as_context_n 0 first in
        let* v =
          match kids with
          | [ iv ] -> Der.as_integer_int_n iv
          | _ -> Error "version: expected one INTEGER"
        in
        Ok (v, rest)
    | rest -> Ok (0, rest)
  in
  match rest with
  | serial_n :: alg_n :: issuer_n :: validity_n :: subject_n :: spki_n :: tail ->
      let* serial = Der.as_integer_bytes_n serial_n in
      let* family = alg_of_identifier_n alg_n in
      let* issuer = dn_of_node issuer_n in
      let* validity = Der.as_sequence_n validity_n in
      let* not_before, not_after =
        match validity with
        | [ nb; na ] ->
            let* nb = time_of_node nb in
            let* na = time_of_node na in
            Ok (nb, na)
        | _ -> Error "Validity: expected 2 times"
      in
      let* subject = dn_of_node subject_n in
      let* public_key = spki_of_node spki_n in
      let* sig_alg = sig_family_to_alg family (Some (String.length public_key.Keys.material)) in
      let* extensions =
        match tail with
        | [] -> Ok []
        | [ ext_wrapper ] when Der.is_context_n 3 ext_wrapper ->
            let* kids = Der.as_context_n 3 ext_wrapper in
            let* exts_seq =
              match kids with
              | [ s ] -> Der.as_sequence_n s
              | _ -> Error "extensions: expected one SEQUENCE"
            in
            map_result ext_of_node exts_seq
        | _ -> Error "TBSCertificate: unexpected trailing fields"
      in
      Ok { version; serial; sig_alg; issuer; not_before; not_after; subject;
           public_key; extensions }
  | _ -> Error "TBSCertificate: too few fields"

let of_der_impl ~fp raw =
  let* outer, rest = Der.read_node (Der.slice_of_string raw) in
  let* () =
    if rest.Der.len = 0 then Ok ()
    else Error (Printf.sprintf "trailing garbage: %d bytes" rest.Der.len)
  in
  let* fields = Der.as_sequence_n outer in
  match fields with
  | [ tbs_n; sig_alg_n; sig_n ] ->
      let* tbs = tbs_of_node tbs_n in
      let* family = alg_of_identifier_n sig_alg_n in
      let* sig_alg = sig_family_to_alg family None in
      let* _unused, sig_bytes = Der.as_bit_string_n sig_n in
      (* Recover the exact signature algorithm: the outer field must agree
         with the TBS inner field, which knows key sizes. *)
      let sig_alg =
        if Keys.signature_oid_name sig_alg = Keys.signature_oid_name tbs.sig_alg then
          tbs.sig_alg
        else sig_alg
      in
      let raw_tbs = Der.slice_string tbs_n.Der.n_raw in
      let fp = match fp with Some fp -> fp | None -> Sha256.digest raw in
      Ok (finish tbs { Keys.sig_alg; sig_bytes } ~raw ~raw_tbs ~fp)
  | _ -> Error "Certificate: expected 3 fields"

let of_der raw = of_der_impl ~fp:None raw

let of_der_keyed ~fp raw = of_der_impl ~fp:(Some fp) raw

let subject t = t.tbs.subject
let issuer t = t.tbs.issuer
let serial t = t.tbs.serial
let not_before t = t.tbs.not_before
let not_after t = t.tbs.not_after
let public_key t = t.tbs.public_key
let extensions t = t.tbs.extensions
let sig_alg t = t.signature.Keys.sig_alg

let find_ext oid t = Extension.find oid t.tbs.extensions

let subject_key_id t =
  match find_ext Oid.ext_subject_key_id t with
  | Some { value = Extension.Subject_key_id k; _ } -> Some k
  | _ -> None

let authority_key_id t =
  match find_ext Oid.ext_authority_key_id t with
  | Some { value = Extension.Authority_key_id a; _ } -> Some a
  | _ -> None

let basic_constraints t =
  match find_ext Oid.ext_basic_constraints t with
  | Some { value = Extension.Basic_constraints bc; _ } -> Some bc
  | _ -> None

let key_usage t =
  match find_ext Oid.ext_key_usage t with
  | Some { value = Extension.Key_usage f; _ } -> Some f
  | _ -> None

let ext_key_usage t =
  match find_ext Oid.ext_ext_key_usage t with
  | Some { value = Extension.Ext_key_usage p; _ } -> Some p
  | _ -> None

let san t =
  match find_ext Oid.ext_subject_alt_name t with
  | Some { value = Extension.Subject_alt_name names; _ } -> names
  | _ -> []

let aia_ca_issuers t =
  match find_ext Oid.ext_authority_info_access t with
  | Some { value = Extension.Authority_info_access a; _ } -> a.Extension.ca_issuers
  | _ -> []

let subject_hash t = t.subject_hash
let issuer_hash t = t.issuer_hash

let is_self_issued t =
  t.subject_hash = t.issuer_hash && Dn.equal t.tbs.subject t.tbs.issuer

let is_self_signed t = t.self_signed

let is_ca t = match basic_constraints t with Some { ca; _ } -> ca | None -> false
let validity_days t = Vtime.diff_days t.tbs.not_after t.tbs.not_before

let valid_at t now =
  Vtime.(t.tbs.not_before <= now) && Vtime.(now <= t.tbs.not_after)

(* Case-insensitive single-wildcard match per RFC 6125: the wildcard must be
   the entire left-most label and matches exactly one label. *)
let host_matches_pattern ~pattern ~host =
  let pattern = String.lowercase_ascii pattern and host = String.lowercase_ascii host in
  if String.equal pattern host then true
  else
    match String.index_opt pattern '*' with
    | Some 0 when String.length pattern > 1 && pattern.[1] = '.' -> (
        let suffix = String.sub pattern 1 (String.length pattern - 1) in
        match String.index_opt host '.' with
        | Some i ->
            String.equal suffix (String.sub host i (String.length host - i))
        | None -> false)
    | _ -> false

let matches_hostname t host =
  let dns_names =
    List.filter_map (function Extension.Dns d -> Some d | _ -> None) (san t)
  in
  if dns_names <> [] then
    List.exists (fun pattern -> host_matches_pattern ~pattern ~host) dns_names
  else
    match Dn.common_name t.tbs.subject with
    | Some cn -> host_matches_pattern ~pattern:cn ~host
    | None -> false

let summary t =
  Printf.sprintf "[%s] subject=%s issuer=%s"
    (String.sub (fingerprint_hex t) 0 8)
    (Dn.to_string t.tbs.subject) (Dn.to_string t.tbs.issuer)

let pp ppf t =
  Format.fprintf ppf
    "@[<v 2>Certificate %s@,Subject: %a@,Issuer:  %a@,Serial:  %s@,Validity: %a .. %a@,Key: %a@,%a@]"
    (String.sub (fingerprint_hex t) 0 16)
    Dn.pp t.tbs.subject Dn.pp t.tbs.issuer
    (Hex.encode t.tbs.serial) Vtime.pp t.tbs.not_before Vtime.pp t.tbs.not_after
    Keys.pp_public t.tbs.public_key
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Extension.pp)
    t.tbs.extensions
