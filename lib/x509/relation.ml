module Keys = Chaoschain_crypto.Keys

type kid_status = Kid_match | Kid_absent | Kid_mismatch

let kid_status_to_string = function
  | Kid_match -> "match"
  | Kid_absent -> "absent"
  | Kid_mismatch -> "mismatch"

let kid_status ~issuer ~child =
  match (Cert.subject_key_id issuer, Cert.authority_key_id child) with
  | Some skid, Some { Extension.akid_key_id = Some akid; _ } ->
      if String.equal skid akid then Kid_match else Kid_mismatch
  | _ -> Kid_absent

(* The precomputed hashes reject almost every non-chaining pair without
   touching the names. *)
let name_chains ~issuer ~child =
  Cert.subject_hash issuer = Cert.issuer_hash child
  && Dn.equal (Cert.subject issuer) (Cert.issuer child)

(* Signature checks dominate large-corpus runs (every check hashes the
   child's TBS); the verdict for a given (issuer, child) pair never changes,
   so memoize on the pair of fingerprints. Pipeline workers check
   signatures from several Domains and a [Hashtbl] is not safe to share
   unsynchronised, so each Domain keeps its own memo. *)
let sig_memo : (string, bool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let signature_ok ~issuer ~child =
  let sig_memo = Domain.DLS.get sig_memo in
  let key = Cert.fingerprint issuer ^ Cert.fingerprint child in
  match Hashtbl.find_opt sig_memo key with
  | Some v -> v
  | None ->
      let v =
        Keys.verify (Cert.public_key issuer) (Cert.tbs_der child) (Cert.signature child)
      in
      if Hashtbl.length sig_memo > 1_000_000 then Hashtbl.reset sig_memo;
      Hashtbl.add sig_memo key v;
      v

let sig_alg_compatible ~issuer ~child =
  let issuer_alg = (Cert.public_key issuer).Keys.alg in
  let child_sig = Cert.sig_alg child in
  match (issuer_alg, child_sig) with
  | (Keys.Rsa_1024 | Keys.Rsa_2048 | Keys.Rsa_4096),
    (Keys.Rsa_1024 | Keys.Rsa_2048 | Keys.Rsa_4096) -> true
  | Keys.Ecdsa_p256, Keys.Ecdsa_p256 | Keys.Ecdsa_p384, Keys.Ecdsa_p384 -> true
  | _ -> false

let issued ~issuer ~child =
  signature_ok ~issuer ~child
  && (name_chains ~issuer ~child || kid_status ~issuer ~child = Kid_match)

let issued_by_name ~issuer ~child =
  name_chains ~issuer ~child || kid_status ~issuer ~child = Kid_match
