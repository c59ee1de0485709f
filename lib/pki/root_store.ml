open Chaoschain_x509

type program = Mozilla | Chrome | Microsoft | Apple

let program_to_string = function
  | Mozilla -> "Mozilla"
  | Chrome -> "Chrome"
  | Microsoft -> "Microsoft"
  | Apple -> "Apple"

let all_programs = [ Mozilla; Chrome; Microsoft; Apple ]

module Smap = Map.Make (String)
module Imap = Map.Make (Int)

type t = {
  name : string;
  by_fp : Cert.t Smap.t;
  by_skid : Cert.t list Smap.t;
  by_subject : Cert.t list Imap.t; (* Cert.subject_hash; insertion order *)
  roots : Cert.t list; (* reverse insertion order *)
}

let empty name =
  { name; by_fp = Smap.empty; by_skid = Smap.empty; by_subject = Imap.empty; roots = [] }

let add t cert =
  let fp = Cert.fingerprint cert in
  if Smap.mem fp t.by_fp then t
  else
    let by_skid =
      match Cert.subject_key_id cert with
      | None -> t.by_skid
      | Some skid ->
          Smap.update skid
            (fun prev -> Some (cert :: Option.value prev ~default:[]))
            t.by_skid
    in
    let by_subject =
      Imap.update (Cert.subject_hash cert)
        (fun prev -> Some (Option.value prev ~default:[] @ [ cert ]))
        t.by_subject
    in
    { t with by_fp = Smap.add fp cert t.by_fp; by_skid; by_subject; roots = cert :: t.roots }

let make name certs = List.fold_left add (empty name) certs
let name t = t.name
let size t = Smap.cardinal t.by_fp
let certs t = List.rev t.roots
let mem t cert = Smap.mem (Cert.fingerprint cert) t.by_fp
let mem_skid t skid = Smap.mem skid t.by_skid
let find_by_skid t skid = Option.value (Smap.find_opt skid t.by_skid) ~default:[]

(* The bucket of roots whose subject hashes like [dn], confirmed with
   [Dn.equal]; buckets keep insertion order, as [certs] does. *)
let find_hashed t hash dn =
  match Imap.find_opt hash t.by_subject with
  | None -> []
  | Some bucket -> List.filter (fun root -> Dn.equal (Cert.subject root) dn) bucket

let find_by_subject t dn = find_hashed t (Dn.hash dn) dn
let issuer_candidates t cert = find_hashed t (Cert.issuer_hash cert) (Cert.issuer cert)

let union name stores =
  List.fold_left (fun acc s -> List.fold_left add acc (certs s)) (empty name) stores
