open Chaoschain_x509
module Certmsg = Chaoschain_tlssim.Certmsg
module Report = Chaoschain_report.Report

type chain_stats = { cs_chains : int; cs_domains : int }

type format_agreement = {
  fa_chains : int;
  fa_agree : int;
  fa_bytes12 : int;
  fa_bytes13 : int;
}

type t = {
  domains : int;
  unique_chains : int;
  unique_certs : int;
  subject_keys : int;
  issuer_keys : int;
  ordered : chain_stats;
  unordered : chain_stats;
  with_duplicates : chain_stats;
  self_contained : chain_stats;
  transvalid : chain_stats;
  unbuildable : chain_stats;
  with_unused : chain_stats;
  agreement : format_agreement;
}

(* Certificates indexed by one of their names under RFC 5280 name
   chaining: buckets keyed by the name's precomputed [Dn.hash], each
   holding the [Dn.equal] classes that share the hash, with their
   certificates in insertion order. *)
let index_add tbl hash dn c =
  let rec add = function
    | [] -> [ (dn, [ c ]) ]
    | (d, cs) :: rest when Dn.equal d dn -> (d, cs @ [ c ]) :: rest
    | cl :: rest -> cl :: add rest
  in
  Hashtbl.replace tbl hash
    (add (Option.value (Hashtbl.find_opt tbl hash) ~default:[]))

let index_find tbl hash dn =
  match Hashtbl.find_opt tbl hash with
  | None -> []
  | Some classes -> (
      match List.find_opt (fun (d, _) -> Dn.equal d dn) classes with
      | Some (_, cs) -> cs
      | None -> [])

let index_classes tbl =
  Hashtbl.fold (fun _ classes n -> n + List.length classes) tbl 0

(* Walk from the leaf towards a self-signed root, pulling the candidate
   issuers of each hop from [lookup] (either the sent list or the
   corpus-wide subject index); cycles are cut on certificate fingerprints.
   Returns the path and whether it reached a self-signed certificate. *)
let build_path ~lookup leaf =
  let rec go acc seen c =
    if Cert.is_self_signed c then (List.rev (c :: acc), true)
    else
      let next =
        List.find_opt
          (fun cand ->
            (not (List.mem (Cert.fingerprint cand) seen))
            && Dn.equal (Cert.subject cand) (Cert.issuer c))
          (lookup c)
      in
      match next with
      | None -> (List.rev (c :: acc), false)
      | Some n -> go (c :: acc) (Cert.fingerprint n :: seen) n
  in
  go [] [ Cert.fingerprint leaf ] leaf

(* Leaf-first with every adjacent pair name-chained (RFC 8446: each
   certificate certifies the one preceding it). A single certificate is
   trivially ordered; an empty list is not a chain. *)
let is_ordered = function
  | [] -> false
  | chain ->
      let rec pairs = function
        | a :: (b :: _ as rest) ->
            Dn.equal (Cert.issuer a) (Cert.subject b) && pairs rest
        | [ _ ] | [] -> true
      in
      pairs chain

(* One unique chain's classification. *)
type info = {
  i_domains : int;
  i_dups : bool;
  i_ordered : bool;
  i_self_contained : bool;
  i_built : bool;  (* includes self-contained *)
  i_unused : bool;
}

let classify_chain ~by_subject chain domains =
  let fps = List.map Cert.fingerprint chain in
  let dups = List.length fps <> List.length (List.sort_uniq compare fps) in
  let in_sent c =
    List.filter (fun s -> Dn.equal (Cert.subject s) (Cert.issuer c)) chain
  in
  let in_corpus c =
    (* sent certificates first: a self-contained chain must not be counted
       transvalid just because the corpus also knows its issuers *)
    in_sent c @ index_find by_subject (Cert.issuer_hash c) (Cert.issuer c)
  in
  match chain with
  | [] ->
      { i_domains = domains; i_dups = dups; i_ordered = false;
        i_self_contained = false; i_built = false; i_unused = false }
  | leaf :: _ ->
      let _, self_contained = build_path ~lookup:in_sent leaf in
      let path, built = build_path ~lookup:in_corpus leaf in
      let unused =
        built
        && List.exists
             (fun c ->
               not
                 (List.exists (fun p -> Cert.equal p c) path))
             chain
      in
      { i_domains = domains; i_dups = dups; i_ordered = is_ordered chain;
        i_self_contained = self_contained; i_built = built;
        i_unused = unused }

let round_trip acc chain =
  let encode fmt = Certmsg.encode (Certmsg.of_certs fmt chain) in
  let wire12 = encode Certmsg.Tls12 and wire13 = encode Certmsg.Tls13 in
  let decode fmt wire =
    match Certmsg.decode fmt wire with
    | Ok msg -> Some (Certmsg.certs msg)
    | Error _ -> None
  in
  let agree =
    match (decode Certmsg.Tls12 wire12, decode Certmsg.Tls13 wire13) with
    | Some a, Some b -> List.equal Cert.equal a b
    | _ -> false
  in
  {
    fa_chains = acc.fa_chains + 1;
    fa_agree = (acc.fa_agree + if agree then 1 else 0);
    fa_bytes12 = acc.fa_bytes12 + String.length wire12;
    fa_bytes13 = acc.fa_bytes13 + String.length wire13;
  }

let run pairs =
  (* Dedup chains (by fingerprint concatenation) and certificates. *)
  let chains = Hashtbl.create 256 and order = ref [] in
  let certs = Hashtbl.create 1024 in
  Array.iter
    (fun (_, chain) ->
      let key = String.concat "" (List.map Cert.fingerprint chain) in
      (match Hashtbl.find_opt chains key with
      | Some (c, n) -> Hashtbl.replace chains key (c, n + 1)
      | None ->
          Hashtbl.add chains key (chain, 1);
          order := key :: !order);
      List.iter (fun c -> Hashtbl.replace certs (Cert.fingerprint c) c) chain)
    pairs;
  let order = List.rev !order in
  (* The parsifal-style indexes over unique certificates. *)
  let by_subject = Hashtbl.create (Hashtbl.length certs) in
  let by_issuer = Hashtbl.create (Hashtbl.length certs) in
  Hashtbl.iter
    (fun _ c ->
      index_add by_subject (Cert.subject_hash c) (Cert.subject c) c;
      index_add by_issuer (Cert.issuer_hash c) (Cert.issuer c) c)
    certs;
  let infos =
    List.map
      (fun key ->
        let chain, n = Hashtbl.find chains key in
        (chain, classify_chain ~by_subject chain n))
      order
  in
  let bucket pred =
    List.fold_left
      (fun acc (_, i) ->
        if pred i then
          { cs_chains = acc.cs_chains + 1;
            cs_domains = acc.cs_domains + i.i_domains }
        else acc)
      { cs_chains = 0; cs_domains = 0 }
      infos
  in
  let agreement =
    List.fold_left
      (fun acc (chain, _) -> round_trip acc chain)
      { fa_chains = 0; fa_agree = 0; fa_bytes12 = 0; fa_bytes13 = 0 }
      infos
  in
  {
    domains = Array.length pairs;
    unique_chains = List.length infos;
    unique_certs = Hashtbl.length certs;
    subject_keys = index_classes by_subject;
    issuer_keys = index_classes by_issuer;
    ordered = bucket (fun i -> i.i_ordered);
    unordered = bucket (fun i -> not i.i_ordered);
    with_duplicates = bucket (fun i -> i.i_dups);
    self_contained = bucket (fun i -> i.i_self_contained);
    transvalid = bucket (fun i -> i.i_built && not i.i_self_contained);
    unbuildable = bucket (fun i -> not i.i_built);
    with_unused = bucket (fun i -> i.i_unused);
    agreement;
  }

let report t =
  let open Report in
  let corpus =
    let b = Table.create ~title:"Corpus indexes"
        ~header:[ ""; "count" ] in
    Table.row b [ text "domains"; count t.domains ];
    Table.row b [ text "unique chains"; count t.unique_chains ];
    Table.row b [ text "unique certificates"; count t.unique_certs ];
    Table.row b [ text "distinct subject DNs"; count t.subject_keys ];
    Table.row b [ text "distinct issuer DNs"; count t.issuer_keys ];
    Table.block b
  in
  let classes =
    let b =
      Table.create ~title:"Chain classes"
        ~header:[ "class"; "chains"; "% chains"; "domains" ]
    in
    let row label (s : chain_stats) =
      Table.row b
        [ text label; count s.cs_chains;
          percent ~num:s.cs_chains ~den:t.unique_chains;
          count s.cs_domains ]
    in
    row "ordered (leaf-first)" t.ordered;
    row "unordered" t.unordered;
    row "with duplicate certificates" t.with_duplicates;
    Table.sep b;
    row "self-contained (sent certs reach a root)" t.self_contained;
    row "transvalid (buildable with corpus issuers)" t.transvalid;
    row "unbuildable" t.unbuildable;
    row "with unused certificates" t.with_unused;
    Table.block b
  in
  let formats =
    let a = t.agreement in
    let b =
      Table.create ~title:"Certificate-message framings"
        ~header:[ ""; "value" ]
    in
    Table.row b [ text "chains round-tripped"; count a.fa_chains ];
    Table.row b
      [ text "TLS 1.2/1.3 decode agreement";
        count_pct ~num:a.fa_agree ~den:a.fa_chains ];
    Table.row b [ text "TLS 1.2 wire bytes (total)"; count a.fa_bytes12 ];
    Table.row b [ text "TLS 1.3 wire bytes (total)"; count a.fa_bytes13 ];
    Table.row b
      [ text "TLS 1.3 framing overhead (bytes)";
        count (a.fa_bytes13 - a.fa_bytes12) ];
    Table.block b
  in
  {
    id = "classify";
    title = "Corpus chain classification";
    blocks = [ corpus; classes; formats ];
  }
