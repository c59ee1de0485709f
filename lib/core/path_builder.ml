open Chaoschain_x509
open Chaoschain_pki

type error =
  | Empty_chain
  | Input_list_too_long of { limit : int; got : int }
  | Self_signed_leaf_rejected
  | No_issuer_found of Dn.t
  | Path_too_long of { limit : int }

let error_to_string = function
  | Empty_chain -> "empty certificate list"
  | Input_list_too_long { limit; got } ->
      Printf.sprintf "certificate list too long (%d > limit %d)" got limit
  | Self_signed_leaf_rejected -> "self-signed leaf certificate rejected"
  | No_issuer_found dn ->
      Printf.sprintf "unable to get issuer certificate for '%s'" (Dn.to_string dn)
  | Path_too_long { limit } ->
      Printf.sprintf "constructed path exceeds maximum length %d" limit

type context = {
  params : Build_params.t;
  store : Root_store.t;
  aia : Aia_repo.t option;
  cache : Cert.t list;
  crls : Crl_registry.t option;
  now : Vtime.t;
}

let context ?aia ?(cache = []) ?crls ?(now = Vtime.make ~y:2024 ~m:6 ~d:1 ())
    ~params store =
  { params; store; aia; cache; crls; now }

type attempt = {
  path : Cert.t list;
  anchored : bool;
  used_aia : bool;
  used_cache : bool;
}

type source = From_list of int | From_store | From_cache | From_aia

type candidate = { cert : Cert.t; source : source }

let source_position = function
  | From_list p -> p
  | From_store -> 1000
  | From_cache -> 2000
  | From_aia -> 3000

let epoch = Vtime.make ~y:1970 ~m:1 ~d:1 ()

(* Smaller key sorts first. *)
let rank_key ctx ~child cand =
  let p = ctx.params in
  let c = cand.cert in
  let kid_rank =
    match (p.Build_params.kid_priority, Relation.kid_status ~issuer:c ~child) with
    | Build_params.KP_none, _ -> 0
    | _, Relation.Kid_match -> 0
    | Build_params.KP1, Relation.Kid_absent -> 0
    | Build_params.KP2, Relation.Kid_absent -> 1
    | _, Relation.Kid_mismatch -> 2
  in
  let trusted_rank =
    if p.Build_params.prefer_trusted_root && Root_store.mem ctx.store c then 0 else 1
  in
  let self_signed_rank =
    if p.Build_params.prefer_self_signed && Cert.is_self_signed c then 0 else 1
  in
  let ku_rank =
    if not p.Build_params.ku_priority then 0
    else
      match Cert.key_usage c with
      | None -> 0
      | Some flags -> if List.mem Extension.Key_cert_sign flags then 0 else 1
  in
  let bc_rank =
    if not p.Build_params.bc_priority then 0
    else
      match Cert.basic_constraints c with
      | Some { Extension.ca = true; path_len } -> (
          (* Intermediates already below the candidate, excluding the leaf. *)
          match path_len with
          | None -> 0
          | Some n -> if n >= 0 && n + 1 >= 1 then 0 else 1)
      | Some { Extension.ca = false; _ } -> 1
      | None -> 1
  in
  let sig_alg_rank =
    if p.Build_params.check_sig_alg && not (Relation.sig_alg_compatible ~issuer:c ~child)
    then 1
    else 0
  in
  let validity_ranks =
    match p.Build_params.validity_priority with
    | Build_params.VP_none -> [ 0; 0; 0 ]
    | Build_params.VP_first_valid ->
        [ (if Cert.valid_at c ctx.now then 0 else 1); 0; 0 ]
    | Build_params.VP_recent_longest ->
        [ (if Cert.valid_at c ctx.now then 0 else 1);
          - Vtime.diff_days (Cert.not_before c) epoch;
          - Cert.validity_days c ]
  in
  [ kid_rank; trusted_rank; self_signed_rank; ku_rank; bc_rank; sig_alg_rank ]
  @ validity_ranks
  @ [ source_position cand.source ]

(* bc_rank needs the depth of the candidate in the path; recompute properly. *)
let bc_rank_at_depth cand ~intermediates_below =
  match Cert.basic_constraints cand.cert with
  | Some { Extension.ca = true; path_len = None } -> 0
  | Some { Extension.ca = true; path_len = Some n } ->
      if n >= intermediates_below then 0 else 1
  | Some { Extension.ca = false; _ } -> 1
  | None -> 1

let compare_keys = List.compare Int.compare

let rank_candidates ctx ~child ~path_len_so_far cands =
  let keyed =
    List.map
      (fun cand ->
        let base = rank_key ctx ~child cand in
        let key =
          if ctx.params.Build_params.bc_priority then
            (* Replace the coarse bc rank (index 4) with the depth-aware one:
               intermediates below the candidate = certificates already in
               the path except the leaf. *)
            List.mapi
              (fun i v ->
                if i = 4 then bc_rank_at_depth cand ~intermediates_below:(path_len_so_far - 1)
                else v)
              base
          else base
        in
        (key, cand))
      cands
  in
  List.stable_sort (fun (a, _) (b, _) -> compare_keys a b) keyed |> List.map snd

let name_chains_to ~candidate ~child = Relation.issued_by_name ~issuer:candidate ~child

(* The candidate filters test name chaining first: it is a compare of two
   cached hashes for almost every non-issuer, while the [used] probe hashes a
   fingerprint. All three tests are pure, so the order cannot change the
   result. *)
let in_list_candidates ctx positions ~used ~cur_pos ~child =
  List.filter_map
    (fun (pos, cert) ->
      let eligible_pos = ctx.params.Build_params.reorder || pos > cur_pos in
      if eligible_pos
         && name_chains_to ~candidate:cert ~child
         && (not (Hashtbl.mem used (Cert.fingerprint cert)))
         && not (Cert.equal cert child)
      then Some { cert; source = From_list pos }
      else None)
    positions

let store_candidates ctx ~used ~child =
  List.filter_map
    (fun cert ->
      if (not (Hashtbl.mem used (Cert.fingerprint cert))) && not (Cert.equal cert child)
      then Some { cert; source = From_store }
      else None)
    (Root_store.issuer_candidates ctx.store child)

let cache_candidates ctx ~used ~child =
  if not ctx.params.Build_params.intermediate_cache then []
  else
    List.filter_map
      (fun cert ->
        if name_chains_to ~candidate:cert ~child
           && (not (Hashtbl.mem used (Cert.fingerprint cert)))
           && not (Cert.equal cert child)
        then Some { cert; source = From_cache }
        else None)
      ctx.cache

let aia_candidates ctx ~used ~child =
  match ctx.aia with
  | None -> []
  | Some repo when ctx.params.Build_params.aia_fetch -> (
      match Cert.aia_ca_issuers child with
      | [] -> []
      | uri :: _ -> (
          match Aia_repo.fetch repo uri with
          | Aia_repo.Served cert
            when (not (Hashtbl.mem used (Cert.fingerprint cert)))
                 && (not (Cert.equal cert child))
                 && name_chains_to ~candidate:cert ~child ->
              [ { cert; source = From_aia } ]
          | _ -> []))
  | Some _ -> []

let dedup_by_fingerprint cands =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun cand ->
      let fp = Cert.fingerprint cand.cert in
      if Hashtbl.mem seen fp then false
      else begin
        Hashtbl.add seen fp ();
        true
      end)
    cands

(* The DFS. [on_dead_end] observes the first dead-end issuer DN. *)
let explore ctx positions ~on_dead_end leaf : attempt Seq.t =
  let max_len =
    match ctx.params.Build_params.length_limit with
    | Build_params.Max_constructed n -> Some n
    | _ -> None
  in
  let rec step rev_path used cur_pos flags () =
    let child = List.hd rev_path in
    let path_complete =
      Cert.is_self_signed child || Root_store.mem ctx.store child
    in
    if path_complete then
      let used_aia, used_cache = flags in
      Seq.Cons
        ( { path = List.rev rev_path;
            anchored = Root_store.mem ctx.store child;
            used_aia;
            used_cache },
          Seq.empty )
    else begin
      let list_cands = in_list_candidates ctx positions ~used ~cur_pos ~child in
      let store_cands = store_candidates ctx ~used ~child in
      let cache_cands = cache_candidates ctx ~used ~child in
      let primary = dedup_by_fingerprint (list_cands @ store_cands @ cache_cands) in
      let cands =
        if primary = [] then aia_candidates ctx ~used ~child else primary
      in
      let cands =
        if ctx.params.Build_params.partial_validation then
          List.filter (fun c -> Relation.signature_ok ~issuer:c.cert ~child) cands
        else cands
      in
      (* MbedTLS-style revocation-during-construction: drop a candidate when
         its CRL says the child is revoked (unknown status is tolerated). *)
      let cands =
        match (ctx.params.Build_params.revocation, ctx.crls) with
        | Build_params.During_construction, Some registry ->
            List.filter
              (fun c ->
                match Crl_registry.status registry ~issuer:c.cert ~now:ctx.now child with
                | Crl.Revoked _ -> false
                | Crl.Good | Crl.Unknown_status _ -> true)
              cands
        | _ -> cands
      in
      let cands =
        match max_len with
        | Some limit when List.length rev_path + 1 > limit -> []
        | _ -> cands
      in
      let cands =
        rank_candidates ctx ~child ~path_len_so_far:(List.length rev_path) cands
      in
      if cands = [] then begin
        on_dead_end (Cert.issuer child);
        Seq.Nil
      end
      else
        let branches =
          List.to_seq cands
          |> Seq.flat_map (fun cand ->
                 let used' = Hashtbl.copy used in
                 Hashtbl.replace used' (Cert.fingerprint cand.cert) ();
                 let used_aia, used_cache = flags in
                 let flags' =
                   ( used_aia || cand.source = From_aia,
                     used_cache || cand.source = From_cache )
                 in
                 let pos =
                   match cand.source with From_list p -> p | _ -> cur_pos
                 in
                 step (cand.cert :: rev_path) used' pos flags')
        in
        branches ()
    end
  in
  let used = Hashtbl.create 8 in
  Hashtbl.replace used (Cert.fingerprint leaf) ();
  fun () -> step [ leaf ] used 0 (false, false) ()

let prepare ctx certs =
  match certs with
  | [] -> Error Empty_chain
  | leaf :: _ -> (
      match ctx.params.Build_params.length_limit with
      | Build_params.Max_input_list limit when List.length certs > limit ->
          Error (Input_list_too_long { limit; got = List.length certs })
      | _ ->
          if Cert.is_self_signed leaf
             && not ctx.params.Build_params.allow_self_signed_leaf
          then Error Self_signed_leaf_rejected
          else Ok leaf)

let build ctx certs =
  match prepare ctx certs with
  | Error e -> Error e
  | Ok leaf ->
      let positions = List.mapi (fun i c -> (i, c)) certs in
      Ok (explore ctx positions ~on_dead_end:(fun _ -> ()) leaf)

let first_dead_end ctx certs =
  match prepare ctx certs with
  | Error _ -> None
  | Ok leaf ->
      let positions = List.mapi (fun i c -> (i, c)) certs in
      let result = ref None in
      let record dn = if !result = None then result := Some dn in
      (* Force at most the first element so only the best-ranked branch (and
         its dead ends) are explored. *)
      (match (explore ctx positions ~on_dead_end:record leaf) () with
      | Seq.Nil | Seq.Cons _ -> ());
      !result
