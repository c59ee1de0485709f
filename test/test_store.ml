(* chainstore (lib/store): CRC-32 vectors, frame codec round-trip and
   damage taxonomy, Merkle proofs across tree shapes (layered tree and
   frontier pinned against the recursive RFC 6962 definition), offset-index
   round-trip and damage taxonomy (the segment always wins over its index),
   store writer/reader round-trip with content-address deduplication,
   random access and inclusion proofs with and without the persisted
   sidecars, certificate-segment compaction, corpus save -> load -> replay
   byte-identity (jobs-invariant), truncated-tail crash recovery via audit,
   and warm-store cache pre-fill. *)

open Chaoschain_measurement
module Store = Chaoschain_store.Store
module Frame = Chaoschain_store.Frame
module Merkle = Chaoschain_store.Merkle
module Crc32 = Chaoschain_store.Crc32
module Index = Chaoschain_store.Index
module Sha256 = Chaoschain_crypto.Sha256
module Hex = Chaoschain_crypto.Hex
module S = Chaoschain_service
module Engine = S.Engine
module Json = Chaoschain_report.Json

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "chainstore-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (try
       Array.iter
         (fun f -> Sys.remove (Filename.concat dir f))
         (Sys.readdir dir)
     with Sys_error _ -> ());
    dir

(* --- CRC-32 --- *)

let crc_vectors () =
  (* The standard check value, plus a couple of knowns. *)
  Alcotest.(check int) "empty" 0 (Crc32.digest "");
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.digest "123456789");
  Alcotest.(check int) "single byte" 0xE8B7BE43 (Crc32.digest "a");
  Alcotest.(check int) "sub = whole" (Crc32.digest "456")
    (Crc32.digest_sub "123456789" 3 3);
  (match Crc32.digest_sub "abc" 2 2 with
  | _ -> Alcotest.fail "out-of-range accepted"
  | exception Invalid_argument _ -> ())

let qcheck_crc_sub =
  QCheck.Test.make ~name:"digest_sub agrees with digest of the copy" ~count:200
    QCheck.(
      triple (string_of_size Gen.(0 -- 64)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      Crc32.digest_sub s off len = Crc32.digest (String.sub s off len))

(* --- frame codec --- *)

let frame_payloads = [ (1, ""); (1, "x"); (2, String.make 300 '\xff'); (3, "der bytes") ]

let frame_segment () =
  let b = Buffer.create 64 in
  List.iter (fun (kind, p) -> Frame.add b ~kind p) frame_payloads;
  Buffer.contents b

let frame_round_trip () =
  let seg = frame_segment () in
  let frames, tail =
    Frame.fold seg ~init:[] ~f:(fun acc ~kind ~payload -> (kind, payload) :: acc)
  in
  (match tail with Frame.Clean -> () | _ -> Alcotest.fail "tail not clean");
  Alcotest.(check (list (pair int string))) "payloads preserved" frame_payloads
    (List.rev frames);
  (* stepping by hand agrees with fold *)
  match Frame.read seg 0 with
  | Frame.Frame { kind; payload; next } ->
      Alcotest.(check int) "kind" 1 kind;
      Alcotest.(check string) "payload" "" payload;
      Alcotest.(check int) "next" Frame.header_size next
  | _ -> Alcotest.fail "first frame unreadable"

let frame_truncated_tail () =
  let seg = frame_segment () in
  (* every strictly-shorter prefix that cuts a frame reports Truncated_at
     with the offset of the last whole frame *)
  let cut = String.sub seg 0 (String.length seg - 3) in
  let n_whole = ref 0 in
  let _, tail =
    Frame.fold cut ~init:() ~f:(fun () ~kind:_ ~payload:_ -> incr n_whole)
  in
  (match tail with
  | Frame.Truncated_at off ->
      Alcotest.(check int) "three whole frames" 3 !n_whole;
      (* offset points at the start of the partial frame *)
      (match Frame.read seg off with
      | Frame.Frame { kind = 3; payload = "der bytes"; _ } -> ()
      | _ -> Alcotest.fail "offset does not resume at the cut frame")
  | _ -> Alcotest.fail "truncation not detected");
  (* a bare partial header is also a truncated tail, not corruption *)
  match Frame.fold (String.sub seg 0 4) ~init:() ~f:(fun () ~kind:_ ~payload:_ -> ()) with
  | (), Frame.Truncated_at 0 -> ()
  | _ -> Alcotest.fail "partial header"

let frame_corruption () =
  let seg = Bytes.of_string (frame_segment ()) in
  (* flip one payload byte of the third frame *)
  let off = (3 * Frame.header_size) + 1 + 20 in
  Bytes.set seg off (Char.chr (Char.code (Bytes.get seg off) lxor 0xFF));
  let _, tail =
    Frame.fold (Bytes.to_string seg) ~init:() ~f:(fun () ~kind:_ ~payload:_ -> ())
  in
  match tail with
  | Frame.Corrupt_at (_, _) -> ()
  | _ -> Alcotest.fail "CRC damage not detected"

(* --- Merkle tree --- *)

let merkle_proofs_all_shapes () =
  for n = 1 to 17 do
    let leaves =
      Array.init n (fun i -> Merkle.leaf_hash (Printf.sprintf "record %d" i))
    in
    let root = Merkle.root leaves in
    for i = 0 to n - 1 do
      let path = Merkle.proof leaves i in
      if not (Merkle.verify ~root ~index:i ~count:n leaves.(i) path) then
        Alcotest.fail (Printf.sprintf "proof %d/%d rejected" i n);
      (* the proof binds the index: the same path fails elsewhere *)
      if n > 1 then begin
        let j = (i + 1) mod n in
        if Merkle.verify ~root ~index:j ~count:n leaves.(i) path then
          Alcotest.fail (Printf.sprintf "proof %d/%d verified at index %d" i n j)
      end;
      (* ... and the leaf *)
      if
        Merkle.verify ~root ~index:i ~count:n
          (Merkle.leaf_hash "someone else") path
        && n > 1
      then Alcotest.fail "foreign leaf accepted"
    done
  done

let merkle_domain_separation () =
  (* leaf and node prefixes differ, so a 64-byte payload that happens to be
     a concatenation of two hashes cannot be replayed as an interior node *)
  let a = Merkle.leaf_hash "a" and b = Merkle.leaf_hash "b" in
  let as_leaf = Merkle.leaf_hash (a ^ b) in
  let as_node = Merkle.node_hash a b in
  Alcotest.(check bool) "prefixes separate" false (String.equal as_leaf as_node);
  (* empty tree is the hash of the empty string *)
  Alcotest.(check string) "empty tree"
    (Chaoschain_crypto.Hex.encode (Chaoschain_crypto.Sha256.digest ""))
    (Chaoschain_crypto.Hex.encode (Merkle.root [||]))

(* --- Merkle: layered tree vs the recursive RFC 6962 definition --- *)

(* Straight transcription of RFC 6962 section 2.1: MTH splits at the
   largest power of two strictly below n. The layered Tree and the
   incremental Frontier must agree with this for every shape. *)
let ref_split n =
  let rec go k = if 2 * k < n then go (2 * k) else k in
  go 1

let rec ref_root leaves lo hi =
  match hi - lo with
  | 0 -> Sha256.digest ""
  | 1 -> leaves.(lo)
  | n ->
      let k = ref_split n in
      Merkle.node_hash (ref_root leaves lo (lo + k)) (ref_root leaves (lo + k) hi)

let rec ref_path leaves m lo hi =
  if hi - lo <= 1 then []
  else begin
    let k = ref_split (hi - lo) in
    if m < lo + k then ref_path leaves m lo (lo + k) @ [ ref_root leaves (lo + k) hi ]
    else ref_path leaves m (lo + k) hi @ [ ref_root leaves lo (lo + k) ]
  end

let merkle_tree_matches_reference () =
  for n = 1 to 33 do
    let leaves =
      Array.init n (fun i -> Merkle.leaf_hash (Printf.sprintf "ref %d/%d" i n))
    in
    let tree = Merkle.Tree.of_leaf_hashes leaves in
    let expect = ref_root leaves 0 n in
    Alcotest.(check string)
      (Printf.sprintf "tree root n=%d" n)
      (Hex.encode expect)
      (Hex.encode (Merkle.Tree.root tree));
    Alcotest.(check string)
      (Printf.sprintf "frontier root n=%d" n)
      (Hex.encode expect)
      (Hex.encode (Merkle.root leaves));
    for i = 0 to n - 1 do
      let got = Merkle.Tree.proof tree i in
      let want = ref_path leaves i 0 n in
      if not (List.equal String.equal got want) then
        Alcotest.fail (Printf.sprintf "path %d/%d differs from RFC 6962" i n)
    done
  done

let qcheck_frontier_vs_rebuild =
  QCheck.Test.make ~name:"frontier root = full rebuild root" ~count:100
    QCheck.(list_of_size Gen.(0 -- 200) (string_of_size Gen.(0 -- 24)))
    (fun payloads ->
      let leaves = Array.of_list (List.map Merkle.leaf_hash payloads) in
      let f = Merkle.Frontier.create () in
      Array.iter (Merkle.Frontier.add f) leaves;
      Merkle.Frontier.count f = Array.length leaves
      && String.equal (Merkle.Frontier.root f)
           (Merkle.Tree.root (Merkle.Tree.of_leaf_hashes leaves)))

let merkle_proof_edges () =
  (* empty tree: hash of the empty string, no leaves, no valid proofs *)
  let empty = Merkle.Tree.of_leaf_hashes [||] in
  Alcotest.(check int) "empty leaf count" 0 (Merkle.Tree.leaf_count empty);
  Alcotest.(check string) "empty root"
    (Hex.encode (Sha256.digest ""))
    (Hex.encode (Merkle.Tree.root empty));
  (match Merkle.Tree.proof empty 0 with
  | _ -> Alcotest.fail "proof out of an empty tree"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "count 0 never verifies" false
    (Merkle.verify ~root:(Merkle.Tree.root empty) ~index:0 ~count:0
       (Merkle.leaf_hash "x") []);
  (* single leaf: the leaf hash IS the root and the path is empty *)
  let leaf = Merkle.leaf_hash "only" in
  let one = Merkle.Tree.of_leaf_hashes [| leaf |] in
  Alcotest.(check string) "single-leaf root" (Hex.encode leaf)
    (Hex.encode (Merkle.Tree.root one));
  Alcotest.(check (list string)) "single-leaf path is empty" []
    (Merkle.Tree.proof one 0);
  Alcotest.(check bool) "single-leaf proof verifies" true
    (Merkle.verify ~root:leaf ~index:0 ~count:1 leaf []);
  Alcotest.(check bool) "foreign leaf rejected" false
    (Merkle.verify ~root:leaf ~index:0 ~count:1 (Merkle.leaf_hash "other") []);
  Alcotest.(check bool) "padded path rejected" false
    (Merkle.verify ~root:leaf ~index:0 ~count:1 leaf [ leaf ]);
  (* short path: chopping the last element must not verify *)
  let leaves = Array.init 5 (fun i -> Merkle.leaf_hash (string_of_int i)) in
  let tree = Merkle.Tree.of_leaf_hashes leaves in
  let root = Merkle.Tree.root tree in
  let path = Merkle.Tree.proof tree 2 in
  Alcotest.(check bool) "full path ok" true
    (Merkle.verify ~root ~index:2 ~count:5 leaves.(2) path);
  let short = List.filteri (fun i _ -> i < List.length path - 1) path in
  Alcotest.(check bool) "short path rejected" false
    (Merkle.verify ~root ~index:2 ~count:5 leaves.(2) short)

let merkle_parallel_build_identical () =
  (* large enough to clear Par.min_parallel so the sliced code path runs *)
  let n = 5000 in
  let payloads = Array.init n (fun i -> Printf.sprintf "payload %06d" i) in
  let seq_tree = Merkle.Tree.of_payloads payloads in
  let pool = Pipeline.Pool.create ~jobs:3 in
  let par_tree =
    Fun.protect
      ~finally:(fun () -> Pipeline.Pool.shutdown pool)
      (fun () -> Merkle.Tree.of_payloads ~par:(Pipeline.Pool.run pool) payloads)
  in
  Alcotest.(check string) "parallel build is byte-identical"
    (Merkle.Tree.serialize seq_tree)
    (Merkle.Tree.serialize par_tree);
  (* serialization round-trips, and shape damage is a decode error *)
  let wire = Merkle.Tree.serialize seq_tree in
  (match Merkle.Tree.deserialize wire with
  | Ok t ->
      Alcotest.(check string) "round-trip root"
        (Hex.encode (Merkle.Tree.root seq_tree))
        (Hex.encode (Merkle.Tree.root t))
  | Error e -> Alcotest.fail ("deserialize: " ^ e));
  match Merkle.Tree.deserialize (String.sub wire 0 (String.length wire - 7)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated tree accepted"

(* --- offset index: round-trip, damage taxonomy, agreement probe --- *)

let index_round_trip () =
  let b = Buffer.create 256 in
  for i = 0 to 9 do
    Frame.add b ~kind:2 (Printf.sprintf "record %d body %s" i (String.make i 'z'))
  done;
  let seg = Buffer.contents b in
  let idx, tail = Index.of_segment seg in
  (match tail with Frame.Clean -> () | _ -> Alcotest.fail "segment not clean");
  Alcotest.(check int) "count" 10 idx.Index.count;
  Alcotest.(check int) "seg_len" (String.length seg) idx.Index.seg_len;
  (* encode/decode round-trip *)
  (match Index.decode (Index.encode idx) with
  | Ok idx' ->
      Alcotest.(check bool) "decode = encode^-1" true
        (idx'.Index.count = idx.Index.count
        && idx'.Index.seg_len = idx.Index.seg_len
        && idx'.Index.offsets = idx.Index.offsets)
  | Error e -> Alcotest.fail ("decode: " ^ e));
  (* the probe accepts the truthful index and rejects every lie *)
  Alcotest.(check bool) "agrees" true (Index.agrees idx seg ~kind:2);
  Alcotest.(check bool) "kind mismatch" false (Index.agrees idx seg ~kind:1);
  let shifted =
    { idx with Index.offsets = Array.map (fun o -> o + 1) idx.Index.offsets }
  in
  Alcotest.(check bool) "shifted offsets" false (Index.agrees shifted seg ~kind:2);
  (* save/load validates length and structure *)
  let path = Filename.temp_file "chainstore-idx" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Index.save path idx;
      (match Index.load path ~seg_len:(String.length seg) with
      | Ok idx' -> Alcotest.(check int) "loaded count" 10 idx'.Index.count
      | Error e -> Alcotest.fail ("load: " ^ e));
      (match Index.load path ~seg_len:(String.length seg - 1) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "stale seg_len accepted");
      (* truncated sidecar is an error, not a crash *)
      let data =
        let ic = open_in_bin path in
        let d = really_input_string ic (in_channel_length ic) in
        close_in ic;
        d
      in
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 (String.length data - 3));
      close_out oc;
      match Index.load path ~seg_len:(String.length seg) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated sidecar accepted");
  match Index.load "/nonexistent/never.idx" ~seg_len:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing sidecar accepted"

(* --- store round-trip --- *)

let fake_der i = Printf.sprintf "not-really-DER-%04d-%s" i (String.make 40 'q')

let store_round_trip () =
  let dir = tmp_dir () in
  let w = Store.create dir in
  let fp0 = Store.add_cert w (fake_der 0) in
  let fp1 = Store.add_cert w (fake_der 1) in
  let fp0' = Store.add_cert w (fake_der 0) in
  Alcotest.(check string) "dedup returns same fp" fp0 fp0';
  Store.add_obs w "obs one";
  Store.add_obs w "obs two";
  Store.add_env w "env entry";
  let root = Store.close w ~scale:0.125 in
  match Store.open_ dir with
  | Error e -> Alcotest.fail ("strict open failed: " ^ e)
  | Ok t ->
      Alcotest.(check int) "two certs (dedup)" 2 (Store.cert_count t);
      Alcotest.(check (array string)) "obs order" [| "obs one"; "obs two" |]
        (Store.observations t);
      Alcotest.(check (array string)) "env order" [| "env entry" |]
        (Store.env_entries t);
      Alcotest.(check (option string)) "find_cert" (Some (fake_der 1))
        (Store.find_cert t fp1);
      Alcotest.(check (option string)) "unknown fp" None
        (Store.find_cert t (String.make 32 '\x00'));
      Alcotest.(check string) "root echoed" root (Store.root_hex t);
      (* 0.125 is representable: the hex-float manifest round-trips it *)
      Alcotest.(check (float 0.)) "scale exact" 0.125 (Store.scale t)

let store_rejects_tampering () =
  let dir = tmp_dir () in
  let w = Store.create dir in
  ignore (Store.add_cert w (fake_der 7));
  Store.add_obs w "only record";
  let _ = Store.close w ~scale:1.0 in
  (* flip a payload byte in obs.seg: strict open must refuse *)
  let path = Filename.concat dir "obs.seg" in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  let b = Bytes.of_string data in
  Bytes.set b (len - 1) (Char.chr (Char.code (Bytes.get b (len - 1)) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (match Store.open_ dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered segment opened");
  (* audit agrees: interior damage is unrecoverable and nothing is rewritten *)
  let rep = Store.audit ~repair:true dir in
  Alcotest.(check bool) "unrecoverable" false rep.Store.a_ok;
  Alcotest.(check bool) "no destructive repair" false rep.Store.a_repaired

(* --- derived sidecars: the segment always wins over its index --- *)

let mk_small_store ?(n_obs = 50) dir =
  let w = Store.create dir in
  let fps = List.init 3 (fun i -> Store.add_cert w (fake_der i)) in
  for i = 0 to n_obs - 1 do
    Store.add_obs w (Printf.sprintf "observation %04d %s" i (String.make (i mod 7) 'o'))
  done;
  Store.add_env w "environment";
  let root = Store.close w ~scale:1.0 in
  (fps, root)

let read_bin path =
  let ic = open_in_bin path in
  let d = really_input_string ic (in_channel_length ic) in
  close_in ic;
  d

let write_bin path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let store_index_missing_and_truncated () =
  let dir = tmp_dir () in
  let _ = mk_small_store dir in
  let baseline =
    match Store.open_ dir with
    | Ok t -> Store.observations t
    | Error e -> Alcotest.fail e
  in
  let idx = Filename.concat dir "obs.idx" in
  (* missing sidecar: open falls back to the sequential scan, silently *)
  Sys.remove idx;
  (match Store.open_ dir with
  | Ok t ->
      Alcotest.(check (array string)) "open without index" baseline
        (Store.observations t)
  | Error e -> Alcotest.fail ("open without index: " ^ e));
  (* random access falls back to the sequential walk and still agrees *)
  (match (Store.read_record_at dir Store.Obs 3, Store.read_record_seq dir Store.Obs 3) with
  | Ok a, Ok b ->
      Alcotest.(check string) "fallback = sequential" b a;
      Alcotest.(check string) "fallback = in-memory" baseline.(3) a
  | _ -> Alcotest.fail "record 3 unreadable without index");
  (* a dry-run audit names the loss but rewrites nothing *)
  let dry = Store.audit ~repair:false dir in
  Alcotest.(check bool) "sidecar loss is not damage" true dry.Store.a_ok;
  Alcotest.(check bool) "dry run leaves it missing" false
    (dry.Store.a_repaired || Sys.file_exists idx);
  Alcotest.(check bool) "dry run names the index" true
    (List.exists
       (fun m ->
         String.length m >= 7 && String.sub m 0 7 = "obs.idx")
       dry.Store.a_messages);
  (* repair rebuilds it from the frames *)
  let rep = Store.audit ~repair:true dir in
  Alcotest.(check bool) "rebuild happened" true
    (rep.Store.a_ok && rep.Store.a_repaired && Sys.file_exists idx);
  let again = Store.audit ~repair:true dir in
  Alcotest.(check bool) "stable after rebuild" true
    (again.Store.a_ok && not again.Store.a_repaired);
  (* truncated sidecar: same story *)
  let data = read_bin idx in
  write_bin idx (String.sub data 0 (String.length data / 2));
  (match Store.open_ dir with
  | Ok t ->
      Alcotest.(check (array string)) "open over truncated index" baseline
        (Store.observations t)
  | Error e -> Alcotest.fail ("open over truncated index: " ^ e));
  let rep = Store.audit ~repair:true dir in
  Alcotest.(check bool) "truncated sidecar rebuilt" true
    (rep.Store.a_ok && rep.Store.a_repaired);
  Alcotest.(check string) "sidecar restored byte-for-byte" data (read_bin idx)

let store_index_disagreement () =
  let dir = tmp_dir () in
  let _ = mk_small_store dir in
  let baseline =
    match Store.open_ dir with
    | Ok t -> Store.observations t
    | Error e -> Alcotest.fail e
  in
  (* forge a structurally valid sidecar (strictly increasing offsets,
     correct count and length) whose record-1 offset points into the
     middle of a frame. Structure checks pass; only the against-the-frames
     probe can catch it. *)
  let idx_path = Filename.concat dir "obs.idx" in
  let seg = read_bin (Filename.concat dir "obs.seg") in
  let good, tail = Index.of_segment seg in
  (match tail with Frame.Clean -> () | _ -> Alcotest.fail "fixture not clean");
  let forged = Array.copy good.Index.offsets in
  forged.(1) <- good.Index.offsets.(1) + 5;
  assert (forged.(1) < good.Index.offsets.(2));
  Index.save idx_path { good with Index.offsets = forged };
  (* the forged sidecar must not leak into reads: segment wins *)
  (match Store.open_ dir with
  | Ok t ->
      Alcotest.(check (array string)) "forged index ignored" baseline
        (Store.observations t)
  | Error e -> Alcotest.fail ("open over forged index: " ^ e));
  (match Store.read_record_at dir Store.Obs 1 with
  | Ok p -> Alcotest.(check string) "record 1 is record 1" baseline.(1) p
  | Error e -> Alcotest.fail e);
  (* audit rebuilds the sidecar and says so *)
  let rep = Store.audit ~repair:true dir in
  Alcotest.(check bool) "disagreement repaired" true
    (rep.Store.a_ok && rep.Store.a_repaired);
  Alcotest.(check bool) "message names the rebuild" true
    (List.exists
       (fun m ->
         let n = String.length m in
         let rec find i =
           i + 7 <= n && (String.sub m i 7 = "rebuilt" || find (i + 1))
         in
         String.length m >= 7 && String.sub m 0 7 = "obs.idx" && find 0)
       rep.Store.a_messages);
  match Index.load idx_path ~seg_len:(String.length seg) with
  | Ok idx ->
      Alcotest.(check bool) "rebuilt sidecar agrees" true
        (Index.agrees idx seg ~kind:2)
  | Error e -> Alcotest.fail ("rebuilt sidecar: " ^ e)

(* --- random access + inclusion proofs, with and without tree.mrk --- *)

let store_random_access_and_proofs () =
  let dir = tmp_dir () in
  let n_obs = 13 in
  let fps, root_hex = mk_small_store ~n_obs dir in
  let t = match Store.open_ dir with Ok t -> t | Error e -> Alcotest.fail e in
  let obs = Store.observations t in
  (* indexed random access returns exactly the in-memory arrays *)
  for i = 0 to n_obs - 1 do
    match Store.read_record_at dir Store.Obs i with
    | Ok p -> Alcotest.(check string) (Printf.sprintf "obs %d" i) obs.(i) p
    | Error e -> Alcotest.fail e
  done;
  (match Store.read_record_at dir Store.Certs 0 with
  | Ok der -> Alcotest.(check string) "cert 0 der" (fake_der 0) der
  | Error e -> Alcotest.fail e);
  (match Store.read_record_at dir Store.Env 0 with
  | Ok p -> Alcotest.(check string) "env 0" "environment" p
  | Error e -> Alcotest.fail e);
  (match Store.read_record_at dir Store.Obs n_obs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range read accepted");
  ignore fps;
  let raw_root =
    match Hex.decode root_hex with
    | Ok r -> r
    | Error e -> Alcotest.fail ("root hex: " ^ e)
  in
  let check_proof label i =
    match Store.inclusion_proof dir i with
    | Error e -> Alcotest.fail (Printf.sprintf "%s: proof %d: %s" label i e)
    | Ok p ->
        Alcotest.(check string)
          (Printf.sprintf "%s: proof %d root" label i)
          root_hex p.Store.p_root_hex;
        Alcotest.(check int) "count" n_obs p.Store.p_count;
        Alcotest.(check string) "leaf binds payload"
          (Hex.encode (Merkle.leaf_hash obs.(i)))
          (Hex.encode p.Store.p_leaf);
        Alcotest.(check bool)
          (Printf.sprintf "%s: proof %d verifies" label i)
          true
          (Merkle.verify ~root:raw_root ~index:i ~count:n_obs p.Store.p_leaf
             p.Store.p_path)
  in
  for i = 0 to n_obs - 1 do
    check_proof "fast path" i
  done;
  (match Store.inclusion_proof dir n_obs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "proof past the end accepted");
  (* without the persisted layers the proof rebuilds from obs.seg *)
  let mrk = Filename.concat dir "tree.mrk" in
  let mrk_data = read_bin mrk in
  Sys.remove mrk;
  check_proof "tree.mrk missing" 0;
  check_proof "tree.mrk missing" (n_obs - 1);
  (* a tampered tree.mrk is detected (CRC or verification) and ignored *)
  let b = Bytes.of_string mrk_data in
  let off = String.length mrk_data / 2 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  write_bin mrk (Bytes.to_string b);
  check_proof "tree.mrk tampered" (n_obs / 2);
  (* audit restores the layers *)
  let rep = Store.audit ~repair:true dir in
  Alcotest.(check bool) "layers rebuilt" true
    (rep.Store.a_ok && rep.Store.a_repaired);
  Alcotest.(check string) "layers restored byte-for-byte" mrk_data (read_bin mrk);
  check_proof "after repair" 1

(* --- compaction: rewrite certs.seg without touching ROOT --- *)

let store_compaction () =
  let dir = tmp_dir () in
  let fps, root_hex = mk_small_store dir in
  let fp_dropped = List.nth fps 1 in
  let size_before = (Unix.stat (Filename.concat dir "certs.seg")).Unix.st_size in
  (match Store.compact ~live:(fun fp -> not (String.equal fp fp_dropped)) dir with
  | Error e -> Alcotest.fail ("compact: " ^ e)
  | Ok r ->
      Alcotest.(check int) "kept" 2 r.Store.c_kept;
      Alcotest.(check int) "dropped" 1 r.Store.c_dropped;
      Alcotest.(check int) "before" size_before r.Store.c_bytes_before;
      Alcotest.(check bool) "segment shrank" true
        (r.Store.c_bytes_after < r.Store.c_bytes_before));
  (match Store.open_ dir with
  | Error e -> Alcotest.fail ("post-compaction open: " ^ e)
  | Ok t ->
      Alcotest.(check int) "two certs survive" 2 (Store.cert_count t);
      Alcotest.(check (option string)) "dropped cert gone" None
        (Store.find_cert t fp_dropped);
      Alcotest.(check (option string)) "kept cert intact" (Some (fake_der 0))
        (Store.find_cert t (List.nth fps 0));
      Alcotest.(check (option string)) "order preserved" (Some (fake_der 2))
        (Store.find_cert t (List.nth fps 2));
      Alcotest.(check string) "ROOT untouched" root_hex (Store.root_hex t));
  (* the store stays audit-clean: sidecars were rewritten in step *)
  let rep = Store.audit ~repair:true dir in
  Alcotest.(check bool) "audit clean after compaction" true
    (rep.Store.a_ok && not rep.Store.a_repaired);
  (* all-live compaction is a no-op and rewrites nothing *)
  let stamp = read_bin (Filename.concat dir "certs.seg") in
  match Store.compact ~live:(fun _ -> true) dir with
  | Error e -> Alcotest.fail ("no-op compact: " ^ e)
  | Ok r ->
      Alcotest.(check int) "nothing dropped" 0 r.Store.c_dropped;
      Alcotest.(check int) "bytes stable" r.Store.c_bytes_before r.Store.c_bytes_after;
      Alcotest.(check string) "segment byte-stable" stamp
        (read_bin (Filename.concat dir "certs.seg"))

(* --- corpus: save -> load -> replay --- *)

let lab = lazy (Population.generate ~scale:0.001 ())

let render view =
  Experiments.scan_results view
  |> List.map Chaoschain_report.Report.to_text
  |> String.concat "\n"

let saved =
  lazy
    (let pop = Lazy.force lab in
     let analysis = Experiments.analyze ~jobs:2 pop in
     let dir = tmp_dir () in
     let summary = Corpus.save ~dir analysis in
     (analysis, dir, summary))

let corpus_replay_identical () =
  let analysis, dir, summary = Lazy.force saved in
  Alcotest.(check int) "one record per domain"
    (Array.length analysis.Experiments.dataset.Scanner.domains)
    summary.Corpus.s_records;
  match Corpus.load dir with
  | Error e -> Alcotest.fail ("load failed: " ^ e)
  | Ok loaded ->
      Alcotest.(check (float 0.)) "scale survives" 0.001 loaded.Corpus.l_scale;
      Alcotest.(check string) "root matches save" summary.Corpus.s_root_hex
        loaded.Corpus.l_root_hex;
      let live = render (Experiments.view analysis) in
      let replay1 = render (Corpus.analyze ~jobs:1 loaded) in
      Alcotest.(check string) "replay == live scan" live replay1;
      (* jobs-invariance of the replay path itself *)
      match Corpus.load dir with
      | Error e -> Alcotest.fail e
      | Ok loaded' ->
          Alcotest.(check string) "replay jobs-invariant" replay1
            (render (Corpus.analyze ~jobs:4 loaded'))

let corpus_save_deterministic () =
  let analysis, _, summary = Lazy.force saved in
  (* a second save of the same analysis lands on the identical Merkle root *)
  let dir2 = tmp_dir () in
  let summary2 = Corpus.save ~dir:dir2 analysis in
  Alcotest.(check string) "byte-identical store" summary.Corpus.s_root_hex
    summary2.Corpus.s_root_hex;
  (* ... and so does a save of a fresh analysis at different parallelism *)
  let analysis3 = Experiments.analyze ~jobs:3 (Lazy.force lab) in
  let dir3 = tmp_dir () in
  let summary3 = Corpus.save ~dir:dir3 analysis3 in
  Alcotest.(check string) "jobs-invariant store" summary.Corpus.s_root_hex
    summary3.Corpus.s_root_hex

let corpus_truncated_tail_recovery () =
  let _, dir0, _ = Lazy.force saved in
  (* work on a copy so the shared fixture stays intact *)
  let dir = tmp_dir () in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter
    (fun f ->
      let src = Filename.concat dir0 f and dst = Filename.concat dir f in
      let ic = open_in_bin src in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin dst in
      output_string oc data;
      close_out oc)
    (Sys.readdir dir0);
  let obs = Filename.concat dir "obs.seg" in
  let full = (Unix.stat obs).Unix.st_size in
  Unix.truncate obs (full - 5);
  (* strict open refuses the crashed store *)
  (match Store.open_ dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated store opened");
  (* audit without repair detects but does not touch the files *)
  let dry = Store.audit ~repair:false dir in
  Alcotest.(check bool) "tail is recoverable" true dry.Store.a_ok;
  Alcotest.(check bool) "dry run repairs nothing" false dry.Store.a_repaired;
  Alcotest.(check int) "file untouched" (full - 5) (Unix.stat obs).Unix.st_size;
  (* repair truncates back and re-anchors *)
  let rep = Store.audit ~repair:true dir in
  Alcotest.(check bool) "repaired ok" true rep.Store.a_ok;
  Alcotest.(check bool) "repair happened" true rep.Store.a_repaired;
  match (Store.open_ dir, Store.open_ dir0) with
  | Ok t, Ok t0 ->
      Alcotest.(check int) "one record lost"
        (Array.length (Store.observations t0) - 1)
        (Array.length (Store.observations t));
      (* follow-up audit is clean and silent about repairs *)
      let again = Store.audit ~repair:true dir in
      Alcotest.(check bool) "stable after repair" true
        (again.Store.a_ok && not again.Store.a_repaired)
  | _ -> Alcotest.fail "repaired store does not open"

(* --- warm-store: cache pre-fill makes the first request a hit --- *)

let corpus_warm_engine () =
  let _, dir, _ = Lazy.force saved in
  match Corpus.load dir with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      let pop = Lazy.force lab in
      let u = pop.Population.universe in
      let r = pop.Population.domains.(0) in
      let env =
        {
          Engine.diff_env = loaded.Corpus.l_env;
          union_store = loaded.Corpus.l_union_store;
          program_store = Chaoschain_pki.Universe.store u;
          aia = Chaoschain_pki.Universe.aia u;
          find_scenario = (fun _ -> None);
        }
      in
      let domains = Array.to_list loaded.Corpus.l_dataset.Scanner.domains in
      let t = Engine.create ~env ~jobs:2 () in
      let warmed = Engine.warm t domains in
      Alcotest.(check bool) "warm fill bounded" true
        (warmed > 0 && warmed <= Engine.cache_capacity t);
      Alcotest.(check int) "cache holds the fill" warmed (Engine.cache_size t);
      (* metrics untouched: a warmed engine looks cold from the outside *)
      let m = Engine.metrics t in
      Alcotest.(check int) "no hits yet" 0 m.S.Metrics.hits;
      Alcotest.(check int) "no misses yet" 0 m.S.Metrics.misses;
      (* first live request for a stored domain is served from the cache *)
      let frame =
        Json.to_string
          (Json.Obj
             [ ("id", Json.String "w1");
               ("op", Json.String "check");
               ("domain", Json.String r.Population.domain);
               ( "pem",
                 Json.String
                   (Chaoschain_deployment.Pem.encode_certs r.Population.chain)
               ) ])
      in
      let response = Engine.handle_frame t frame in
      let m = Engine.metrics t in
      Alcotest.(check int) "hit from warm fill" 1 m.S.Metrics.hits;
      Alcotest.(check int) "no miss" 0 m.S.Metrics.misses;
      (match Json.of_string response with
      | Ok j -> (
          match Json.member "ok" j with
          | Some (Json.Bool true) -> ()
          | _ -> Alcotest.fail "warm reply not ok")
      | Error e -> Alcotest.fail e);
      (* a zero-capacity engine accepts but skips the warm fill *)
      let t0 = Engine.create ~env ~cache_capacity:0 () in
      Alcotest.(check int) "cap 0 warms nothing" 0 (Engine.warm t0 domains);
      Engine.shutdown t0;
      Engine.shutdown t

(* --- corpus diff: per-cell deltas between two persisted stores --- *)

let corpus_diff () =
  let module R = Chaoschain_report.Report in
  let analysis, dir_a, _ = Lazy.force saved in
  let results dir =
    match Corpus.load dir with
    | Error e -> Alcotest.fail e
    | Ok l -> Experiments.table_results (Corpus.analyze ~jobs:2 l)
  in
  (* identical corpora (a second save of the same analysis): empty diff *)
  let dir_b = tmp_dir () in
  ignore (Corpus.save ~dir:dir_b analysis);
  Alcotest.(check int) "identical corpora diff empty" 0
    (List.length (R.diff (results dir_a) (results dir_b)));
  (* perturbed corpus: append a duplicate of one domain's leaf certificate,
     re-scan and re-save — an order violation appears, leaf placement does
     not change *)
  let pop = Lazy.force lab in
  let victim = pop.Population.domains.(0).Population.domain in
  let pop' =
    { pop with
      Population.domains =
        Array.map
          (fun r ->
            if r.Population.domain = victim then
              { r with
                Population.chain =
                  r.Population.chain @ [ List.hd r.Population.chain ] }
            else r)
          pop.Population.domains }
  in
  let dir_c = tmp_dir () in
  ignore (Corpus.save ~dir:dir_c (Experiments.analyze ~jobs:2 pop'));
  let deltas = R.diff (results dir_a) (results dir_c) in
  let in_table prefix d =
    let n = String.length prefix in
    String.length d.R.d_path >= n && String.sub d.R.d_path 0 n = prefix
  in
  Alcotest.(check bool) "perturbation shows up" true (deltas <> []);
  Alcotest.(check bool) "table5 duplicate cells changed" true
    (List.exists (in_table "table5/Duplicate Certificates") deltas);
  List.iter
    (fun d ->
      Alcotest.(check bool) (d.R.d_path ^ " outside table3") false
        (in_table "table3" d))
    deltas

let suite =
  [ Alcotest.test_case "crc32 vectors" `Quick crc_vectors;
    QCheck_alcotest.to_alcotest qcheck_crc_sub;
    Alcotest.test_case "frame round-trip" `Quick frame_round_trip;
    Alcotest.test_case "frame truncated tail" `Quick frame_truncated_tail;
    Alcotest.test_case "frame corruption" `Quick frame_corruption;
    Alcotest.test_case "merkle proofs n=1..17" `Quick merkle_proofs_all_shapes;
    Alcotest.test_case "merkle domain separation" `Quick merkle_domain_separation;
    Alcotest.test_case "merkle tree = RFC 6962 reference" `Quick
      merkle_tree_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_frontier_vs_rebuild;
    Alcotest.test_case "merkle proof edges" `Quick merkle_proof_edges;
    Alcotest.test_case "merkle parallel build identical" `Quick
      merkle_parallel_build_identical;
    Alcotest.test_case "index round-trip and damage" `Quick index_round_trip;
    Alcotest.test_case "store round-trip" `Quick store_round_trip;
    Alcotest.test_case "store rejects tampering" `Quick store_rejects_tampering;
    Alcotest.test_case "index missing and truncated" `Quick
      store_index_missing_and_truncated;
    Alcotest.test_case "index disagreement: segment wins" `Quick
      store_index_disagreement;
    Alcotest.test_case "random access and inclusion proofs" `Quick
      store_random_access_and_proofs;
    Alcotest.test_case "compaction preserves ROOT" `Quick store_compaction;
    Alcotest.test_case "corpus replay byte-identical" `Slow corpus_replay_identical;
    Alcotest.test_case "corpus save deterministic" `Slow corpus_save_deterministic;
    Alcotest.test_case "truncated-tail recovery" `Slow corpus_truncated_tail_recovery;
    Alcotest.test_case "warm-store pre-fill" `Slow corpus_warm_engine;
    Alcotest.test_case "corpus diff" `Slow corpus_diff ]
