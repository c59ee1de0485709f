(* The differential DER harness: lib/der2 against lib/der, the mutation
   engine, the oracle's classification lattice, campaign determinism, and
   the checked-in seed corpus. *)

module Der = Chaoschain_der.Der
module Der2 = Chaoschain_der2.Der2
module Mutate = Chaoschain_fuzz.Mutate
module Oracle = Chaoschain_fuzz.Oracle
module Derfuzz = Chaoschain_fuzz.Derfuzz
module Prng = Chaoschain_crypto.Prng
module Pipeline = Chaoschain_measurement.Pipeline

let random_bytes =
  QCheck.make
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (0 -- 80))

(* --- the two decoders agree --- *)

let qcheck_der2_accepts_encodings =
  QCheck.Test.make ~name:"der2 agrees with der on random encodings" ~count:300
    (QCheck.make Test_der.gen_tree) (fun tree ->
      let bytes = Der.encode tree in
      match (Der.decode bytes, Der2.decode bytes) with
      | Ok t, Ok t2 -> Oracle.agree t t2
      | _ -> false)

(* Real certificates, not just generated trees: on the capability
   fixture's served chain the slice reader equals the tree decoder, and
   lib/der2 agrees with lib/der (the derfuzz precondition). *)
let decoders_agree_on_certificates () =
  let fx =
    Chaoschain_core.Capability.fixture
      Chaoschain_core.Capability.Order_reorganization
  in
  List.iter
    (fun cert ->
      let raw = Chaoschain_x509.Cert.to_der cert in
      Alcotest.(check bool) "slice = tree" true
        (Der.decode_slice (Der.slice_of_string raw) = Der.decode raw);
      Alcotest.(check bool) "der2 agrees with der" true
        (match (Der.decode raw, Der2.decode raw) with
        | Ok t, Ok t2 -> Oracle.agree t t2
        | _ -> false))
    fx.Chaoschain_core.Capability.served

let qcheck_accept_sets_equal_on_mangled =
  (* Single-byte corruptions and truncations of valid encodings: whatever
     happens, the outcome must stay in the two agreement classes — the
     core accept-set-equality property the whole harness pins. *)
  QCheck.Test.make ~name:"no divergence on mangled encodings" ~count:500
    QCheck.(pair (QCheck.make Test_der.gen_tree) (pair small_nat small_nat))
    (fun (tree, (pos, byte)) ->
      let bytes = Der.encode tree in
      let n = String.length bytes in
      let mangled =
        if n = 0 then ""
        else begin
          let b = Bytes.of_string bytes in
          Bytes.set b (pos mod n) (Char.chr (byte land 0xFF));
          Bytes.to_string b
        end
      in
      let truncated = String.sub bytes 0 (if n = 0 then 0 else pos mod n) in
      List.for_all
        (fun s -> not (Oracle.is_divergence (fst (Oracle.classify s))))
        [ mangled; truncated ])

let qcheck_no_exceptions_random_bytes =
  (* Satellite pin: neither decoder (nor the production slice reader) may
     raise on arbitrary bytes — every failure is a typed [Error _]. *)
  QCheck.Test.make ~name:"decoders never raise on random bytes" ~count:1000
    random_bytes (fun s ->
      let ok1 =
        match Der.decode s with Ok _ | Error _ -> true | exception _ -> false
      in
      let ok2 =
        match Der.decode_slice (Der.slice_of_string s) with
        | Ok _ | Error _ -> true
        | exception _ -> false
      in
      let ok3 =
        match Der2.decode s with Ok _ | Error _ -> true | exception _ -> false
      in
      ok1 && ok2 && ok3)

let nesting_bomb_boundary () =
  (* [Mutate.Nest_bomb depth] wraps a NULL in [depth] SEQUENCEs, so the
     innermost constructed value sits under depth-1 enclosing levels: 1024
     wrappers are exactly at the bound, 1025 are past it. Both decoders
     must land on the same side, as Error, not Stack_overflow. *)
  let bomb depth = Mutate.apply "" (Mutate.Nest_bomb { depth }) in
  let at_bound = bomb Der.max_depth in
  (match (Der.decode at_bound, Der2.decode at_bound) with
  | Ok t, Ok t2 ->
      Alcotest.(check bool) "trees at bound agree" true (Oracle.agree t t2)
  | _ -> Alcotest.fail "depth-1024 bomb must be accepted by both decoders");
  let past_bound = bomb (Der.max_depth + 1) in
  (match Der.decode past_bound with
  | Error e ->
      Alcotest.(check bool) "der names the nesting bound" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "der accepted a depth-1025 bomb");
  (match Der2.decode past_bound with
  | Error (Der2.Nesting _) -> ()
  | Error e ->
      Alcotest.fail
        (Printf.sprintf "der2 rejected the bomb for the wrong reason: %s"
           (Der2.error_to_string e))
  | Ok _ -> Alcotest.fail "der2 accepted a depth-1025 bomb");
  (* A huge bomb stays a classified error on both sides (iterative walk /
     bounded recursion, no Stack_overflow). *)
  let huge = bomb 200_000 in
  Alcotest.(check bool) "huge bomb is agree-reject" true
    (fst (Oracle.classify huge) = Oracle.Agree_reject);
  Alcotest.(check int) "max_depth constants agree" Der.max_depth Der2.max_depth

let der2_error_taxonomy () =
  let check name want s =
    match Der2.decode s with
    | Error e -> Alcotest.(check bool) name true (want e)
    | Ok _ -> Alcotest.fail (name ^ ": unexpectedly accepted")
  in
  check "empty input truncated" (function Der2.Truncated _ -> true | _ -> false) "";
  check "cut content truncated"
    (function Der2.Truncated _ -> true | _ -> false)
    "\x04\x05ab";
  check "indefinite length forbidden"
    (function Der2.Forbidden _ -> true | _ -> false)
    "\x30\x80\x00\x00";
  check "non-minimal length forbidden"
    (function Der2.Forbidden _ -> true | _ -> false)
    "\x04\x81\x01a";
  check "high tag number forbidden"
    (function Der2.Forbidden _ -> true | _ -> false)
    "\x1f\x81\x00";
  check "trailing bytes rejected"
    (function Der2.Trailing { extra; _ } -> extra = 1 | _ -> false)
    "\x05\x00x";
  match Der2.decode "\x05\x00" with
  | Ok (Der2.Leaf (h, "")) ->
      Alcotest.(check bool) "NULL decodes" true
        (h.Der2.h_cls = Der2.Univ && h.Der2.h_number = 5
        && not h.Der2.h_constructed)
  | _ -> Alcotest.fail "NULL must decode as an empty universal-5 leaf"

(* --- mutation engine --- *)

let sample_encoding () =
  Der.encode
    (Der.sequence
       [ Der.integer_of_int 42;
         Der.sequence [ Der.utf8_string "mutate-me"; Der.null ];
         Der.octet_string "payload" ])

let mutate_units () =
  let s = sample_encoding () in
  let sites = Mutate.header_sites s in
  Alcotest.(check bool) "outermost header is a site" true (List.mem 0 sites);
  Alcotest.(check bool) "nested headers are sites" true (List.length sites >= 5);
  Alcotest.(check string) "truncate keeps a prefix" (String.sub s 0 3)
    (Mutate.apply s (Mutate.Truncate { keep = 3 }));
  Alcotest.(check string) "extend appends" (s ^ "zz")
    (Mutate.apply s (Mutate.Extend { tail = "zz" }));
  let flipped = Mutate.apply s (Mutate.Bit_flip { pos = 0; bit = 5 }) in
  Alcotest.(check bool) "bit-flip changes one byte" true
    (flipped <> s && String.length flipped = String.length s);
  Alcotest.(check string) "bit-flip is an involution" s
    (Mutate.apply flipped (Mutate.Bit_flip { pos = 0; bit = 5 }));
  let lied = Mutate.apply s (Mutate.Length_lie { site = 0; value = 0x03 }) in
  Alcotest.(check int) "length-lie rewrites the length octet" 0x03
    (Char.code lied.[1]);
  let smuggled = Mutate.apply s (Mutate.Tag_smuggle { site = 0; value = 0x04 }) in
  Alcotest.(check int) "tag-smuggle rewrites the identifier octet" 0x04
    (Char.code smuggled.[0]);
  Alcotest.(check string) "out-of-range edits are no-ops" s
    (Mutate.apply s (Mutate.Byte_set { pos = 10_000; value = 1 }));
  Alcotest.(check string) "describe is stable" "length-lie@4=0x83"
    (Mutate.describe (Mutate.Length_lie { site = 4; value = 0x83 }));
  (* Site discovery on garbage still aims somewhere, and is bounded even on
     deeply nested input. *)
  Alcotest.(check (list int)) "garbage falls back to offset 0" [ 0 ]
    (Mutate.header_sites "\xff\xff\xff");
  let bomb = Mutate.apply "" (Mutate.Nest_bomb { depth = 100_000 }) in
  Alcotest.(check bool) "site walk bounded on bombs" true
    (List.length (Mutate.header_sites bomb) <= 4096)

let qcheck_mutants_always_classify =
  (* Whatever the mutation engine produces from whatever tree, the oracle
     returns a classification — never an exception. *)
  QCheck.Test.make ~name:"every mutant classifies" ~count:300
    QCheck.(pair (QCheck.make Test_der.gen_tree) small_nat)
    (fun (tree, salt) ->
      let g = Prng.of_label (Printf.sprintf "test-derfuzz/mutant/%d" salt) in
      let rec go bytes n =
        if n = 0 then true
        else begin
          let m = Mutate.random g bytes in
          let bytes = Mutate.apply bytes m in
          let outcome, _detail = Oracle.classify bytes in
          (not (Oracle.is_divergence outcome)) && go bytes (n - 1)
        end
      in
      go (Der.encode tree) 4)

(* --- oracle --- *)

let oracle_units () =
  Alcotest.(check string) "accept key" "agree-accept"
    (Oracle.key Oracle.Agree_accept);
  Alcotest.(check string) "split keys" "split-der,split-der2"
    (Oracle.key (Oracle.Split Oracle.First)
    ^ ","
    ^ Oracle.key (Oracle.Split Oracle.Second));
  Alcotest.(check int) "seven classes" 7 (List.length Oracle.all_keys);
  Alcotest.(check bool) "agreement is not divergence" false
    (Oracle.is_divergence Oracle.Agree_reject);
  Alcotest.(check bool) "crash is divergence" true
    (Oracle.is_divergence (Oracle.Crash Oracle.Second));
  let outcome, detail = Oracle.classify (sample_encoding ()) in
  Alcotest.(check bool) "valid encoding agree-accepts" true
    (outcome = Oracle.Agree_accept && detail = "");
  let outcome, detail = Oracle.classify "" in
  Alcotest.(check bool) "empty input agree-rejects with both details" true
    (outcome = Oracle.Agree_reject
    && String.length detail > 0
    && String.length detail > String.length "lib/der: ")

(* --- campaigns --- *)

let corpus () =
  (* A deterministic corpus of valid encodings, via the same generator the
     der tests use. *)
  let g = Prng.of_label "test-derfuzz/corpus" in
  let rand = Random.State.make [| Int64.to_int (Prng.next_int64 g) |] in
  Array.init 24 (fun _ -> Der.encode (Test_der.gen_tree rand))

let campaign_shape () =
  let corpus = corpus () in
  Alcotest.(check (list (pair int string))) "corpus passes the precondition"
    [] (Derfuzz.check_corpus corpus);
  let r = Derfuzz.run ~seed:11 ~iters:150 corpus in
  Alcotest.(check int) "counts cover every iteration" 150
    (List.fold_left (fun a (_, n) -> a + n) 0 r.Derfuzz.r_counts);
  Alcotest.(check int) "no divergences on this seed" 0
    (Derfuzz.divergence_count r);
  Alcotest.(check (list string)) "count keys in lattice order" Oracle.all_keys
    (List.map fst r.Derfuzz.r_counts);
  Alcotest.(check bool) "exemplars recorded" true (r.Derfuzz.r_exemplars <> []);
  (* The report IR renders under every renderer. *)
  let ir = Derfuzz.report_ir r in
  Alcotest.(check bool) "text renders" true
    (String.length (Chaoschain_report.Report.to_text ir) > 0);
  ignore (Chaoschain_report.Report.to_json ir);
  (* Every seed line replays to its recorded class. *)
  List.iter
    (fun line ->
      match Derfuzz.parse_seed_line line with
      | None -> Alcotest.fail ("unparseable seed line: " ^ line)
      | Some (k, bytes) ->
          Alcotest.(check string) "fresh seed line replays" k
            (Oracle.key (fst (Oracle.classify bytes))))
    (Derfuzz.seed_lines r)

let campaign_determinism () =
  (* Same seed, different runners: byte-identical reports (the --jobs
     determinism contract), including the JSON rendering. *)
  let corpus = corpus () in
  let sequential = Derfuzz.run ~seed:77 ~iters:120 corpus in
  let pool = Pipeline.Pool.create ~jobs:3 in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Pipeline.Pool.shutdown pool)
      (fun () ->
        Derfuzz.run ~par:(Pipeline.Pool.run pool) ~seed:77 ~iters:120 corpus)
  in
  Alcotest.(check bool) "reports equal across runners" true
    (sequential = parallel);
  let json r =
    Chaoschain_report.Report.Json.pretty
      (Chaoschain_report.Report.to_json (Derfuzz.report_ir r))
  in
  Alcotest.(check string) "json byte-identical across runners"
    (json sequential) (json parallel);
  let other = Derfuzz.run ~seed:78 ~iters:120 corpus in
  Alcotest.(check bool) "different seed, different campaign" true
    (sequential <> other)

let golden_seeds_replay () =
  (* The checked-in corpus grown from campaign findings: every line must
     replay through both decoders to exactly its recorded classification. *)
  let path =
    List.find Sys.file_exists
      [ "golden/der_fuzz.seeds"; "test/golden/der_fuzz.seeds" ]
  in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
  in
  let seeds = List.filter_map Derfuzz.parse_seed_line lines in
  Alcotest.(check bool) "seed corpus non-trivial" true (List.length seeds >= 8);
  Alcotest.(check bool) "both agreement classes present" true
    (List.exists (fun (k, _) -> k = "agree-accept") seeds
    && List.exists (fun (k, _) -> k = "agree-reject") seeds);
  List.iter
    (fun (k, bytes) ->
      let outcome, detail = Oracle.classify bytes in
      Alcotest.(check string)
        (Printf.sprintf "seed (%d bytes) classification" (String.length bytes))
        k
        (Oracle.key outcome);
      ignore detail)
    seeds

let suite =
  [ QCheck_alcotest.to_alcotest qcheck_der2_accepts_encodings;
    Alcotest.test_case "decoders agree on certificates" `Quick
      decoders_agree_on_certificates;
    QCheck_alcotest.to_alcotest qcheck_accept_sets_equal_on_mangled;
    QCheck_alcotest.to_alcotest qcheck_no_exceptions_random_bytes;
    Alcotest.test_case "nesting bomb boundary" `Quick nesting_bomb_boundary;
    Alcotest.test_case "der2 error taxonomy" `Quick der2_error_taxonomy;
    Alcotest.test_case "mutation engine units" `Quick mutate_units;
    QCheck_alcotest.to_alcotest qcheck_mutants_always_classify;
    Alcotest.test_case "oracle units" `Quick oracle_units;
    Alcotest.test_case "campaign shape" `Quick campaign_shape;
    Alcotest.test_case "campaign determinism" `Quick campaign_determinism;
    Alcotest.test_case "golden seeds replay" `Quick golden_seeds_replay ]
