(* chaind (lib/service): JSON codec, protocol round-trip, LRU bounds and
   eviction order, verdict-cache hit/miss byte-identity, micro-batch
   coalescing, jobs-invariance, admission-queue overload, and the stdio
   serve path (one Netloop connection) over pipes and files. *)

open Chaoschain_measurement
open Chaoschain_pki
module S = Chaoschain_service
module Json = Chaoschain_report.Json
module Protocol = S.Protocol
module Engine = S.Engine
module Netd = S.Netd
module Certmsg = Chaoschain_tlssim.Certmsg
module Base64 = Chaoschain_deployment.Base64

(* --- JSON codec --- *)

let json_round_trip () =
  let v =
    Json.Obj
      [ ("s", Json.String "line1\nline2 \"quoted\" \\ tab\t");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.String "x"; Json.Obj [] ]) ]
  in
  match Json.of_string (Json.to_string v) with
  | Error e -> Alcotest.fail ("round-trip failed: " ^ e)
  | Ok v' ->
      Alcotest.(check string) "stable encoding" (Json.to_string v) (Json.to_string v')

let json_decode_escapes () =
  (match Json.of_string {|"a\u0041\n\u00e9"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "escapes" "aA\n\xc3\xa9" s
  | _ -> Alcotest.fail "string with escapes");
  (match Json.of_string {|"\ud83d\ude00"|} with
  | Ok (Json.String s) ->
      Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair");
  match Json.of_string "  [1, 2.5, {\"k\": null}] " with
  | Ok (Json.List [ Json.Int 1; Json.Float 2.5; Json.Obj [ ("k", Json.Null) ] ])
    -> ()
  | _ -> Alcotest.fail "whitespace + mixed numbers"

let json_rejects_malformed () =
  let bad = [ "{"; "[1,]"; "{\"a\":1} trailing"; "\"unterminated"; "nul";
              "{\"a\" 1}"; "\"\\ud800\"" ] in
  List.iter
    (fun text ->
      match Json.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed " ^ text))
    bad

(* --- protocol --- *)

let proto_round_trip () =
  let req =
    {
      Protocol.id = Some "req-1";
      op =
        Protocol.Check
          {
            Protocol.domain = Some "example.com";
            pem = Some "-----BEGIN CERTIFICATE-----\nAAAA\n-----END CERTIFICATE-----\n";
            scenario = None;
            certmsg = None;
            format = None;
            aia = false;
            store = Protocol.Program Root_store.Mozilla;
            clients = Some [ Chaoschain_core.Clients.Openssl;
                             Chaoschain_core.Clients.Firefox ];
          };
    }
  in
  match Protocol.of_frame (Protocol.to_frame req) with
  | Error e -> Alcotest.fail ("round-trip rejected: " ^ e.Protocol.message)
  | Ok req' ->
      Alcotest.(check string) "round-trip" (Protocol.to_frame req)
        (Protocol.to_frame req');
      (match req'.Protocol.op with
      | Protocol.Check c ->
          Alcotest.(check bool) "aia off" false c.Protocol.aia;
          Alcotest.(check string) "store" "mozilla"
            (Protocol.store_choice_to_string c.Protocol.store)
      | _ -> Alcotest.fail "op changed")

let proto_certmsg_round_trip () =
  let req =
    {
      Protocol.id = Some "req-2";
      op =
        Protocol.Check
          {
            Protocol.domain = Some "example.com";
            pem = None;
            scenario = None;
            certmsg = Some "FgMDAAA=";
            format = Some Certmsg.Tls13;
            aia = true;
            store = Protocol.Union;
            clients = None;
          };
    }
  in
  match Protocol.of_frame (Protocol.to_frame req) with
  | Error e -> Alcotest.fail ("round-trip rejected: " ^ e.Protocol.message)
  | Ok req' -> (
      Alcotest.(check string) "round-trip" (Protocol.to_frame req)
        (Protocol.to_frame req');
      match req'.Protocol.op with
      | Protocol.Check c ->
          Alcotest.(check (option string)) "certmsg" (Some "FgMDAAA=")
            c.Protocol.certmsg;
          Alcotest.(check bool) "format" true
            (c.Protocol.format = Some Certmsg.Tls13)
      | _ -> Alcotest.fail "op changed")

let proto_rejects_malformed () =
  let expect_code frame code =
    match Protocol.of_frame frame with
    | Error e -> Alcotest.(check string) frame code e.Protocol.code
    | Ok _ -> Alcotest.fail ("accepted " ^ frame)
  in
  expect_code "not json" "malformed_frame";
  expect_code "{}" "malformed_frame";
  expect_code {|{"op":"launch"}|} "malformed_frame";
  expect_code {|{"op":"check"}|} "malformed_frame";
  expect_code {|{"op":"check","pem":"x","scenario":"y","domain":"d"}|}
    "malformed_frame";
  expect_code {|{"op":"check","pem":"x"}|} "malformed_frame";
  expect_code {|{"op":"check","scenario":"s","clients":["netscape"]}|}
    "malformed_frame";
  expect_code {|{"op":"check","scenario":"s","store":"curl"}|} "malformed_frame";
  (* the certmsg source obeys the same exclusivity and domain rules *)
  expect_code {|{"op":"check","certmsg":"AAAA","scenario":"s"}|}
    "malformed_frame";
  expect_code {|{"op":"check","certmsg":"AAAA","pem":"x","domain":"d"}|}
    "malformed_frame";
  expect_code {|{"op":"check","certmsg":"AAAA"}|} "malformed_frame";
  expect_code {|{"op":"check","certmsg":"AAAA","domain":"d","format":"1.4"}|}
    "malformed_frame";
  expect_code {|{"op":"check","scenario":"s","format":"1.3"}|}
    "malformed_frame";
  (* a parsed id is echoed in the error *)
  match Protocol.of_frame {|{"id":"e1","op":"check"}|} with
  | Error e -> Alcotest.(check (option string)) "id echoed" (Some "e1") e.Protocol.err_id
  | Ok _ -> Alcotest.fail "accepted op-less check"

(* --- LRU --- *)

let lru_capacity_bound () =
  let l = S.Lru.create ~capacity:3 in
  List.iter (fun k -> S.Lru.add l k (String.length k)) [ "a"; "bb"; "ccc"; "dddd"; "eeeee" ];
  Alcotest.(check int) "size bounded" 3 (S.Lru.size l);
  Alcotest.(check int) "evictions" 2 (S.Lru.evictions l);
  Alcotest.(check bool) "oldest gone" false (S.Lru.mem l "a");
  Alcotest.(check bool) "newest kept" true (S.Lru.mem l "eeeee")

let lru_eviction_order () =
  let l = S.Lru.create ~capacity:3 in
  S.Lru.add l "a" 1;
  S.Lru.add l "b" 2;
  S.Lru.add l "c" 3;
  (* touch "a": now LRU order (mru-first) is a, c, b *)
  Alcotest.(check (option int)) "find refreshes" (Some 1) (S.Lru.find l "a");
  Alcotest.(check (list string)) "mru order" [ "a"; "c"; "b" ]
    (S.Lru.keys_mru_first l);
  S.Lru.add l "d" 4;
  Alcotest.(check bool) "b (LRU) evicted" false (S.Lru.mem l "b");
  Alcotest.(check bool) "a survived via touch" true (S.Lru.mem l "a");
  (* re-adding an existing key updates in place, no eviction *)
  S.Lru.add l "c" 33;
  Alcotest.(check int) "still 3 entries" 3 (S.Lru.size l);
  Alcotest.(check (option int)) "updated value" (Some 33) (S.Lru.find l "c");
  Alcotest.(check int) "one eviction total" 1 (S.Lru.evictions l)

(* --- engine fixtures --- *)

let lab = lazy (Population.generate ~scale:0.001 ())

let fixture_record () =
  let pop = Lazy.force lab in
  pop.Population.domains.(0)

let make_env () =
  let pop = Lazy.force lab in
  let u = pop.Population.universe in
  let r = fixture_record () in
  {
    Engine.diff_env = Population.env pop;
    union_store = Universe.union_store u;
    program_store = Universe.store u;
    aia = Universe.aia u;
    find_scenario =
      (fun needle ->
        if needle = "fixture" then Some (r.Population.domain, r.Population.chain)
        else None);
  }

let check_frame ?(id = "q") ?domain ?pem ?scenario ?certmsg ?format () =
  let opt k = function Some v -> [ (k, Json.String v) ] | None -> [] in
  Json.to_string
    (Json.Obj
       ([ ("id", Json.String id); ("op", Json.String "check") ]
       @ opt "domain" domain @ opt "pem" pem @ opt "scenario" scenario
       @ opt "certmsg" certmsg @ opt "format" format))

let fixture_pem () = Chaoschain_deployment.Pem.encode_certs (fixture_record ()).Population.chain

let response_field response key =
  match Json.of_string response with
  | Ok json -> Json.member key json
  | Error e -> Alcotest.fail ("unparseable response: " ^ e)

let expect_error response code =
  (match response_field response "ok" with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.fail ("expected ok:false in " ^ response));
  match response_field response "code" with
  | Some (Json.String c) -> Alcotest.(check string) "error code" code c
  | _ -> Alcotest.fail ("no code in " ^ response)

(* --- engine: error replies --- *)

let engine_error_replies () =
  let t = Engine.create ~env:(make_env ()) () in
  expect_error
    (Engine.handle_frame t (check_frame ~domain:"a.example" ~pem:"not pem at all" ()))
    "malformed_pem";
  expect_error
    (Engine.handle_frame t
       (check_frame ~domain:"a.example"
          ~pem:"-----BEGIN CERTIFICATE-----\n!!!!\n-----END CERTIFICATE-----\n" ()))
    "malformed_pem";
  expect_error (Engine.handle_frame t (check_frame ~scenario:"no-such-lab" ())) "unknown_scenario";
  expect_error (Engine.handle_frame t "{{{{") "malformed_frame";
  Engine.shutdown t;
  let m = Engine.metrics t in
  Alcotest.(check int) "errors counted" 4 m.S.Metrics.errors;
  Alcotest.(check int) "no verdicts cached" 0 (Engine.cache_size t)

(* --- engine: cache hit is byte-identical to the cold miss --- *)

let engine_hit_identical () =
  let t = Engine.create ~env:(make_env ()) () in
  let r = fixture_record () in
  let frame = check_frame ~domain:r.Population.domain ~pem:(fixture_pem ()) () in
  let cold = Engine.handle_frame t frame in
  let warm = Engine.handle_frame t frame in
  Alcotest.(check string) "hit == miss bytes" cold warm;
  let m = Engine.metrics t in
  Alcotest.(check int) "one miss" 1 m.S.Metrics.misses;
  Alcotest.(check int) "one hit" 1 m.S.Metrics.hits;
  Alcotest.(check int) "one cached verdict" 1 (Engine.cache_size t);
  (* the scenario spelling of the same chain+domain also hits the cache *)
  let via_scenario = Engine.handle_frame t (check_frame ~scenario:"fixture" ()) in
  Alcotest.(check string) "scenario serves same verdict" cold via_scenario;
  Alcotest.(check int) "second hit" 2 (Engine.metrics t).S.Metrics.hits;
  Engine.shutdown t

(* --- engine: certmsg checks, both framings, byte-identical verdicts --- *)

let fixture_certmsg fmt =
  Base64.encode
    (Certmsg.encode (Certmsg.of_certs fmt (fixture_record ()).Population.chain))

let engine_certmsg_both_framings () =
  let t = Engine.create ~env:(make_env ()) () in
  let r = fixture_record () in
  let domain = r.Population.domain in
  (* Same chain, two wire encodings, same request id: the responses must be
     byte-identical, and the second must be a cache hit (one shared verdict
     key regardless of framing). *)
  let r12 =
    Engine.handle_frame t
      (check_frame ~domain ~certmsg:(fixture_certmsg Certmsg.Tls12)
         ~format:"1.2" ())
  in
  let r13 =
    Engine.handle_frame t
      (check_frame ~domain ~certmsg:(fixture_certmsg Certmsg.Tls13)
         ~format:"1.3" ())
  in
  Alcotest.(check string) "verdicts byte-identical across framings" r12 r13;
  (* auto-detection (no "format") resolves both encodings too *)
  let auto12 =
    Engine.handle_frame t
      (check_frame ~domain ~certmsg:(fixture_certmsg Certmsg.Tls12) ())
  in
  let auto13 =
    Engine.handle_frame t
      (check_frame ~domain ~certmsg:(fixture_certmsg Certmsg.Tls13) ())
  in
  Alcotest.(check string) "auto-detected 1.2" r12 auto12;
  Alcotest.(check string) "auto-detected 1.3" r12 auto13;
  (* and the PEM spelling of the same chain joins the same cache entry *)
  let via_pem = Engine.handle_frame t (check_frame ~domain ~pem:(fixture_pem ()) ()) in
  Alcotest.(check string) "pem serves same verdict" r12 via_pem;
  let m = Engine.metrics t in
  Alcotest.(check int) "one miss" 1 m.S.Metrics.misses;
  Alcotest.(check int) "four hits" 4 m.S.Metrics.hits;
  Alcotest.(check int) "one cached verdict" 1 (Engine.cache_size t);
  Engine.shutdown t

let engine_certmsg_errors () =
  let t = Engine.create ~env:(make_env ()) () in
  let expect frame = expect_error (Engine.handle_frame t frame) "malformed_certmsg" in
  (* not base64 *)
  expect (check_frame ~domain:"d.example" ~certmsg:"!!!" ());
  (* base64 of garbage bytes *)
  expect (check_frame ~domain:"d.example" ~certmsg:(Base64.encode "garbage") ());
  (* a valid message of zero certificates *)
  expect
    (check_frame ~domain:"d.example"
       ~certmsg:(Base64.encode (Certmsg.encode (Certmsg.of_certs Certmsg.Tls12 [])))
       ());
  (* declared framing contradicts the bytes *)
  expect
    (check_frame ~domain:"d.example" ~certmsg:(fixture_certmsg Certmsg.Tls13)
       ~format:"1.2" ());
  Engine.shutdown t

let engine_verdict_fields () =
  let t = Engine.create ~env:(make_env ()) () in
  let response = Engine.handle_frame t (check_frame ~scenario:"fixture" ()) in
  (match response_field response "ok" with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail ("not ok: " ^ response));
  (match response_field response "verdict" with
  | Some verdict ->
      let has k =
        match Json.member k verdict with
        | Some _ -> ()
        | None -> Alcotest.fail ("verdict lacks " ^ k)
      in
      List.iter has [ "domain"; "chain"; "options"; "compliance"; "difftest"; "recommend" ];
      (match Json.member "difftest" verdict with
      | Some d -> (
          match Option.bind (Json.member "clients" d) Json.get_list with
          | Some clients ->
              Alcotest.(check int) "eight clients" 8 (List.length clients)
          | None -> Alcotest.fail "difftest.clients missing")
      | None -> assert false)
  | None -> Alcotest.fail "no verdict");
  Engine.shutdown t

(* --- engine: micro-batch coalescing + jobs invariance --- *)

let batch_frames () =
  let r = fixture_record () in
  let pem = fixture_pem () in
  [ check_frame ~id:"b1" ~domain:r.Population.domain ~pem ();
    check_frame ~id:"b2" ~domain:r.Population.domain ~pem ();  (* same key *)
    check_frame ~id:"b3" ~domain:"other.example" ~pem ();       (* new key *)
    check_frame ~id:"b4" ~scenario:"fixture" () ]               (* same as b1 *)

let run_batch ~jobs =
  let t = Engine.create ~env:(make_env ()) ~batch:8 ~jobs () in
  List.iter
    (fun f ->
      match Engine.submit t ~tag:0 f with
      | `Admitted -> ()
      | `Rejected _ -> Alcotest.fail "unexpected rejection")
    (batch_frames ());
  let responses = List.map snd (Engine.drain_tagged t) in
  let m = Engine.metrics t in
  Engine.shutdown t;
  (responses, m)

let engine_batch_coalesces () =
  let responses, m = run_batch ~jobs:1 in
  Alcotest.(check int) "all answered" 4 (List.length responses);
  (* b1/b2/b4 share one verdict computation; b3 is distinct *)
  Alcotest.(check int) "two misses" 2 m.S.Metrics.misses;
  Alcotest.(check int) "two coalesced hits" 2 m.S.Metrics.hits;
  let verdict_of r =
    match response_field r "verdict" with
    | Some v -> Json.to_string v
    | None -> Alcotest.fail ("no verdict in " ^ r)
  in
  match responses with
  | [ r1; r2; _r3; r4 ] ->
      Alcotest.(check string) "coalesced identical" (verdict_of r1) (verdict_of r2);
      Alcotest.(check string) "scenario joined too" (verdict_of r1) (verdict_of r4)
  | _ -> Alcotest.fail "response count"

let engine_jobs_invariant () =
  let r1, m1 = run_batch ~jobs:1 in
  let r4, m4 = run_batch ~jobs:4 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "response %d" i) a b)
    (List.combine r1 r4 |> List.map (fun x -> x));
  Alcotest.(check int) "same hits" m1.S.Metrics.hits m4.S.Metrics.hits;
  Alcotest.(check int) "same misses" m1.S.Metrics.misses m4.S.Metrics.misses

(* --- engine: admission-queue overload --- *)

let engine_overload_rejects () =
  let t = Engine.create ~env:(make_env ()) ~queue_capacity:2 ~batch:8 () in
  let frame i = check_frame ~id:(Printf.sprintf "o%d" i) ~scenario:"fixture" () in
  (match Engine.submit t ~tag:0 (frame 1) with `Admitted -> () | _ -> Alcotest.fail "1st");
  (match Engine.submit t ~tag:0 (frame 2) with `Admitted -> () | _ -> Alcotest.fail "2nd");
  (match Engine.submit t ~tag:0 (frame 3) with
  | `Rejected response ->
      expect_error response "overloaded";
      (match response_field response "id" with
      | Some (Json.String id) -> Alcotest.(check string) "id echoed" "o3" id
      | _ -> Alcotest.fail "no id in rejection")
  | `Admitted -> Alcotest.fail "queue bound not enforced");
  Alcotest.(check int) "two pending" 2 (Engine.pending t);
  let responses = List.map snd (Engine.drain_tagged t) in
  Alcotest.(check int) "both served after drain" 2 (List.length responses);
  Alcotest.(check int) "queue empty" 0 (Engine.pending t);
  (* capacity is free again *)
  (match Engine.submit t ~tag:0 (frame 4) with `Admitted -> () | _ -> Alcotest.fail "4th");
  let m = Engine.metrics t in
  Alcotest.(check int) "one reject" 1 m.S.Metrics.rejects;
  Alcotest.(check int) "admissions counted" 3 m.S.Metrics.requests;
  Engine.shutdown t

(* --- the stdio serve path: one Netloop connection --- *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let read_all fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

(* Serve [chunks] (written one [write] each) through [Netd.serve_stdio] on
   a pipe pair: a Domain feeds the input pipe and closes it, another
   collects the replies, so neither side can fill a pipe and stall. *)
let serve_pipes ?config t chunks =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let writer =
    Domain.spawn (fun () ->
        List.iter (write_all in_w) chunks;
        Unix.close in_w)
  in
  let reader = Domain.spawn (fun () -> read_all out_r) in
  let stats = Netd.serve_stdio ?config ~input:in_r ~output:out_w t in
  Unix.close out_w;
  Domain.join writer;
  let out = Domain.join reader in
  Unix.close in_r;
  Unix.close out_r;
  (stats, lines out)

let frames_text frames = String.concat "" (List.map (fun f -> f ^ "\n") frames)

let stats_int stats k =
  match Json.member k stats with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.fail ("stats lacks " ^ k)

let stats_payload reply =
  match response_field reply "stats" with
  | Some s -> s
  | None -> Alcotest.fail ("no stats in " ^ reply)

let reply_id reply =
  match response_field reply "id" with
  | Some (Json.String id) -> id
  | _ -> Alcotest.fail ("no id in " ^ reply)

let with_max_frame max_frame =
  { Chaoschain_net.Netloop.default_config with
    Chaoschain_net.Netloop.max_frame }

let serve_loop_stdio () =
  let t = Engine.create ~env:(make_env ()) ~batch:2 ~jobs:2 () in
  let frames =
    [ check_frame ~id:"m1" ~scenario:"fixture" ();
      check_frame ~id:"m2" ~scenario:"fixture" ();
      "garbage frame";
      Json.to_string (Json.Obj [ ("id", Json.String "m3"); ("op", Json.String "stats") ]) ]
  in
  let _, out = serve_pipes t [ frames_text frames ] in
  Engine.shutdown t;
  Alcotest.(check int) "four replies" 4 (List.length out);
  (* stats is the last reply and reflects the whole stream *)
  let stats = stats_payload (List.nth out 3) in
  Alcotest.(check int) "hits" 1 (stats_int stats "hits");
  Alcotest.(check int) "misses" 1 (stats_int stats "misses");
  Alcotest.(check int) "errors" 1 (stats_int stats "errors");
  Alcotest.(check int) "rejects" 0 (stats_int stats "rejects");
  match out with
  | r1 :: r2 :: rbad :: _ ->
      Alcotest.(check string) "m1/m2 verdicts identical"
        (Json.to_string (Option.get (response_field r1 "verdict")))
        (Json.to_string (Option.get (response_field r2 "verdict")));
      expect_error rbad "malformed_frame"
  | _ -> Alcotest.fail "reply order"

(* Regression: the stdio path used to reject every frame past the
   admission queue with "overloaded" (a 20,001-line pipe at --queue 64
   drew ~19,900 rejections, the trailing stats probe among them). As a
   Netloop connection it pauses reading instead: nothing is rejected,
   replies leave in request order, and the final stats sees every check. *)
let stdio_paces_queue () =
  let t = Engine.create ~env:(make_env ()) ~queue_capacity:4 ~jobs:1 () in
  let n = 500 in
  let frames =
    List.init n (fun i ->
        check_frame ~id:(Printf.sprintf "p%d" i) ~scenario:"fixture" ())
    @ [ {|{"id":"last","op":"stats"}|} ]
  in
  let stats, out = serve_pipes t [ frames_text frames ] in
  Engine.shutdown t;
  Alcotest.(check int) "every frame answered" (n + 1) (List.length out);
  Alcotest.(check int) "no overloaded replies" 0
    (List.length
       (List.filter
          (fun r -> response_field r "code" = Some (Json.String "overloaded"))
          out));
  Alcotest.(check (list string)) "replies in request order"
    (List.init n (Printf.sprintf "p%d") @ [ "last" ])
    (List.map reply_id out);
  let s = stats_payload (List.nth out n) in
  Alcotest.(check int) "stats counts every check" n (stats_int s "checks");
  Alcotest.(check int) "stats counts no rejects" 0 (stats_int s "rejects");
  Alcotest.(check int) "loop frames" (n + 1) stats.Chaoschain_net.Netloop.frames

(* --- pipeline pool (tentpole refactor): reuse across batches --- *)

let pool_reusable () =
  let pool = Pipeline.Pool.create ~jobs:4 in
  let total = ref 0 in
  let lock = Mutex.create () in
  for round = 1 to 5 do
    let n = 100 * round in
    let acc = Array.make n 0 in
    Pipeline.Pool.run pool n (fun i -> acc.(i) <- i + round);
    let sum = Array.fold_left ( + ) 0 acc in
    Mutex.lock lock;
    total := !total + sum;
    Mutex.unlock lock;
    Alcotest.(check int)
      (Printf.sprintf "round %d" round)
      ((n * (n - 1) / 2) + (n * round))
      sum
  done;
  (* exceptions surface from run and do not poison the pool *)
  (match Pipeline.Pool.run pool 8 (fun i -> if i = 3 then failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure msg -> Alcotest.(check string) "propagated" "boom" msg);
  let arr = Array.make 16 0 in
  Pipeline.Pool.run pool 16 (fun i -> arr.(i) <- 1);
  Alcotest.(check int) "pool still works" 16 (Array.fold_left ( + ) 0 arr);
  Pipeline.Pool.shutdown pool

(* --- satellite: degenerate LRU capacities --- *)

let lru_degenerate_capacities () =
  (* capacity 0: a valid cache that never holds anything *)
  let l0 = S.Lru.create ~capacity:0 in
  S.Lru.add l0 "k" 1;
  S.Lru.add l0 "k" 2;
  Alcotest.(check int) "cap 0 stays empty" 0 (S.Lru.size l0);
  Alcotest.(check (option int)) "cap 0 always misses" None (S.Lru.find l0 "k");
  Alcotest.(check int) "cap 0 never evicts" 0 (S.Lru.evictions l0);
  (* capacity 1: every insert of a new key displaces the old one *)
  let l1 = S.Lru.create ~capacity:1 in
  S.Lru.add l1 "a" 1;
  Alcotest.(check (option int)) "single entry" (Some 1) (S.Lru.find l1 "a");
  S.Lru.add l1 "b" 2;
  Alcotest.(check int) "still one entry" 1 (S.Lru.size l1);
  Alcotest.(check bool) "a displaced" false (S.Lru.mem l1 "a");
  S.Lru.add l1 "b" 22;
  Alcotest.(check (option int)) "update in place" (Some 22) (S.Lru.find l1 "b");
  Alcotest.(check int) "one eviction" 1 (S.Lru.evictions l1);
  Alcotest.(check (list string)) "mru list" [ "b" ] (S.Lru.keys_mru_first l1);
  match S.Lru.create ~capacity:(-1) with
  | _ -> Alcotest.fail "negative capacity accepted"
  | exception Invalid_argument _ -> ()

(* --- satellite: astral-plane JSON round-trips --- *)

let utf8_of_astral cp =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr (0xF0 lor (cp lsr 18)));
  Bytes.set b 1 (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
  Bytes.set b 2 (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
  Bytes.set b 3 (Char.chr (0x80 lor (cp land 0x3F)));
  Bytes.to_string b

let qcheck_json_astral =
  QCheck.Test.make ~name:"astral code points survive surrogate decoding"
    ~count:300
    QCheck.(int_range 0x10000 0x10FFFF)
    (fun cp ->
      let u = cp - 0x10000 in
      let hi = 0xD800 lor (u lsr 10) and lo = 0xDC00 lor (u land 0x3FF) in
      let text = Printf.sprintf "\"\\u%04x\\u%04x\"" hi lo in
      match Json.of_string text with
      | Ok (Json.String s) ->
          (* the surrogate pair decodes to the 4-byte UTF-8 sequence ... *)
          String.equal s (utf8_of_astral cp)
          (* ... and the encoder emits something that parses back to it *)
          && (match Json.of_string (Json.to_string (Json.String s)) with
             | Ok (Json.String s') -> String.equal s s'
             | _ -> false)
      | _ -> false)

(* --- satellite: scripted engine clock makes latency deterministic --- *)

let engine_scripted_clock () =
  let script = ref [ 100.0; 100.010; 200.0; 200.0025 ] in
  let now () =
    match !script with
    | [] -> Alcotest.fail "clock consulted more often than scripted"
    | t :: rest ->
        script := rest;
        t
  in
  let t = Engine.create ~env:(make_env ()) ~now () in
  (* miss: timed (ticks 1-2); hit: served without consulting the clock *)
  let cold = Engine.handle_frame t (check_frame ~scenario:"fixture" ()) in
  let hot = Engine.handle_frame t (check_frame ~scenario:"fixture" ()) in
  Alcotest.(check string) "clock does not leak into verdicts" cold hot;
  (* stats: timed (ticks 3-4) *)
  let _ =
    Engine.handle_frame t
      (Json.to_string (Json.Obj [ ("op", Json.String "stats") ]))
  in
  let m = Engine.metrics t in
  Engine.shutdown t;
  Alcotest.(check int) "two timed services" 2 m.S.Metrics.lat_count;
  Alcotest.(check (float 1e-6)) "mean from the script" 6.25 m.S.Metrics.lat_mean_ms;
  Alcotest.(check (float 1e-6)) "max from the script" 10.0 m.S.Metrics.lat_max_ms;
  Alcotest.(check bool) "script fully consumed" true (!script = [])

(* --- bounded request lines on the stdio path --- *)

(* An overlong line is answered in its place in the request order, never
   ahead of replies to earlier lines still being computed. For order
   assertions, each reply becomes its id, or its error code when the line
   never parsed far enough to carry one. *)
let reply_tags out =
  List.map
    (fun r ->
      match (response_field r "id", response_field r "code") with
      | Some (Json.String id), _ -> id
      | _, Some (Json.String code) -> code
      | _ -> Alcotest.fail ("neither id nor code in " ^ r))
    out

(* [serve < file]: a regular-file stdin, which the select backend serves
   (epoll would refuse it), with replies going to a regular file. *)
let overlong_file_stdin () =
  let t = Engine.create ~env:(make_env ()) () in
  let input = Filename.temp_file "chaind" ".in" in
  let output = Filename.temp_file "chaind" ".out" in
  Out_channel.with_open_bin input (fun oc ->
      output_string oc (frames_text [ "short"; "waaaay too long"; "ok" ]));
  let in_fd = Unix.openfile input [ Unix.O_RDONLY ] 0 in
  let out_fd = Unix.openfile output [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let _ =
    Netd.serve_stdio ~config:(with_max_frame 8) ~input:in_fd ~output:out_fd t
  in
  Unix.close in_fd;
  Unix.close out_fd;
  Engine.shutdown t;
  let out = lines (In_channel.with_open_bin output In_channel.input_all) in
  Sys.remove input;
  Sys.remove output;
  (* "short" and "ok" fit the bound and reach the parser *)
  Alcotest.(check (list string)) "replies in request order"
    [ "malformed_frame"; "overlong"; "malformed_frame" ]
    (reply_tags out)

let overlong_pipe () =
  let t = Engine.create ~env:(make_env ()) () in
  (* one line far past the bound, then a short one, then an overlong line
     assembled from two writes, then a short tail *)
  let _, out =
    serve_pipes ~config:(with_max_frame 32) t
      [ String.make 200 'x'; "\n"; {|{"id":"a","op":"stats"}|} ^ "\n";
        String.make 40 'y'; String.make 40 'y';
        "\n" ^ {|{"id":"b","op":"stats"}|} ^ "\n" ]
  in
  Engine.shutdown t;
  Alcotest.(check (list string)) "framing resumes after each, in order"
    [ "overlong"; "a"; "overlong"; "b" ]
    (reply_tags out)

let serve_overlong_reply () =
  let t = Engine.create ~env:(make_env ()) () in
  (* the check before the overlong line is a miss, still computing when
     the line is cut off: its reply must come first *)
  let frames =
    [ check_frame ~id:"s0" ~scenario:"fixture" (); String.make 300 'z';
      check_frame ~id:"s1" ~scenario:"fixture" () ]
  in
  let _, out = serve_pipes ~config:(with_max_frame 200) t [ frames_text frames ] in
  Engine.shutdown t;
  Alcotest.(check (list string)) "replies in request order"
    [ "s0"; "overlong"; "s1" ] (reply_tags out);
  List.iter
    (fun r ->
      if reply_tags [ r ] <> [ "overlong" ] then
        match response_field r "ok" with
        | Some (Json.Bool true) -> ()
        | _ -> Alcotest.fail ("check around the overlong line failed: " ^ r))
    out;
  let m = Engine.metrics t in
  Alcotest.(check int) "overlong counted as error" 1 m.S.Metrics.errors;
  Alcotest.(check int) "overlong is not a request" 2 m.S.Metrics.requests;
  Alcotest.(check int) "checks still served" 1 m.S.Metrics.misses

(* --- stdio path: the reader of stdout going away must not kill the
   process (the runner ignores SIGPIPE, so the write fails with EPIPE) --- *)

let stdio_disconnect () =
  let t = Engine.create ~env:(make_env ()) () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  (* the peer hangs up before the reply is written; stdin stays open, so
     only the dead write side can end the loop *)
  Unix.close out_r;
  write_all in_w (check_frame ~id:"d1" ~scenario:"fixture" () ^ "\n");
  (* with the default disposition, a runner that did not ignore SIGPIPE
     would kill this test process *)
  let prev = Sys.signal Sys.sigpipe Sys.Signal_default in
  let stats, after =
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
      (fun () ->
        let stats = Netd.serve_stdio ~input:in_r ~output:out_w t in
        (stats, Sys.signal Sys.sigpipe Sys.Signal_default))
  in
  Engine.shutdown t;
  List.iter Unix.close [ in_r; in_w; out_w ];
  Alcotest.(check int) "frame was read" 1 stats.Chaoschain_net.Netloop.frames;
  Alcotest.(check int) "connection reaped" 0
    stats.Chaoschain_net.Netloop.live_conns;
  Alcotest.(check bool) "SIGPIPE disposition restored" true
    (after = Sys.Signal_default)

(* --- metrics: tail quantiles --- *)

let metrics_quantiles () =
  let m = S.Metrics.create () in
  (* 90 fast, 9 medium, 1 slow: the quantiles land in known buckets *)
  for _ = 1 to 90 do S.Metrics.observe_latency m 0.00004 done;
  for _ = 1 to 9 do S.Metrics.observe_latency m 0.0002 done;
  S.Metrics.observe_latency m 0.03;
  let s = S.Metrics.snapshot m in
  Alcotest.(check int) "count" 100 s.S.Metrics.lat_count;
  Alcotest.(check (float 1e-9)) "p50" 0.05 s.S.Metrics.lat_p50_ms;
  Alcotest.(check (float 1e-9)) "p90" 0.05 s.S.Metrics.lat_p90_ms;
  Alcotest.(check (float 1e-9)) "p95" 0.25 s.S.Metrics.lat_p95_ms;
  Alcotest.(check (float 1e-9)) "p99" 0.25 s.S.Metrics.lat_p99_ms;
  Alcotest.(check (float 1e-9)) "p999" 50.0 s.S.Metrics.lat_p999_ms;
  Alcotest.(check (float 1e-6)) "max" 30.0 s.S.Metrics.lat_max_ms;
  let empty = S.Metrics.snapshot (S.Metrics.create ()) in
  Alcotest.(check (float 0.0)) "empty p999" 0.0 empty.S.Metrics.lat_p999_ms

(* --- engine: tagged submission for the netd front end --- *)

let engine_tagged_submit () =
  let t = Engine.create ~env:(make_env ()) () in
  Alcotest.(check bool) "room before" true (Engine.can_admit t);
  let frame k = check_frame ~id:(Printf.sprintf "t%d" k) ~scenario:"fixture" () in
  List.iter
    (fun k ->
      match Engine.submit t ~tag:(100 + k) (frame k) with
      | `Admitted -> ()
      | `Rejected _ -> Alcotest.fail "unexpected rejection")
    [ 0; 1; 2 ];
  Alcotest.(check int) "pending" 3 (Engine.pending t);
  let replies = Engine.drain_tagged t in
  Alcotest.(check (list int)) "tags in request order" [ 100; 101; 102 ]
    (List.map fst replies);
  List.iteri
    (fun k (_, response) ->
      match response_field response "id" with
      | Some (Json.String id) ->
          Alcotest.(check string) "id echoed" (Printf.sprintf "t%d" k) id
      | _ -> Alcotest.fail "no id in tagged reply")
    replies;
  (* stats replies surface the new tail quantiles *)
  (match Engine.drain_tagged t with
  | [] -> ()
  | _ -> Alcotest.fail "queue should be empty");
  (match Engine.submit t ~tag:7 "{\"id\":\"s\",\"op\":\"stats\"}" with
  | `Admitted -> ()
  | `Rejected _ -> Alcotest.fail "stats rejected");
  (match Engine.drain_tagged t with
  | [ (7, response) ] ->
      let stats =
        match response_field response "stats" with
        | Some s -> s
        | None -> Alcotest.fail "no stats payload"
      in
      let lat =
        match Json.member "latency_ms" stats with
        | Some l -> l
        | None -> Alcotest.fail "no latency_ms block"
      in
      List.iter
        (fun key ->
          if Json.member key lat = None then
            Alcotest.fail ("stats latency block lacks " ^ key))
        [ "p50"; "p90"; "p95"; "p99"; "p999" ]
  | _ -> Alcotest.fail "tagged stats reply expected");
  Engine.submit_overlong t ~tag:9;
  (match Engine.drain_tagged t with
  | [ (9, response) ] -> expect_error response "overlong"
  | _ -> Alcotest.fail "tagged overlong reply expected");
  Engine.shutdown t

(* --- golden verdict digest --- *)

(* Every record of the scale-0.002 population checked once through the
   serial oracle, no cache, rotating the trust store (union, Microsoft,
   Apple) and turning AIA off on one frame in three; the SHA-256 of the
   replies (each followed by a newline) is pinned in
   golden/verdicts_scale0.002.sha256. It fixes every verdict byte,
   per-client error messages and DN renderings included. *)
let golden_frames pop =
  let stores =
    [| Protocol.Union; Protocol.Program Root_store.Microsoft;
       Protocol.Program Root_store.Apple |]
  in
  Array.mapi
    (fun i (r : Population.record) ->
      Protocol.to_frame
        {
          Protocol.id = Some (string_of_int i);
          op =
            Protocol.Check
              {
                Protocol.domain = Some r.Population.domain;
                pem = Some (Chaoschain_deployment.Pem.encode_certs r.Population.chain);
                scenario = None;
                certmsg = None;
                format = None;
                aia = i / 3 mod 3 <> 2;
                store = stores.(i mod 3);
                clients = None;
              };
        })
    pop.Population.domains

let golden_verdict_digest () =
  let pop = Population.generate ~scale:0.002 () in
  let u = pop.Population.universe in
  let env =
    {
      Engine.diff_env = Population.env pop;
      union_store = Universe.union_store u;
      program_store = Universe.store u;
      aia = Universe.aia u;
      find_scenario = Scenario_index.find (Scenario_index.create pop);
    }
  in
  let t = Engine.create ~env ~cache_capacity:0 () in
  let ctx = Chaoschain_crypto.Sha256.init () in
  Array.iter
    (fun frame ->
      Chaoschain_crypto.Sha256.feed ctx (Engine.handle_frame t frame);
      Chaoschain_crypto.Sha256.feed ctx "\n")
    (golden_frames pop);
  Engine.shutdown t;
  let digest = Chaoschain_crypto.Hex.encode (Chaoschain_crypto.Sha256.finalize ctx) in
  let path =
    List.find Sys.file_exists
      [ "golden/verdicts_scale0.002.sha256"; "test/golden/verdicts_scale0.002.sha256" ]
  in
  let golden = String.trim (In_channel.with_open_bin path In_channel.input_all) in
  Alcotest.(check string) "verdict digest" golden digest

let suite =
  [ Alcotest.test_case "json round-trip" `Quick json_round_trip;
    Alcotest.test_case "json decode escapes" `Quick json_decode_escapes;
    Alcotest.test_case "json rejects malformed" `Quick json_rejects_malformed;
    Alcotest.test_case "protocol round-trip" `Quick proto_round_trip;
    Alcotest.test_case "protocol certmsg round-trip" `Quick proto_certmsg_round_trip;
    Alcotest.test_case "protocol rejects malformed" `Quick proto_rejects_malformed;
    Alcotest.test_case "lru capacity bound" `Quick lru_capacity_bound;
    Alcotest.test_case "lru eviction order" `Quick lru_eviction_order;
    Alcotest.test_case "engine error replies" `Slow engine_error_replies;
    Alcotest.test_case "cache hit byte-identical" `Slow engine_hit_identical;
    Alcotest.test_case "certmsg both framings" `Slow engine_certmsg_both_framings;
    Alcotest.test_case "certmsg error replies" `Slow engine_certmsg_errors;
    Alcotest.test_case "verdict fields" `Slow engine_verdict_fields;
    Alcotest.test_case "micro-batch coalescing" `Slow engine_batch_coalesces;
    Alcotest.test_case "jobs-invariant responses" `Slow engine_jobs_invariant;
    Alcotest.test_case "overload rejection" `Slow engine_overload_rejects;
    Alcotest.test_case "serve loop (stdio connection)" `Slow serve_loop_stdio;
    Alcotest.test_case "stdio paces past the queue bound" `Slow
      stdio_paces_queue;
    Alcotest.test_case "pipeline pool reusable" `Quick pool_reusable;
    Alcotest.test_case "lru degenerate capacities" `Quick lru_degenerate_capacities;
    QCheck_alcotest.to_alcotest qcheck_json_astral;
    Alcotest.test_case "scripted engine clock" `Slow engine_scripted_clock;
    Alcotest.test_case "overlong line (file stdin)" `Slow overlong_file_stdin;
    Alcotest.test_case "overlong line (fd transport)" `Slow overlong_pipe;
    Alcotest.test_case "overlong reply from serve" `Slow serve_overlong_reply;
    Alcotest.test_case "fd transport survives disconnect" `Slow
      stdio_disconnect;
    Alcotest.test_case "metrics tail quantiles" `Quick metrics_quantiles;
    Alcotest.test_case "tagged submit/drain" `Slow engine_tagged_submit;
    Alcotest.test_case "golden verdict digest" `Slow golden_verdict_digest ]
