(* lib/net: incremental framing (chunk-boundary invariance, overlong
   discard/resume), the netloop event loop (fairness, per-connection reply
   order, graceful drain) and its glue to the real engine (many concurrent
   connections answered byte-identically to the serial path), plus the
   loadgen sample statistics. *)

open Chaoschain_net
module S = Chaoschain_service
module Engine = S.Engine
module Netd = S.Netd

(* --- framing --- *)

(* Pull everything the machine can deliver right now; overlong reports
   become the "<overlong>" marker so orderings are assertable. *)
let drain_frames t =
  let rec go acc =
    match Framing.next t with
    | `Frame f -> go (f :: acc)
    | `Overlong -> go ("<overlong>" :: acc)
    | `Await | `Eof -> List.rev acc
  in
  go []

let frames_of ~chunks ?(max_frame = Framing.default_max_frame) () =
  let t = Framing.create ~max_frame () in
  let out =
    List.concat_map
      (fun chunk ->
        Framing.feed_string t chunk;
        drain_frames t)
      chunks
  in
  Framing.eof t;
  out @ drain_frames t

let framing_every_split () =
  let input = "alpha\nbb\n\nlong-line-0123456789\nz" in
  let expected = [ "alpha"; "bb"; ""; "long-line-0123456789"; "z" ] in
  for cut = 0 to String.length input do
    let a = String.sub input 0 cut in
    let b = String.sub input cut (String.length input - cut) in
    Alcotest.(check (list string))
      (Printf.sprintf "split at %d" cut)
      expected
      (frames_of ~chunks:[ a; b ] ())
  done;
  (* byte-at-a-time: the most hostile chunking *)
  let bytes = List.init (String.length input) (fun i -> String.make 1 input.[i]) in
  Alcotest.(check (list string)) "byte at a time" expected
    (frames_of ~chunks:bytes ())

let framing_multi_frame_chunk () =
  let t = Framing.create () in
  Framing.feed_string t "a\nb\nc\nrest";
  Alcotest.(check (list string)) "three at once" [ "a"; "b"; "c" ]
    (drain_frames t);
  Framing.feed_string t "1\n";
  Alcotest.(check (list string)) "partial completed" [ "rest1" ]
    (drain_frames t);
  Framing.eof t;
  Alcotest.(check (list string)) "nothing at eof" [] (drain_frames t);
  Alcotest.(check bool) "at eof" true (Framing.at_eof t)

let framing_overlong_resume () =
  (* a 20-byte line against an 8-byte bound, split into 3-byte chunks:
     exactly one overlong report, then framing resumes cleanly *)
  let input = "0123456789abcdefghij\nok\n" in
  let rec chop s =
    if String.length s <= 3 then [ s ]
    else String.sub s 0 3 :: chop (String.sub s 3 (String.length s - 3))
  in
  Alcotest.(check (list string)) "overlong then resume"
    [ "<overlong>"; "ok" ]
    (frames_of ~chunks:(chop input) ~max_frame:8 ());
  (* boundary: an 8-byte line passes, a 9-byte line does not *)
  Alcotest.(check (list string)) "at the bound"
    [ "12345678"; "<overlong>"; "x" ]
    (frames_of ~chunks:[ "12345678\n123456789\nx\n" ] ~max_frame:8 ())

let framing_bounded_buffer () =
  (* an endless newline-free stream must not accumulate memory *)
  let t = Framing.create ~max_frame:16 () in
  let chunk = String.make 64 'a' in
  let overlongs = ref 0 in
  for _ = 1 to 100 do
    Framing.feed_string t chunk;
    List.iter
      (fun f -> if f = "<overlong>" then incr overlongs)
      (drain_frames t)
  done;
  Alcotest.(check int) "one report" 1 !overlongs;
  Alcotest.(check bool) "buffer bounded"
    true
    (Framing.buffered t <= 16 + 64 + 1)

(* --- loadgen statistics --- *)

let loadgen_quantiles () =
  let samples = Array.init 100 (fun i -> Float.of_int (100 - i)) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (Loadgen.quantile samples 0.5);
  Alcotest.(check (float 0.0)) "p90" 90.0 (Loadgen.quantile samples 0.9);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Loadgen.quantile samples 0.99);
  Alcotest.(check (float 0.0)) "p999" 100.0 (Loadgen.quantile samples 0.999);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Loadgen.quantile [||] 0.5);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Loadgen.mean samples)

(* --- netd address parsing --- *)

let netd_parse_addr () =
  (match Netd.parse_addr "unix:/tmp/x.sock" with
  | Ok (Netd.Unix_path "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix: prefix");
  (match Netd.parse_addr "tcp:127.0.0.1:4433" with
  | Ok (Netd.Tcp ("127.0.0.1", 4433)) -> ()
  | _ -> Alcotest.fail "tcp: prefix");
  (match Netd.parse_addr "localhost:8080" with
  | Ok (Netd.Tcp ("localhost", 8080)) -> ()
  | _ -> Alcotest.fail "host:port");
  (match Netd.parse_addr "/var/run/chaind.sock" with
  | Ok (Netd.Unix_path "/var/run/chaind.sock") -> ()
  | _ -> Alcotest.fail "bare path");
  match Netd.parse_addr "tcp:nohost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tcp: without port must be rejected"

(* --- netloop harness --- *)

let socket_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "chaos-netloop-%d-%d.sock" (Unix.getpid ()) !counter)

(* Netloop installs no signal handlers (serve_listen does); the test drives
   the loop directly, so writes to vanished peers must not kill the runner. *)
let with_listener f =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let path = socket_path () in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Netd.listen_socket (Netd.Unix_path path) with
  | Error e -> Alcotest.fail e
  | Ok listen ->
      Fun.protect
        ~finally:(fun () ->
          ignore (Sys.signal Sys.sigpipe prev);
          (try Unix.unlink path with Unix.Unix_error _ -> ()))
        (fun () -> f path listen)

let dial path = Netd.dial (Netd.Unix_path path)

(* A deterministic single-batch echo sink. *)
let echo_sink () =
  let q = Queue.create () in
  {
    Netloop.can_admit = (fun () -> Queue.length q < 8);
    submit =
      (fun ~tag frame ->
        Queue.add (tag, "echo:" ^ frame) q;
        `Admitted);
    drain =
      (fun () ->
        let out = ref [] in
        for _ = 1 to min 4 (Queue.length q) do
          out := Queue.pop q :: !out
        done;
        List.rev !out);
    pending = (fun () -> Queue.length q);
    submit_overlong = (fun ~tag -> Queue.add (tag, "OVERLONG") q);
  }

type client = {
  fd : Unix.file_descr;
  buf : Buffer.t;               (* reply bytes not yet split into lines *)
  mutable replies : string list;  (* completed reply lines, reversed *)
}

let client_pump cl =
  let chunk = Bytes.create 8192 in
  let rec go () =
    match Unix.read cl.fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes cl.buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ();
  let s = Buffer.contents cl.buf in
  match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
      Buffer.clear cl.buf;
      Buffer.add_substring cl.buf s (last + 1) (String.length s - last - 1);
      String.split_on_char '\n' (String.sub s 0 last)
      |> List.iter (fun line -> cl.replies <- line :: cl.replies)

let drive ?(max_iters = 10_000) loop clients done_yet =
  let iters = ref 0 in
  while (not (done_yet ())) && !iters < max_iters do
    incr iters;
    ignore (Netloop.step ~timeout:0.01 loop);
    List.iter client_pump clients
  done;
  if not (done_yet ()) then Alcotest.fail "event loop made no progress"

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

(* --- poller conformance ---

   One suite, every available backend: the two implementations must be
   observationally interchangeable (level-triggered readiness, interest
   masking, deregistration, timeout semantics) for netloop/loadgen to be
   backend-agnostic. *)

let available_backends =
  List.filter Poller.available [ Poller.Select; Poller.Epoll ]

let with_poller backend f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let p = Poller.create backend in
  Fun.protect
    ~finally:(fun () ->
      Poller.close p;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () -> f p a b)

(* The events reported for [fd], folded into one (readable, writable). *)
let ready_for fd events =
  List.fold_left
    (fun (ar, aw) (efd, r, w) ->
      if efd = fd then (ar || r, aw || w) else (ar, aw))
    (false, false) events

let poller_transitions backend () =
  with_poller backend @@ fun p a b ->
  Poller.set p a ~read:true ~write:false;
  Alcotest.(check int) "one registered" 1 (Poller.registered p);
  Alcotest.(check (pair bool bool))
    "idle: nothing readable" (false, false)
    (ready_for a (Poller.wait p ~timeout:0.0));
  write_all b "x";
  Alcotest.(check (pair bool bool))
    "readable, not writable (write interest off)" (true, false)
    (ready_for a (Poller.wait p ~timeout:1.0));
  (* still readable: level-triggered, the byte was not consumed *)
  Alcotest.(check (pair bool bool))
    "still readable" (true, false)
    (ready_for a (Poller.wait p ~timeout:1.0));
  Poller.set p a ~read:true ~write:true;
  Alcotest.(check (pair bool bool))
    "readable and writable" (true, true)
    (ready_for a (Poller.wait p ~timeout:1.0));
  (* consume the byte: only writability remains *)
  ignore (Unix.read a (Bytes.create 8) 0 8);
  Alcotest.(check (pair bool bool))
    "drained: writable only" (false, true)
    (ready_for a (Poller.wait p ~timeout:1.0));
  (* a pending byte under write-only interest must not surface as read *)
  write_all b "y";
  Poller.set p a ~read:false ~write:true;
  Alcotest.(check (pair bool bool))
    "interest masks readiness" (false, true)
    (ready_for a (Poller.wait p ~timeout:1.0));
  (* no interest at all: silence, even with data pending *)
  Poller.set p a ~read:false ~write:false;
  Alcotest.(check (pair bool bool))
    "no interest, no events" (false, false)
    (ready_for a (Poller.wait p ~timeout:0.0))

let poller_deregister backend () =
  with_poller backend @@ fun p a b ->
  Poller.set p a ~read:true ~write:false;
  Poller.set p b ~read:true ~write:false;
  Alcotest.(check int) "two registered" 2 (Poller.registered p);
  write_all b "x";
  (* deregister-then-close must be clean: no event for b afterwards, and
     the removal of an already-closed fd is harmless *)
  Poller.remove p b;
  Unix.close b;
  Poller.remove p b;
  Alcotest.(check int) "one registered" 1 (Poller.registered p);
  let events = Poller.wait p ~timeout:1.0 in
  Alcotest.(check bool) "no events for the removed fd" false
    (List.exists (fun (fd, _, _) -> fd = b) events);
  Alcotest.(check (pair bool bool))
    "survivor still reported" (true, false)
    (ready_for a events);
  Poller.remove p a;
  Alcotest.(check int) "empty" 0 (Poller.registered p);
  Alcotest.(check (list unit)) "no events at all" []
    (List.map (fun _ -> ()) (Poller.wait p ~timeout:0.0))

let poller_timeout backend () =
  with_poller backend @@ fun p a b ->
  Poller.set p a ~read:true ~write:false;
  (* zero timeout: an immediate empty poll *)
  let t0 = Unix.gettimeofday () in
  Alcotest.(check (pair bool bool))
    "zero-timeout poll" (false, false)
    (ready_for a (Poller.wait p ~timeout:0.0));
  Alcotest.(check bool) "zero timeout returns immediately" true
    (Unix.gettimeofday () -. t0 < 0.5);
  (* a positive timeout actually blocks when nothing is ready *)
  let t0 = Unix.gettimeofday () in
  Alcotest.(check (pair bool bool))
    "idle wait times out empty" (false, false)
    (ready_for a (Poller.wait p ~timeout:0.2));
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "waited >= 0.1s (got %.3f)" dt)
    true (dt >= 0.1);
  (* pending readiness preempts a long timeout *)
  write_all b "x";
  let t0 = Unix.gettimeofday () in
  Alcotest.(check (pair bool bool))
    "readiness preempts the timeout" (true, false)
    (ready_for a (Poller.wait p ~timeout:10.0));
  Alcotest.(check bool) "returned well before the timeout" true
    (Unix.gettimeofday () -. t0 < 5.0)

(* 40 connections, 5 frames each, every frame delivered in two halves with
   all connections interleaved between the halves: replies must come back on
   the right connection, in that connection's request order. *)
let netloop_interleaved_echo () =
  with_listener @@ fun path listen ->
  let loop = Netloop.create ~listen (echo_sink ()) in
  let n = 40 and per = 5 in
  let clients =
    List.init n (fun _ ->
        let fd = dial path in
        Unix.set_nonblock fd;
        { fd; buf = Buffer.create 256; replies = [] })
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun cl -> try Unix.close cl.fd with Unix.Unix_error _ -> ())
        clients)
    (fun () ->
      let msg i j = Printf.sprintf "conn%02d-msg%d" i j in
      for j = 0 to per - 1 do
        (* first halves of everyone's j-th frame ... *)
        List.iteri
          (fun i cl ->
            let m = msg i j in
            write_all cl.fd (String.sub m 0 (String.length m / 2)))
          clients;
        (* ... a few loop iterations on the half-delivered frames ... *)
        for _ = 1 to 3 do
          ignore (Netloop.step loop)
        done;
        (* ... then the second halves *)
        List.iteri
          (fun i cl ->
            let m = msg i j in
            let h = String.length m / 2 in
            write_all cl.fd (String.sub m h (String.length m - h) ^ "\n"))
          clients
      done;
      drive loop clients (fun () ->
          List.for_all (fun cl -> List.length cl.replies = per) clients);
      List.iteri
        (fun i cl ->
          Alcotest.(check (list string))
            (Printf.sprintf "connection %d reply order" i)
            (List.init per (fun j -> "echo:" ^ msg i j))
            (List.rev cl.replies))
        clients;
      Netloop.stop loop;
      drive loop clients (fun () -> Netloop.finished loop);
      let s = Netloop.stats loop in
      Alcotest.(check int) "accepted" n s.Netloop.accepted;
      Alcotest.(check int) "frames" (n * per) s.Netloop.frames;
      Alcotest.(check int) "live after drain" 0 s.Netloop.live_conns)

(* Overlong lines answered with the sink's canned reply in request order
   (behind the frame read in the same chunk before it), framing resumes. *)
let netloop_overlong () =
  with_listener @@ fun path listen ->
  let config = { Netloop.default_config with Netloop.max_frame = 32 } in
  let loop = Netloop.create ~config ~listen (echo_sink ()) in
  let fd = dial path in
  Unix.set_nonblock fd;
  let cl = { fd; buf = Buffer.create 256; replies = [] } in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd ("before\n" ^ String.make 100 'x' ^ "\nafter\n");
      drive loop [ cl ] (fun () -> List.length cl.replies = 3);
      Alcotest.(check (list string)) "replies in request order"
        [ "echo:before"; "OVERLONG"; "echo:after" ]
        (List.rev cl.replies);
      Alcotest.(check int) "one overlong" 1 (Netloop.stats loop).Netloop.overlong;
      Netloop.stop loop;
      drive loop [ cl ] (fun () -> Netloop.finished loop))

(* A client that disconnects with replies still in flight must not take the
   loop (or the other connections) down. *)
let netloop_disconnect_survival () =
  with_listener @@ fun path listen ->
  let loop = Netloop.create ~listen (echo_sink ()) in
  let goner = dial path in
  let stayer = dial path in
  Unix.set_nonblock stayer;
  let cl = { fd = stayer; buf = Buffer.create 256; replies = [] } in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ stayer ])
    (fun () ->
      write_all goner "doomed\n";
      write_all stayer "alive\n";
      (* let the loop accept and read both, then vanish mid-conversation *)
      ignore (Netloop.step loop);
      Unix.close goner;
      drive loop [ cl ] (fun () -> List.length cl.replies = 1);
      Alcotest.(check (list string)) "survivor answered" [ "echo:alive" ]
        (List.rev cl.replies);
      Netloop.stop loop;
      drive loop [ cl ] (fun () -> Netloop.finished loop))

(* Replies larger than the socket's send buffer, four per batch, to a
   reader that takes at most 16 KiB per loop step: every flush ends in a
   partial write, and the stream must still arrive byte-identical and in
   order. While more than [write_bound] reply bytes are queued, the
   connection must not be read. *)
let netloop_large_replies () =
  with_listener @@ fun path listen ->
  let fd = dial path in
  let size = (2 * Unix.getsockopt_int fd Unix.SO_SNDBUF) + 17 in
  let reply frame =
    String.init size (fun i ->
        if i < String.length frame then frame.[i] else Char.chr (97 + (i * 7 mod 26)))
  in
  let q = Queue.create () in
  let sink =
    { Netloop.can_admit = (fun () -> Queue.length q < 8);
      submit = (fun ~tag frame -> Queue.add (tag, reply frame) q; `Admitted);
      drain =
        (fun () -> List.init (min 4 (Queue.length q)) (fun _ -> Queue.pop q));
      pending = (fun () -> Queue.length q);
      submit_overlong = (fun ~tag -> Queue.add (tag, "OVERLONG") q) }
  in
  let config = { Netloop.default_config with Netloop.write_bound = 4096 } in
  let loop = Netloop.create ~config ~listen sink in
  Unix.set_nonblock fd;
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let frames = List.init 8 (Printf.sprintf "frame-%d") in
      let first, second = (List.filteri (fun i _ -> i < 4) frames, List.filteri (fun i _ -> i >= 4) frames) in
      write_all fd (String.concat "" (List.map (fun f -> f ^ "\n") first));
      let steps n = for _ = 1 to n do ignore (Netloop.step ~timeout:0.01 loop) done in
      steps 20;
      Alcotest.(check int) "first batch read" 4 (Netloop.stats loop).Netloop.frames;
      write_all fd (String.concat "" (List.map (fun f -> f ^ "\n") second));
      steps 20;
      Alcotest.(check int) "reading paused past write_bound" 4
        (Netloop.stats loop).Netloop.frames;
      let expected = String.concat "" (List.map (fun f -> reply f ^ "\n") frames) in
      let got = Buffer.create (String.length expected) in
      let chunk = Bytes.create 16384 in
      let iters = ref 0 in
      while Buffer.length got < String.length expected && !iters < 100_000 do
        incr iters;
        ignore (Netloop.step loop);
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> iters := max_int - 1
        | n -> Buffer.add_subbytes got chunk 0 n
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      done;
      Alcotest.(check int) "every byte" (String.length expected) (Buffer.length got);
      Alcotest.(check bool) "byte-identical, in order" true
        (String.equal expected (Buffer.contents got));
      Alcotest.(check int) "second batch read once drained" 8
        (Netloop.stats loop).Netloop.frames;
      Netloop.stop loop;
      drive loop [] (fun () -> Netloop.finished loop))

(* --- the whole stack: netloop + engine, many connections --- *)

(* 300 concurrent connections each send two identified requests through the
   event loop; every reply must be byte-identical to the serial
   [handle_frame] path on an engine with the same environment, and arrive
   in its connection's request order. *)
let netloop_engine_byte_identity () =
  let env = Test_service.make_env () in
  let engine = Engine.create ~env () in
  let serial = Engine.create ~env () in
  Fun.protect
    ~finally:(fun () ->
      Engine.shutdown engine;
      Engine.shutdown serial)
    (fun () ->
      with_listener @@ fun path listen ->
      let loop = Netloop.create ~listen (Netd.sink engine) in
      let n = 300 in
      let frame i k =
        Test_service.check_frame
          ~id:(Printf.sprintf "conn%03d-%d" i k)
          ~scenario:"fixture" ()
      in
      let expected i k = Engine.handle_frame serial (frame i k) in
      let clients =
        (* step the loop while dialing: 300 connects would otherwise
           overrun the listener backlog and block *)
        List.init n (fun i ->
            let fd = dial path in
            Unix.set_nonblock fd;
            write_all fd (frame i 0 ^ "\n" ^ frame i 1 ^ "\n");
            ignore (Netloop.step loop);
            { fd; buf = Buffer.create 4096; replies = [] })
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun cl -> try Unix.close cl.fd with Unix.Unix_error _ -> ())
            clients)
        (fun () ->
          drive loop clients (fun () ->
              List.for_all (fun cl -> List.length cl.replies = 2) clients);
          List.iteri
            (fun i cl ->
              Alcotest.(check (list string))
                (Printf.sprintf "connection %d byte-identical" i)
                [ expected i 0; expected i 1 ]
                (List.rev cl.replies))
            clients;
          Netloop.stop loop;
          drive loop clients (fun () -> Netloop.finished loop);
          let s = Netloop.stats loop in
          Alcotest.(check int) "accepted" n s.Netloop.accepted;
          Alcotest.(check int) "frames" (2 * n) s.Netloop.frames))

(* Two shards behind one listener, built by the [Netd.shard_loops] that
   serve_listen runs: shard 0 owns the listener and deals every other
   accepted connection to a second loop running on its own Domain, each
   loop feeding its own engine. Every reply must still be byte-identical
   to the serial [handle_frame] path, both loops must drain on stop, and
   the aggregated stats must account for every connection and frame. *)
let netloop_sharded_byte_identity () =
  let env = Test_service.make_env () in
  let e0 = Engine.create ~env () in
  let e1 = Engine.create ~env () in
  let serial = Engine.create ~env () in
  Fun.protect
    ~finally:(fun () -> List.iter Engine.shutdown [ e0; e1; serial ])
    (fun () ->
      with_listener @@ fun path listen ->
      let loop0, follower =
        match Netd.shard_loops ~listen [ e0; e1 ] with
        | [ l0; l1 ] -> (l0, l1)
        | _ -> Alcotest.fail "two engines must give two loops"
      in
      let follower_domain = Domain.spawn (fun () -> Netloop.run follower) in
      let n = 60 in
      let frame i k =
        Test_service.check_frame
          ~id:(Printf.sprintf "conn%03d-%d" i k)
          ~scenario:"fixture" ()
      in
      let expected i k = Engine.handle_frame serial (frame i k) in
      let clients =
        List.init n (fun i ->
            let fd = dial path in
            Unix.set_nonblock fd;
            write_all fd (frame i 0 ^ "\n" ^ frame i 1 ^ "\n");
            ignore (Netloop.step loop0);
            { fd; buf = Buffer.create 4096; replies = [] })
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun cl -> try Unix.close cl.fd with Unix.Unix_error _ -> ())
            clients)
        (fun () ->
          drive loop0 clients (fun () ->
              List.for_all (fun cl -> List.length cl.replies = 2) clients);
          List.iteri
            (fun i cl ->
              Alcotest.(check (list string))
                (Printf.sprintf "connection %d byte-identical" i)
                [ expected i 0; expected i 1 ]
                (List.rev cl.replies))
            clients;
          Netloop.stop loop0;
          Netloop.stop follower;
          drive loop0 clients (fun () -> Netloop.finished loop0);
          Domain.join follower_domain;
          let s0 = Netloop.stats loop0 and s1 = Netloop.stats follower in
          Alcotest.(check bool) "follower adopted connections" true
            (s1.Netloop.accepted > 0);
          let agg = Netloop.aggregate_stats [ s0; s1 ] in
          Alcotest.(check int) "accepted across shards" n
            agg.Netloop.accepted;
          Alcotest.(check int) "frames across shards" (2 * n)
            agg.Netloop.frames;
          Alcotest.(check int) "no one left live" 0 agg.Netloop.live_conns;
          (* linked engines advertise the group in stats replies *)
          let stats_text = Chaoschain_report.Json.to_string (Engine.stats_json e0) in
          let contains hay needle =
            let nl = String.length needle and hl = String.length hay in
            let rec go i =
              i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "stats carry the shard count" true
            (contains stats_text "\"shards\":2")))

let suite =
  let per_backend name f =
    List.map
      (fun b ->
        Alcotest.test_case
          (Printf.sprintf "%s (%s)" name (Poller.backend_name b))
          `Quick (f b))
      available_backends
  in
  per_backend "poller readiness transitions" poller_transitions
  @ per_backend "poller closed-fd deregistration" poller_deregister
  @ per_backend "poller timeout semantics" poller_timeout
  @ [ Alcotest.test_case "framing split everywhere" `Quick framing_every_split;
    Alcotest.test_case "framing multi-frame chunk" `Quick
      framing_multi_frame_chunk;
    Alcotest.test_case "framing overlong resume" `Quick
      framing_overlong_resume;
    Alcotest.test_case "framing bounded buffer" `Quick framing_bounded_buffer;
    Alcotest.test_case "loadgen quantiles" `Quick loadgen_quantiles;
    Alcotest.test_case "netd address parsing" `Quick netd_parse_addr;
    Alcotest.test_case "netloop interleaved echo" `Quick
      netloop_interleaved_echo;
    Alcotest.test_case "netloop overlong reply" `Quick netloop_overlong;
    Alcotest.test_case "netloop disconnect survival" `Quick
      netloop_disconnect_survival;
    Alcotest.test_case "netloop engine 300-conn byte-identity" `Slow
      netloop_engine_byte_identity;
    Alcotest.test_case "netloop sharded 2-loop byte-identity" `Slow
      netloop_sharded_byte_identity;
    Alcotest.test_case "netloop replies past the send buffer" `Quick
      netloop_large_replies ]
