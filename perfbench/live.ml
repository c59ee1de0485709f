(* The live serving workloads: `chaoscheck serve --listen unix:...` driven
   open loop by Chaoschain_net.Loadgen on the select client poller, with the
   server's counters scraped through the stats op and its CPU and memory
   read from /proc. *)

open Chaoschain_net
module Netd = Chaoschain_service.Netd
module Json = Chaoschain_report.Json

let conns = 2  (* at most nproc connections: one generator, no more *)

(* --- the server process --- *)

type server = { pid : int; addr : Netd.addr; launched : float }

let spawn ~exe ~dir ~tag (w : Inputs.workload) =
  let sock = Filename.concat dir (tag ^ ".sock") in
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [| exe; "serve"; "--listen"; "unix:" ^ sock;
       "--scale"; Printf.sprintf "%g" w.Inputs.scale;
       "--jobs"; string_of_int w.Inputs.jobs;
       "--cache"; string_of_int w.Inputs.cache |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile (Filename.concat dir (tag ^ ".err"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let launched = Clock.now () in
  let pid = Unix.create_process exe args null null err in
  Unix.close null;
  Unix.close err;
  { pid; addr = Netd.Unix_path sock; launched }

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st -> Some st

let rec wait_ready srv ~deadline =
  if exited srv.pid <> None then failwith "chaoscheck serve exited during start-up"
  else if Clock.now () > deadline then failwith "chaoscheck serve did not start"
  else
    match Netd.dial srv.addr with
    | fd -> Unix.close fd
    | exception (Unix.Unix_error _ | Failure _) ->
        Unix.sleepf 0.002;
        wait_ready srv ~deadline

(* SIGTERM drains gracefully; the exit status is part of the gate. *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. 30.0 in
  let rec wait () =
    match exited srv.pid with
    | Some st -> st
    | None when Clock.now () > deadline ->
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] srv.pid)
    | None ->
        Unix.sleepf 0.01;
        wait ()
  in
  wait () = Unix.WEXITED 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of every thread, in seconds (USER_HZ = 100 on Linux). *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  Float.of_string f.(11) +. Float.of_string f.(12) |> fun ticks -> ticks /. 100.0

let vm_hwm_mb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (Float.of_int kb /. 1024.0))
         | _ -> None)
  |> Option.value ~default:nan

(* --- the stats op, read from outside --- *)

type counters = {
  checks : int; hits : int; misses : int; rejects : int; errors : int;
  evictions : int; intern_lookups : int; intern_reused : int;
}

let sub a b =
  { checks = a.checks - b.checks; hits = a.hits - b.hits;
    misses = a.misses - b.misses; rejects = a.rejects - b.rejects;
    errors = a.errors - b.errors; evictions = a.evictions - b.evictions;
    intern_lookups = a.intern_lookups - b.intern_lookups;
    intern_reused = a.intern_reused - b.intern_reused }

let add a b =
  { checks = a.checks + b.checks; hits = a.hits + b.hits;
    misses = a.misses + b.misses; rejects = a.rejects + b.rejects;
    errors = a.errors + b.errors; evictions = a.evictions + b.evictions;
    intern_lookups = a.intern_lookups + b.intern_lookups;
    intern_reused = a.intern_reused + b.intern_reused }

let scrape addr =
  let fd = Netd.dial addr in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let req = "{\"op\":\"stats\"}\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let deadline = Clock.now () +. 30.0 in
      let rec read () =
        if Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) = '\n'
        then ()
        else if Clock.now () > deadline then failwith "stats scrape timed out"
        else
          match Unix.select [ fd ] [] [] 1.0 with
          | [], _, _ -> read ()
          | _ ->
              let n = Unix.read fd chunk 0 (Bytes.length chunk) in
              if n = 0 then failwith "stats scrape: connection closed";
              Buffer.add_subbytes buf chunk 0 n;
              read ()
      in
      read ();
      let j =
        match Json.of_string (String.trim (Buffer.contents buf)) with
        | Ok j -> j
        | Error e -> failwith ("stats scrape: " ^ e)
      in
      let path keys =
        List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) keys
        |> fun v -> Option.bind v Json.get_int |> Option.value ~default:(-1)
      in
      let st k = path [ "stats"; k ] in
      { checks = st "checks"; hits = st "hits"; misses = st "misses";
        rejects = st "rejects"; errors = st "errors";
        evictions = path [ "stats"; "cache"; "evictions" ];
        intern_lookups = path [ "stats"; "intern"; "lookups" ];
        intern_reused = path [ "stats"; "intern"; "reused" ] })

(* --- one open-loop phase --- *)

type phase = {
  label : string;
  sent : int;
  received : int;
  failed : int;          (* ok:false + dropped + connect errors *)
  elapsed_s : float;
  latencies_ms : float array;
  late_ms : float array; (* frame-callback time minus scheduled send *)
  delta : counters;      (* stats-op counters over the phase *)
  samples : (string * string option) list;  (* (frame, live reply) *)
}

(* Replies are {"id":...,"ok":true|false,...}: look for the flag near the
   front instead of parsing kilobytes of verdict per reply. *)
let reply_ok line =
  let key = "\"ok\":true" in
  let lk = String.length key in
  let lim = min (String.length line - lk) 96 in
  let rec go i = i <= lim && (String.sub line i lk = key || go (i + 1)) in
  go 0

(* [rate = infinity] is the capacity discipline: every request is due at
   t0, so netd's backpressure paces the generator. *)
let run_phase ~addr ~label ~rate ~n ~grace ~frame ~rng =
  let sample = Hashtbl.create 64 in
  for _ = 1 to min n 24 do
    Hashtbl.replace sample (Random.State.int rng n) ()
  done;
  let frames = Hashtbl.create 64 and replies = Hashtbl.create 64 in
  let t0 = ref nan in
  let now () =
    let t = Clock.now () in
    if Float.is_nan !t0 then t0 := t;
    t
  in
  let late = Array.make n 0.0 in
  let lg_rate = if Float.is_finite rate then rate else 1e12 in
  let frame i =
    let f = frame i in
    late.(i) <- (now () -. (!t0 +. (Float.of_int i /. lg_rate))) *. 1000.0;
    if Hashtbl.mem sample i then Hashtbl.replace frames i f;
    f
  in
  let before = scrape addr in
  let st =
    Loadgen.run
      {
        Loadgen.dial = (fun () -> Netd.dial addr);
        conns; rate = lg_rate; requests = n;
        max_frame = Framing.default_max_frame;
        is_error = (fun l -> not (reply_ok l));
        now; grace;
        capture =
          Some (fun seq reply ->
              if Hashtbl.mem sample seq then Hashtbl.replace replies seq reply);
        ramp = 0.0; backend = Poller.Select;
      }
      ~frame
  in
  let delta = sub (scrape addr) before in
  {
    label; sent = st.Loadgen.sent; received = st.Loadgen.received;
    failed = st.Loadgen.errors + st.Loadgen.dropped + st.Loadgen.connect_errors;
    elapsed_s = st.Loadgen.elapsed_s; latencies_ms = st.Loadgen.latencies_ms;
    late_ms = late; delta;
    samples =
      Hashtbl.fold
        (fun i f acc -> (f, Hashtbl.find_opt replies i) :: acc) frames [];
  }

(* Stats reconciliation: every frame the generator sent is a check, every
   check is a hit or a miss, and the fixed-rate phase draws no overload
   rejects. A verdict-hit timed phase must not miss. *)
let reconcile ~all_hits p =
  let d = p.delta in
  let problems =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [ (d.checks = p.sent, Printf.sprintf "checks %d <> sent %d" d.checks p.sent);
        (d.hits + d.misses = d.checks,
         Printf.sprintf "hits %d + misses %d <> checks %d" d.hits d.misses d.checks);
        (d.errors = 0, Printf.sprintf "%d errors" d.errors);
        (p.label <> "fixed" || d.rejects = 0, Printf.sprintf "%d rejects" d.rejects);
        ((not all_hits) || d.misses = 0, Printf.sprintf "%d misses" d.misses) ]
  in
  List.map (fun s -> p.label ^ ": " ^ s) problems

(* --- one round: launch, fill, warm up, time --- *)

type round = {
  setup_s : float;
  fixed : phase;
  capacity : phase;
  untimed : phase list;    (* fill and warm-up *)
  cpu_s : float;           (* server CPU over the timed phases *)
  rss_mb : float;
  clean_exit : bool;
}

(* Each phase draws from its own seeded stream, so its frames do not
   depend on how many frames another phase sent. *)
let phase_rng ~seed ~index code = Random.State.make [| seed; index; code |]
let fixed_code = 3
let capacity_code = 4

let round ~exe ~dir ~seed ~index ~t_fixed ~t_cap (w : Inputs.workload) =
  let srv = spawn ~exe ~dir ~tag:(Printf.sprintf "%s-%d" w.Inputs.name index) w in
  let result =
    try
      wait_ready srv ~deadline:(Clock.now () +. 120.0);
      let rng = phase_rng ~seed ~index in
      let phase ~label ~code ~rate ~n ~grace =
        let stream = w.Inputs.stream (rng code) in
        run_phase ~addr:srv.addr ~label ~rate ~n ~grace ~rng:(rng (code + 100))
          ~frame:(fun i -> Inputs.with_id label i (stream ()))
      in
      let fill =
        let f = w.Inputs.fill in
        if Array.length f = 0 then []
        else
          [ run_phase ~addr:srv.addr ~label:"fill" ~rate:infinity
              ~n:(Array.length f) ~grace:(30.0 +. (Float.of_int (Array.length f) /. 100.0))
              ~rng:(rng 99)
              ~frame:(fun i -> Inputs.with_id "fill" i f.(i)) ]
      in
      let n_of rate t = max 1 (Float.to_int (rate *. t)) in
      let cap_n t = n_of w.Inputs.capacity t and fix_n t = n_of w.Inputs.fixed_rate t in
      let cap_grace t = 30.0 +. (4.0 *. t) and fix_grace t = 10.0 +. t in
      (* Warm-up: one capacity pass and one fixed-rate pass, each half as
         long as a timed one, before the clock for setup_s stops. *)
      let warm =
        [ phase ~label:"warmcap" ~code:1 ~rate:infinity ~n:(cap_n (t_cap /. 2.0))
            ~grace:(cap_grace t_cap);
          phase ~label:"warmfix" ~code:2 ~rate:w.Inputs.fixed_rate
            ~n:(fix_n (t_fixed /. 2.0)) ~grace:(fix_grace t_fixed) ]
      in
      let setup_s = Clock.now () -. srv.launched in
      let c0 = cpu_s srv.pid in
      let fixed =
        phase ~label:"fixed" ~code:fixed_code ~rate:w.Inputs.fixed_rate ~n:(fix_n t_fixed)
          ~grace:(fix_grace t_fixed)
      in
      let capacity =
        phase ~label:"capacity" ~code:capacity_code ~rate:infinity ~n:(cap_n t_cap)
          ~grace:(cap_grace t_cap)
      in
      let cpu = cpu_s srv.pid -. c0 in
      let rss_mb = vm_hwm_mb srv.pid in
      Ok (setup_s, fixed, capacity, fill @ warm, cpu, rss_mb)
    with e -> Error e
  in
  let clean_exit = stop srv in
  match result with
  | Error e -> raise e
  | Ok (setup_s, fixed, capacity, untimed, cpu_s, rss_mb) ->
      { setup_s; fixed; capacity; untimed; cpu_s; rss_mb; clean_exit }
