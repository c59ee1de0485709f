(* perfbench: the serving workloads and every traced run of the repository
   benchmark. run.py builds this program and bin/chaoscheck.exe, runs the
   corpus workload's live run itself, and hands everything else here.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 --exe PATH --dir DIR [--smoke] [--inject-mismatch]

   Run from the checkout root: metric names and units come from
   BENCHMARK.json. The last line of standard output is the result object;
   the exit code is non-zero when the correctness gate fails. *)

open Chaoschain_measurement
module Engine = Chaoschain_service.Engine
module Json = Chaoschain_report.Json

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
  dir : string;
  smoke : bool;
  inject_mismatch : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 12.0 in
  let trace = ref 0 and exe = ref "" and dir = ref "" in
  let smoke = ref false and inject = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--exe", Arg.Set_string exe, "PATH chaoscheck binary");
      ("--dir", Arg.Set_string dir, "DIR scratch directory");
      ("--smoke", Arg.Set smoke, " scale 0.002, one round, tiny phases");
      ("--inject-mismatch", Arg.Set inject, " corrupt one reference reply") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --exe PATH --dir DIR";
  if !exe = "" || !dir = "" then failwith "--exe and --dir are required";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    exe = !exe; dir = !dir; smoke = !smoke; inject_mismatch = !inject }

let scale o = if o.smoke then 0.002 else 0.02
let quantile = Chaoschain_net.Loadgen.quantile

(* --- output --- *)

(* (name, unit) of the end_to_end or per_layer metrics in BENCHMARK.json *)
let spec key =
  let j =
    match Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let field k m = Option.get (Option.bind (Json.member k m) Json.get_string) in
  Option.get (Option.bind (Json.member key j) Json.get_list)
  |> List.map (fun m -> (field "name" m, field "unit" m))

let report_line (name, value, unit) = Printf.printf "  %-34s %14.4f %s\n" name value unit

(* Prints the named metrics in BENCHMARK.json's order, then the result
   object, and exits. A metric the run did not measure reads 0: on a traced
   run, a layer the workload never enters. *)
let finish ~key ~problems ~attempted ~failed measured =
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) measured with
        | Some (_, v, u) when u = unit -> (name, v, unit)
        | Some _ -> failwith ("unit mismatch for " ^ name)
        | None when key = "per_layer" -> (name, 0.0, unit)
        | None -> failwith ("not measured: " ^ name))
      (spec key)
  in
  List.iter report_line metrics;
  List.iter (fun p -> Printf.printf "GATE FAILED: %s\n" p) problems;
  let correct = problems = [] && failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
          metrics));
  exit (if correct then 0 else 1)

(* --- the serial reference: Engine.handle_frame in this process --- *)

(* Every sampled live reply must be byte-identical to the serial engine's
   reply to the same frame. *)
let check_samples ~inject pop (w : Inputs.workload) phases =
  let engine =
    Engine.create ~env:(Traced.env_of pop) ~cache_capacity:w.Inputs.cache ~jobs:1 ()
  in
  let corrupt = ref inject in
  List.concat_map
    (fun (p : Live.phase) ->
      List.filter_map
        (fun (frame, reply) ->
          let expect = Engine.handle_frame engine frame in
          let expect = if !corrupt then (corrupt := false; expect ^ " ") else expect in
          match reply with
          | None -> Some (p.Live.label ^ ": sampled request got no reply")
          | Some r when r <> expect ->
              Some (p.Live.label ^ ": live reply differs from the serial engine")
          | Some _ -> None)
        p.Live.samples)
    phases

(* --- serving workloads --- *)

(* The generator keeps only the frames: the population it builds them
   from is dropped before any server starts. *)
let prepare o =
  let pop = Population.generate ~scale:(scale o) () in
  let w =
    match o.workload with
    | "verdict-hit" ->
        Inputs.verdict_hit ~seed:o.seed ~scale:(scale o)
          ~working_set:(if o.smoke then 256 else 4096) pop
    | _ -> Inputs.verdict_miss ~scale:(scale o) pop
  in
  Gc.compact ();
  w

let n_rounds o = if o.smoke then 1 else 3

(* The first [n] rounds of a run; a round's phases last the same whatever
   [n]: the timed share of --seconds split over the run's rounds and two
   phases each. *)
let rounds o w n =
  let t = o.seconds /. Float.of_int (2 * n_rounds o) in
  List.init n (fun index ->
      Live.round ~exe:o.exe ~dir:o.dir ~seed:o.seed ~index ~t_fixed:t ~t_cap:t w)

let phases r = r.Live.untimed @ [ r.Live.fixed; r.Live.capacity ]

let round_problems (w : Inputs.workload) rounds =
  List.concat_map
    (fun r ->
      List.concat_map
        (fun (p : Live.phase) ->
          let timed = p.Live.label = "fixed" || p.Live.label = "capacity" in
          Live.reconcile ~all_hits:(w.Inputs.name = "verdict-hit" && timed) p)
        (phases r)
      @ if r.Live.clean_exit then [] else [ "serve did not exit 0 on SIGTERM" ])
    rounds

let capacity r = Float.of_int r.Live.capacity.Live.received /. r.Live.capacity.Live.elapsed_s
let timed_replies r = r.Live.fixed.Live.received + r.Live.capacity.Live.received
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let serving o =
  let w = prepare o in
  let rounds = rounds o w (n_rounds o) in
  let all = List.concat_map phases rounds in
  let problems =
    round_problems w rounds
    @ check_samples ~inject:o.inject_mismatch
        (Population.generate ~scale:(scale o) ())
        w all
  in
  let attempted = sum (fun p -> p.Live.sent) all in
  let failed = sum (fun p -> p.Live.failed) all in
  let med f = Clock.median (List.map f rounds) in
  let cpu = List.fold_left (fun acc r -> acc +. r.Live.cpu_s) 0.0 rounds in
  let fixed = Array.concat (List.map (fun r -> r.Live.fixed.Live.latencies_ms) rounds) in
  let late = Array.concat (List.map (fun r -> r.Live.fixed.Live.late_ms) rounds) in
  Printf.printf "%s seed %d: %d requests, %d failed\n" w.Inputs.name o.seed attempted failed;
  List.iteri
    (fun i r ->
      let f = r.Live.fixed.Live.latencies_ms in
      Printf.printf
        "  round %d: setup %.2f s, fixed p50 %.3f p90 %.3f ms (late p99 %.3f), capacity %.0f/s\n"
        i r.Live.setup_s (quantile f 0.5) (quantile f 0.9)
        (quantile r.Live.fixed.Live.late_ms 0.99) (capacity r))
    rounds;
  (* Printed, not gated: wall-clock rates and latencies follow host steal
     on a small VM (see README). *)
  let lat q = med (fun r -> quantile r.Live.fixed.Live.latencies_ms q) in
  List.iter report_line
    [ ("throughput_per_s", med capacity, "1/s");
      ("fixed_rate_per_s", w.Inputs.fixed_rate, "1/s");
      ("latency_p50_ms", lat 0.5, "ms");
      ("latency_p90_ms", lat 0.9, "ms");
      ("latency_p99_ms", quantile fixed 0.99, "ms");
      ("latency_p999_ms", quantile fixed 0.999, "ms");
      ("latency_max_ms", quantile fixed 1.0, "ms");
      ("loadgen.late_p99_ms", quantile late 0.99, "ms");
      ("fail_frac", Float.of_int failed /. Float.of_int (max 1 attempted), "ratio") ];
  finish ~key:"end_to_end" ~problems ~attempted ~failed
    [ ("setup_s", med (fun r -> r.Live.setup_s), "s");
      ("cpu_us_per_op", cpu *. 1e6 /. Float.of_int (max 1 (sum timed_replies rounds)), "us");
      ("rss_peak_mb", med (fun r -> r.Live.rss_mb), "MB") ]

(* --- traced runs --- *)

let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* One live round for the counters read from outside, then the same
   generated frames (the fill and the round's fixed and capacity streams)
   replayed in this process. *)
let traced_serving o =
  let w = prepare o in
  let r = List.hd (rounds o w 1) in
  let pop, pop_s = timed (fun () -> Population.generate ~scale:(scale o) ()) in
  let stream (p : Live.phase) code =
    let next = w.Inputs.stream (Live.phase_rng ~seed:o.seed ~index:0 code) in
    Array.init p.Live.sent (fun i -> Inputs.with_id p.Live.label i (next ()))
  in
  let t =
    Traced.serving
      ~spans_out:(Filename.concat o.dir (w.Inputs.name ^ ".spans.tsv"))
      ~w ~pop
      ~fill:(Array.mapi (Inputs.with_id "fill") w.Inputs.fill)
      ~stream:(Array.append (stream r.Live.fixed Live.fixed_code)
                 (stream r.Live.capacity Live.capacity_code))
  in
  let d = Live.add r.Live.fixed.Live.delta r.Live.capacity.Live.delta in
  let live_cpu_us = r.Live.cpu_s *. 1e6 /. Float.of_int (max 1 (timed_replies r)) in
  let ratio a b = if b = 0 then 0.0 else Float.of_int a /. Float.of_int b in
  let count name v = (name, Float.of_int v, "count") in
  finish ~key:"per_layer"
    ~problems:(round_problems w [ r ] @ t.Traced.problems)
    ~attempted:(sum (fun p -> p.Live.sent) (phases r))
    ~failed:(sum (fun p -> p.Live.failed) (phases r))
    (t.Traced.metrics
    @ [ ("measurement.population.generate_s", pop_s, "s");
        ("pki.intern.reuse_ratio", ratio d.Live.intern_reused d.Live.intern_lookups, "ratio");
        ("service.lru.hit_ratio", ratio d.Live.hits (d.Live.hits + d.Live.misses), "ratio");
        ("service.lru.evictions_per_req", ratio d.Live.evictions d.Live.checks, "ratio");
        ("netd.overhead_us_per_req", live_cpu_us -. t.Traced.engine_us_per_frame, "us");
        count "service.hits" d.Live.hits;
        count "service.misses" d.Live.misses;
        count "service.rejects" d.Live.rejects;
        count "service.errors" d.Live.errors;
        count "service.cache_evictions" d.Live.evictions;
        ("loadgen.late_p99_ms", quantile r.Live.fixed.Live.late_ms 0.99, "ms") ])

let traced_corpus o =
  (* the same framing choice as the corpus workload's live run *)
  let format =
    if o.seed mod 2 = 0 then Chaoschain_tlssim.Certmsg.Tls12
    else Chaoschain_tlssim.Certmsg.Tls13
  in
  let pop, pop_s = timed (fun () -> Population.generate ~scale:(scale o) ()) in
  let metrics, problems =
    Traced.corpus
      ~spans_out:(Filename.concat o.dir "corpus.spans.tsv")
      ~dir:(Filename.concat o.dir "traced-corpus") ~jobs:2 ~format pop
  in
  finish ~key:"per_layer" ~problems ~attempted:1
    ~failed:(if problems = [] then 0 else 1)
    (("measurement.population.generate_s", pop_s, "s") :: metrics)

let () =
  let o = parse_args () in
  match (o.workload, o.trace) with
  | ("verdict-hit" | "verdict-miss"), false -> serving o
  | ("verdict-hit" | "verdict-miss"), true -> traced_serving o
  | "corpus", true -> traced_corpus o
  | w, _ -> failwith ("perfbench.exe does not run " ^ w ^ " here")
