(* Workload inputs: the request frames each serving workload sends, drawn
   from the lab population by a seeded generator. The server receives only
   these frames; the seed picks records, encodings and order. *)

open Chaoschain_measurement
module Protocol = Chaoschain_service.Protocol
module Pem = Chaoschain_deployment.Pem
module Base64 = Chaoschain_deployment.Base64
module Certmsg = Chaoschain_tlssim.Certmsg

(* The scenario resolver `chaoscheck serve` installs: the first ledger name
   containing the needle, then the first population record of that
   scenario. No library exports it, so the benchmark's in-process reference
   engine carries the same logic. *)
let scenario_names =
  List.filter_map
    (fun (s, n) ->
      if n > 0 then Some (Calibration.scenario_to_string s, s) else None)
    Calibration.ledger

let contains ~needle name =
  let needle = String.lowercase_ascii needle in
  let name = String.lowercase_ascii name in
  let ln = String.length needle and nn = String.length name in
  let rec go i = i + ln <= nn && (String.sub name i ln = needle || go (i + 1)) in
  go 0

let find_scenario (pop : Population.t) needle =
  match List.find_opt (fun (name, _) -> contains ~needle name) scenario_names with
  | None -> None
  | Some (_, scenario) ->
      Array.to_list pop.Population.domains
      |> List.find_opt (fun r -> r.Population.scenario = scenario)
      |> Option.map (fun r -> (r.Population.domain, r.Population.chain))

type workload = {
  name : string;
  scale : float;
  jobs : int;           (* serve --jobs *)
  cache : int;          (* serve --cache *)
  fixed_rate : float;   (* req/s of the fixed-rate phase *)
  fill : string array;  (* id-less frames sent once before timing *)
  capacity : float;     (* nominal req/s of the capacity phase: sizes it *)
  stream : Random.State.t -> unit -> string;
      (* a fresh seeded stream of id-less frames of the timed mix *)
}

let check_frame ?domain ?pem ?scenario ?certmsg ?format () =
  Protocol.to_frame
    {
      Protocol.id = None;
      op =
        Protocol.Check
          { Protocol.domain; pem; scenario; certmsg; format; aia = true;
            store = Protocol.Union; clients = None };
    }

(* [Protocol.to_frame] puts "id" first, so splicing it into an id-less
   frame gives the bytes [to_frame] would emit with the id. *)
let with_id tag i tail =
  String.concat ""
    [ "{\"id\":\""; tag; string_of_int i; "\",";
      String.sub tail 1 (String.length tail - 1) ]

let pem_frame (r : Population.record) =
  check_frame ~domain:r.Population.domain ~pem:(Pem.encode_certs r.Population.chain) ()

let certmsg_frame f (r : Population.record) =
  let wire = Certmsg.encode (Certmsg.of_certs f r.Population.chain) in
  check_frame ~domain:r.Population.domain ~certmsg:(Base64.encode wire) ~format:f ()

(* [k] distinct indices of [0, n), seeded. *)
let sample_indices rng n k =
  let a = Array.init n Fun.id in
  for i = 0 to min k n - 1 do
    let j = i + Random.State.int rng (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 (min k n)

(* Every frame a workload can send is built here, up front, so the
   generator holds strings only: no population in its heap while it runs,
   hence no major-GC marking of it as generator lateness. *)

(* verdict-hit: a working set of [working_set] records plus every scenario
   name that resolves, a cache sized above it and filled before timing,
   and a timed mix of 1/3 pem, 1/3 certmsg (half 1.2, half 1.3) and 1/3
   scenario checks over the working set. *)
let verdict_hit ~seed ~scale ~working_set (pop : Population.t) =
  let rng = Random.State.make [| seed; 0x417 |] in
  let ws =
    sample_indices rng (Array.length pop.Population.domains) working_set
    |> Array.map (fun i -> pop.Population.domains.(i))
  in
  let pem = Array.map pem_frame ws in
  let tls12 = Array.map (certmsg_frame Certmsg.Tls12) ws in
  let tls13 = Array.map (certmsg_frame Certmsg.Tls13) ws in
  let scenarios =
    List.filter_map
      (fun (name, _) ->
        match find_scenario pop name with
        | Some _ -> Some (check_frame ~scenario:name ())
        | None -> None)
      scenario_names
    |> Array.of_list
  in
  let pick rng a = a.(Random.State.int rng (Array.length a)) in
  let stream rng () =
    match Random.State.int rng 3 with
    | 0 -> pick rng pem
    | 1 -> pick rng (if Random.State.bool rng then tls12 else tls13)
    | _ -> pick rng scenarios
  in
  let fill = Array.append pem scenarios in
  { name = "verdict-hit"; scale; jobs = 1; cache = 2 * Array.length fill;
    fixed_rate = 1200.0; capacity = 7000.0; fill; stream }

(* verdict-miss: pem checks over every population record in seeded order
   (a fresh permutation per pass), against the default 1,024-entry cache:
   the key space is many times the cache, so nearly every check computes. *)
let verdict_miss ~scale (pop : Population.t) =
  let pem = Array.map pem_frame pop.Population.domains in
  let n = Array.length pem in
  let stream rng =
    let order = ref [||] and pos = ref 0 in
    fun () ->
      if !pos >= Array.length !order then begin
        order := sample_indices rng n n;
        pos := 0
      end;
      let i = !order.(!pos) in
      incr pos;
      pem.(i)
  in
  { name = "verdict-miss"; scale; jobs = 2; cache = 1024; fixed_rate = 300.0;
    capacity = 1000.0; fill = [||]; stream }
