let names =
  List.filter_map
    (fun (s, n) ->
      if n > 0 then Some (Calibration.scenario_to_string s, s) else None)
    Calibration.ledger

let entries = Array.of_list names
let lowered = Array.map (fun (name, _) -> String.lowercase_ascii name) entries

(* [needle] matches [hay] (already lowercase) at [i], comparing from byte
   [j]. Top-level and closure-free, so a probe allocates nothing. *)
let rec matches_at needle hay i j =
  j = String.length needle
  || Char.lowercase_ascii (String.unsafe_get needle j)
     = String.unsafe_get hay (i + j)
     && matches_at needle hay i (j + 1)

let rec contains_from needle hay i =
  i + String.length needle <= String.length hay
  && (matches_at needle hay i 0 || contains_from needle hay (i + 1))

let rec index_from needle i =
  if i = Array.length lowered then -1
  else if contains_from needle lowered.(i) 0 then i
  else index_from needle (i + 1)

let match_name needle =
  match index_from needle 0 with -1 -> None | i -> Some entries.(i)

(* Per entry of [entries]: the answer [find] returns, prebuilt. *)
type t = (string * Chaoschain_x509.Cert.t list) option array

let create (pop : Population.t) =
  let first = Hashtbl.create (Array.length entries) in
  Array.iter
    (fun (r : Population.record) ->
      if not (Hashtbl.mem first r.scenario) then Hashtbl.add first r.scenario r)
    pop.domains;
  Array.map
    (fun (_, s) ->
      Option.map
        (fun (r : Population.record) -> (r.domain, r.chain))
        (Hashtbl.find_opt first s))
    entries

let find t needle =
  match index_from needle 0 with -1 -> None | i -> t.(i)
