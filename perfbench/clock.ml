(* The one clock every benchmark timing reads: CLOCK_MONOTONIC, in ns. *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let us_between a b = Int64.to_float (Int64.sub b a) /. 1e3

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
