external get64u : string -> int -> int64 = "%caml_string_get64u"

let ones = 0x0101010101010101L
let highs = 0x8080808080808080L
let newlines = 0x0A0A0A0A0A0A0A0AL

let rec byte s i stop =
  if i = stop then -1
  else if String.unsafe_get s i = '\n' then i
  else byte s (i + 1) stop

(* Eight bytes per step: [x] has a zero byte exactly where the word holds
   ['\n'], and [(x - 0x01..) land (lnot x) land 0x80..] is non-zero iff [x]
   has a zero byte. A hit finishes byte by byte from the word's start. *)
let rec words s i stop =
  if i + 8 > stop then byte s i stop
  else
    let x = Int64.logxor (get64u s i) newlines in
    let zero = Int64.logand (Int64.logand (Int64.sub x ones) (Int64.lognot x)) highs in
    if Int64.equal zero 0L then words s (i + 8) stop
    else byte s i stop

let newline s i stop =
  if i < 0 || stop > String.length s then invalid_arg "Bytescan.newline";
  if i >= stop then -1 else words s i stop
