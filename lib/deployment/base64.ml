let alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

(* Encoding writes straight into an exactly-sized [Bytes] buffer: four
   output characters per input triple, the last group padded with [=]. *)
let encode s =
  let n = String.length s in
  let out = Bytes.create ((n + 2) / 3 * 4) in
  let put o v = Bytes.unsafe_set out o (String.unsafe_get alphabet v) in
  let byte i = Char.code (String.unsafe_get s i) in
  let full = n / 3 in
  for g = 0 to full - 1 do
    let i = g * 3 and o = g * 4 in
    let b0 = byte i and b1 = byte (i + 1) and b2 = byte (i + 2) in
    put o (b0 lsr 2);
    put (o + 1) (((b0 land 0x3) lsl 4) lor (b1 lsr 4));
    put (o + 2) (((b1 land 0xF) lsl 2) lor (b2 lsr 6));
    put (o + 3) (b2 land 0x3F)
  done;
  let i = full * 3 and o = full * 4 in
  (match n - i with
  | 1 ->
      let b0 = byte i in
      put o (b0 lsr 2);
      put (o + 1) ((b0 land 0x3) lsl 4);
      Bytes.unsafe_set out (o + 2) '=';
      Bytes.unsafe_set out (o + 3) '='
  | 2 ->
      let b0 = byte i and b1 = byte (i + 1) in
      put o (b0 lsr 2);
      put (o + 1) (((b0 land 0x3) lsl 4) lor (b1 lsr 4));
      put (o + 2) ((b1 land 0xF) lsl 2);
      Bytes.unsafe_set out (o + 3) '='
  | _ -> ());
  Bytes.unsafe_to_string out

(* Decoding uses a 256-entry value table (-1 = not in the alphabet). Each
   4-character group is four table loads, one [lor] sign check, one 24-bit
   accumulator and three stores; only a group that fails the check is
   looked at again, to name the offending character. *)
let decode_table =
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) alphabet;
  t

let value src i = Array.unsafe_get decode_table (Char.code (Bytes.unsafe_get src i))

(* Trailing [=] characters of a non-empty, 4-aligned input: 2 when the
   next-to-last character is [=], else 1 when the last is, else 0. *)
let padding src ~off ~len =
  if len = 0 then 0
  else if Bytes.unsafe_get src (off + len - 2) = '=' then 2
  else if Bytes.unsafe_get src (off + len - 1) = '=' then 1
  else 0

(* The character a failed group is rejected for: its four positions are
   examined last to first, and in the final group the last [pad] positions
   may hold [=]. *)
let group_error src i ~pad =
  let rec find k =
    let c = Bytes.unsafe_get src (i + k) in
    if k > 0
       && ((c = '=' && k >= 4 - pad)
          || Array.unsafe_get decode_table (Char.code c) >= 0)
    then find (k - 1)
    else Error (Printf.sprintf "base64: invalid character %C" c)
  in
  find 3

let put dst o triple =
  Bytes.unsafe_set dst o (Char.unsafe_chr (triple lsr 16));
  Bytes.unsafe_set dst (o + 1) (Char.unsafe_chr ((triple lsr 8) land 0xFF));
  Bytes.unsafe_set dst (o + 2) (Char.unsafe_chr (triple land 0xFF))

let decode_into src ~off ~len dst dst_off =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Base64.decode_into: source out of bounds";
  if len mod 4 <> 0 then Error "base64: length not a multiple of 4"
  else begin
    let pad = padding src ~off ~len in
    let groups = len / 4 in
    let out_len = (groups * 3) - pad in
    if dst_off < 0 || dst_off + out_len > Bytes.length dst then
      invalid_arg "Base64.decode_into: destination out of bounds";
    (* Full groups; a padded final group is left for below. Every group's
       four loads precede its three stores, and output offset
       [dst_off + 3g] never passes input offset [off + 4g], so decoding
       in place ([dst == src], [dst_off <= off]) is safe. *)
    let full = if pad = 0 then groups else groups - 1 in
    let bad = ref (-1) and g = ref 0 in
    while !bad < 0 && !g < full do
      let i = off + (!g * 4) in
      let a = value src i and b = value src (i + 1)
      and c = value src (i + 2) and d = value src (i + 3) in
      if a lor b lor c lor d < 0 then bad := i
      else begin
        put dst (dst_off + (!g * 3)) ((a lsl 18) lor (b lsl 12) lor (c lsl 6) lor d);
        incr g
      end
    done;
    if !bad >= 0 then group_error src !bad ~pad:0
    else if pad = 0 then Ok out_len
    else begin
      let i = off + (full * 4) in
      let v k =
        if k >= 4 - pad && Bytes.unsafe_get src (i + k) = '=' then 0
        else value src (i + k)
      in
      let a = value src i and b = value src (i + 1) and c = v 2 and d = v 3 in
      if a lor b lor c lor d < 0 then group_error src i ~pad
      else if pad = 2 && Bytes.unsafe_get src (i + 3) <> '=' then
        (* data after the padding *)
        let c = Bytes.unsafe_get src (i + 3) in
        Error (Printf.sprintf "base64: invalid character %C" c)
      else begin
        let triple = (a lsl 18) lor (b lsl 12) lor (c lsl 6) lor d in
        let o = dst_off + (full * 3) in
        Bytes.unsafe_set dst o (Char.unsafe_chr (triple lsr 16));
        if pad = 1 then
          Bytes.unsafe_set dst (o + 1) (Char.unsafe_chr ((triple lsr 8) land 0xFF));
        Ok out_len
      end
    end
  end

let decode s =
  let len = String.length s in
  let src = Bytes.unsafe_of_string s in
  let size = if len mod 4 <> 0 then 0 else (len / 4 * 3) - padding src ~off:0 ~len in
  let out = Bytes.create size in
  match decode_into src ~off:0 ~len out 0 with
  | Ok _ -> Ok (Bytes.unsafe_to_string out)
  | Error _ as e -> e
