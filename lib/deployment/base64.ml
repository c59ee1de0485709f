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

(* Decoding uses a 256-entry value table (-1 = not in the alphabet) and
   writes straight into an exactly-sized [Bytes] buffer: each 4-character
   group becomes one 24-bit accumulator and three stores. *)
let decode_table =
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) alphabet;
  t

let decode s =
  let n = String.length s in
  if n mod 4 <> 0 then Error "base64: length not a multiple of 4"
  else begin
    let padding =
      if n = 0 then 0
      else if s.[n - 2] = '=' then 2
      else if s.[n - 1] = '=' then 1
      else 0
    in
    let groups = n / 4 in
    let out = Bytes.create (groups * 3) in
    let err = ref None in
    (try
       for g = 0 to groups - 1 do
         let o = g * 4 in
         let dec k =
           let c = String.unsafe_get s (o + k) in
           if c = '=' && g = groups - 1 && k >= 4 - padding then 0
           else
             let v = Array.unsafe_get decode_table (Char.code c) in
             if v < 0 then begin
               err := Some (Printf.sprintf "base64: invalid character %C" c);
               raise Exit
             end
             else v
         in
         let triple =
           (dec 0 lsl 18) lor (dec 1 lsl 12) lor (dec 2 lsl 6) lor dec 3
         in
         Bytes.unsafe_set out (g * 3) (Char.unsafe_chr (triple lsr 16));
         Bytes.unsafe_set out ((g * 3) + 1)
           (Char.unsafe_chr ((triple lsr 8) land 0xFF));
         Bytes.unsafe_set out ((g * 3) + 2) (Char.unsafe_chr (triple land 0xFF))
       done
     with Exit -> ());
    match !err with
    | Some e -> Error e
    | None -> Ok (Bytes.sub_string out 0 ((groups * 3) - padding))
  end
