type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- encoding --- *)

(* Each maximal run of bytes that need no escape is copied with one
   [Buffer.add_substring]. *)
let escape_into buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let flush start i = if i > start then Buffer.add_substring buf s start (i - start) in
  let rec go start i =
    if i = n then flush start i
    else
      let c = String.unsafe_get s i in
      if c <> '"' && c <> '\\' && Char.code c >= 0x20 then go start (i + 1)
      else begin
        flush start i;
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
        go (i + 1) (i + 1)
      end
  in
  go 0 0;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec encode buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_into buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          encode buf v)
        l;
      Buffer.add_char buf ']'
  | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          encode buf v)
        members;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  encode buf v;
  Buffer.contents buf

(* --- deterministic pretty-printing --- *)

let rec sort_keys = function
  | List l -> List (List.map sort_keys l)
  | Obj members ->
      Obj
        (List.map (fun (k, v) -> (k, sort_keys v)) members
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))
  | v -> v

let pretty v =
  let buf = Buffer.create 1024 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let scalar v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape_into buf s
    | List _ | Obj _ -> assert false
  in
  let rec go indent v =
    match v with
    | List [] -> Buffer.add_string buf "[]"
    | Obj [] -> Buffer.add_string buf "{}"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            go (indent + 2) item)
          items;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf ']'
    | Obj members ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            escape_into buf k;
            Buffer.add_string buf ": ";
            go (indent + 2) v)
          members;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf '}'
    | v -> scalar v
  in
  go 0 (sort_keys v);
  Buffer.contents buf

(* --- decoding: recursive descent over the input string --- *)

exception Parse of string

type state = { text : string; mutable pos : int }

let fail st msg = raise (Parse (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        go ()
    | _ -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.text && String.sub st.text st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st ("expected " ^ word)

let utf8_add buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "bad \\u escape"
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    match peek st with
    | Some c ->
        v := (!v * 16) + digit c;
        advance st
    | None -> fail st "truncated \\u escape"
  done;
  !v

(* End of the run of plain bytes from [i]: stops at a quote, a backslash,
   a control byte or the end of input. *)
let rec plain_end text i =
  if i = String.length text then i
  else
    match String.unsafe_get text i with
    | '"' | '\\' -> i
    | c when Char.code c < 0x20 -> i
    | _ -> plain_end text (i + 1)

let parse_string st =
  expect st '"';
  let start = st.pos in
  let stop = plain_end st.text start in
  if stop < String.length st.text && st.text.[stop] = '"' then begin
    (* no escapes: the contents are one slice of the input *)
    st.pos <- stop + 1;
    String.sub st.text start (stop - start)
  end
  else
  let buf = Buffer.create (stop - start + 16) in
  Buffer.add_substring buf st.text start (stop - start);
  st.pos <- stop;
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let cp = hex4 st in
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  (* high surrogate: a low surrogate must follow *)
                  expect st '\\';
                  expect st 'u';
                  let lo = hex4 st in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail st "unpaired surrogate"
                  else
                    utf8_add buf
                      (0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00)))
                end
                else if cp >= 0xDC00 && cp <= 0xDFFF then
                  fail st "unpaired surrogate"
                else utf8_add buf cp
            | _ -> fail st "bad escape");
            go ())
    | Some c when Char.code c < 0x20 -> fail st "raw control character in string"
    | Some _ ->
        (* one copy per maximal run of plain bytes *)
        let stop = plain_end st.text st.pos in
        Buffer.add_substring buf st.text st.pos (stop - st.pos);
        st.pos <- stop;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let digits () =
    let seen = ref false in
    let rec go () =
      match peek st with
      | Some '0' .. '9' ->
          seen := true;
          advance st;
          go ()
      | _ -> ()
    in
    go ();
    if not !seen then fail st "expected digit"
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  digits ();
  let fractional = peek st = Some '.' in
  if fractional then begin
    advance st;
    digits ()
  end;
  let exponent = match peek st with Some ('e' | 'E') -> true | _ -> false in
  if exponent then begin
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    digits ()
  end;
  let text = String.sub st.text start (st.pos - start) in
  if (not fractional) && not exponent then
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)
  else Float (float_of_string text)

let rec parse_value st depth =
  if depth > 256 then fail st "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value st (depth + 1) :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              go ()
          | Some ']' -> advance st
          | _ -> fail st "expected ',' or ']'"
        in
        go ();
        List (List.rev !items)
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let members = ref [] in
        let rec go () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          members := (k, v) :: !members;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              go ()
          | Some '}' -> advance st
          | _ -> fail st "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !members)
      end
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let of_string text =
  let st = { text; pos = 0 } in
  match parse_value st 0 with
  | v ->
      skip_ws st;
      if st.pos <> String.length text then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse msg -> Error msg
  | exception Failure msg -> Error msg

let member k = function
  | Obj members -> List.assoc_opt k members
  | _ -> None

let get_string = function String s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_int = function Int i -> Some i | _ -> None
let get_list = function List l -> Some l | _ -> None
