let default_max_frame = 1 lsl 20

type item = [ `Frame of string | `Overlong ]

type t = {
  max_frame : int;
  ready : item Queue.t;      (* scanned lines not yet taken by [next] *)
  mutable ready_bytes : int; (* bytes of the frames in [ready] *)
  partial : Buffer.t;        (* scanned prefix of the current line (no '\n') *)
  mutable discarding : bool; (* dropping an already-reported overlong line *)
  mutable eof : bool;        (* no more input will be fed *)
  mutable closed : bool;     (* eof AND everything buffered was delivered *)
}

let create ?(max_frame = default_max_frame) () =
  if max_frame < 1 then invalid_arg "Framing.create: max_frame >= 1";
  { max_frame; ready = Queue.create (); ready_bytes = 0;
    partial = Buffer.create 256; discarding = false; eof = false;
    closed = false }

let push t (item : item) =
  (match item with
  | `Frame f -> t.ready_bytes <- t.ready_bytes + String.length f
  | `Overlong -> ());
  Queue.add item t.ready

(* Scan [s.[pos, stop)] once: each complete line is copied out once (a line
   that began in an earlier chunk is completed in [partial]), and the
   unterminated tail goes to [partial]. *)
let rec scan t s start stop =
  if start < stop then begin
    let i = Chaoschain_crypto.Bytescan.newline s start stop in
    if i >= 0 then begin
      let seg = i - start in
      if t.discarding then
        (* the closing newline of the overlong line: resume framing *)
        t.discarding <- false
      else if Buffer.length t.partial + seg > t.max_frame then begin
        Buffer.clear t.partial;
        push t `Overlong
      end
      else if Buffer.length t.partial = 0 then
        push t (`Frame (String.sub s start seg))
      else begin
        Buffer.add_substring t.partial s start seg;
        push t (`Frame (Buffer.contents t.partial));
        Buffer.clear t.partial
      end;
      scan t s (i + 1) stop
    end
    else if not t.discarding then begin
      Buffer.add_substring t.partial s start (stop - start);
      if Buffer.length t.partial > t.max_frame then begin
        (* past the bound with no newline in sight: report now and drop
           the rest of the line as it streams through, keeping memory
           bounded *)
        Buffer.clear t.partial;
        t.discarding <- true;
        push t `Overlong
      end
    end
  end

let feed t buf pos len =
  if t.eof then invalid_arg "Framing.feed: after eof";
  if len < 0 || pos < 0 || pos + len > Bytes.length buf then
    invalid_arg "Framing.feed: out of bounds";
  (* a read-only view for the scan; nothing kept aliases [buf] *)
  scan t (Bytes.unsafe_to_string buf) pos (pos + len)

let feed_string t s =
  if t.eof then invalid_arg "Framing.feed: after eof";
  scan t s 0 (String.length s)

let eof t = t.eof <- true
let at_eof t = t.eof
let buffered t = t.ready_bytes + Buffer.length t.partial

let next t =
  if t.closed then `Eof
  else
    match Queue.take_opt t.ready with
    | Some (`Frame f as frame) ->
        t.ready_bytes <- t.ready_bytes - String.length f;
        frame
    | Some `Overlong -> `Overlong
    | None ->
        if not t.eof then `Await
        else begin
          (* deliver a trailing unterminated line (an overlong one cut off
             by EOF was already reported), then EOF forever *)
          t.closed <- true;
          if t.discarding || Buffer.length t.partial = 0 then `Eof
          else begin
            let line = Buffer.contents t.partial in
            Buffer.clear t.partial;
            `Frame line
          end
        end
