let default_max_frame = 1 lsl 20

type t = {
  max_frame : int;
  chunks : string Queue.t;   (* fed input not yet scanned *)
  mutable offset : int;      (* consumed prefix of the head chunk *)
  mutable queued : int;      (* unconsumed bytes across [chunks] *)
  partial : Buffer.t;        (* scanned prefix of the current line (no '\n') *)
  mutable discarding : bool; (* dropping an already-reported overlong line *)
  mutable eof : bool;        (* no more input will be fed *)
  mutable closed : bool;     (* eof AND everything buffered was delivered *)
}

let create ?(max_frame = default_max_frame) () =
  if max_frame < 1 then invalid_arg "Framing.create: max_frame >= 1";
  { max_frame; chunks = Queue.create (); offset = 0; queued = 0;
    partial = Buffer.create 256; discarding = false; eof = false;
    closed = false }

let feed t buf pos len =
  if t.eof then invalid_arg "Framing.feed: after eof";
  if len < 0 || pos < 0 || pos + len > Bytes.length buf then
    invalid_arg "Framing.feed: out of bounds";
  if len > 0 then begin
    Queue.add (Bytes.sub_string buf pos len) t.chunks;
    t.queued <- t.queued + len
  end

let feed_string t s =
  if t.eof then invalid_arg "Framing.feed: after eof";
  if String.length s > 0 then begin
    Queue.add s t.chunks;
    t.queued <- t.queued + String.length s
  end

let eof t = t.eof <- true
let at_eof t = t.eof
let buffered t = t.queued + Buffer.length t.partial

(* Drop [n] bytes from the head chunk, popping it once exhausted. *)
let consume t n =
  let head = Queue.peek t.chunks in
  t.offset <- t.offset + n;
  t.queued <- t.queued - n;
  if t.offset >= String.length head then begin
    ignore (Queue.pop t.chunks);
    t.offset <- 0
  end

let rec next t =
  if t.closed then `Eof
  else
    match Queue.peek_opt t.chunks with
    | Some chunk -> (
        let start = t.offset in
        match String.index_from_opt chunk start '\n' with
        | Some i ->
            let seg = i - start in
            if t.discarding then begin
              (* the closing newline of the overlong line: resume framing *)
              consume t (seg + 1);
              t.discarding <- false;
              next t
            end
            else begin
              let line =
                if Buffer.length t.partial = 0 then String.sub chunk start seg
                else begin
                  Buffer.add_substring t.partial chunk start seg;
                  let s = Buffer.contents t.partial in
                  Buffer.clear t.partial;
                  s
                end
              in
              consume t (seg + 1);
              if String.length line > t.max_frame then `Overlong
              else `Frame line
            end
        | None ->
            (* no newline in the rest of this chunk *)
            let seg = String.length chunk - start in
            if not t.discarding then
              Buffer.add_substring t.partial chunk start seg;
            consume t seg;
            if (not t.discarding) && Buffer.length t.partial > t.max_frame
            then begin
              (* past the bound with no newline in sight: report now and
                 drop the rest of the line as it streams through, keeping
                 memory bounded *)
              Buffer.clear t.partial;
              t.discarding <- true;
              `Overlong
            end
            else next t)
    | None ->
        if not t.eof then `Await
        else if t.discarding then begin
          (* the overlong line was cut off by EOF; it was already reported *)
          t.closed <- true;
          `Eof
        end
        else if Buffer.length t.partial > 0 then begin
          (* deliver a trailing unterminated line, then EOF forever *)
          let line = Buffer.contents t.partial in
          Buffer.clear t.partial;
          t.closed <- true;
          if String.length line > t.max_frame then `Overlong else `Frame line
        end
        else begin
          t.closed <- true;
          `Eof
        end
