type sink = {
  can_admit : unit -> bool;
  submit : tag:int -> string -> [ `Admitted | `Rejected of string ];
  drain : unit -> (int * string) list;
  pending : unit -> int;
  submit_overlong : tag:int -> unit;
}

type config = {
  max_frame : int;
  max_conns : int;   (* 0 = derive from the active poller backend *)
  write_bound : int;
  inbox_bound : int;
}

let default_config =
  { max_frame = Framing.default_max_frame;
    max_conns = 0;
    write_bound = 256 * 1024;
    inbox_bound = 1024 }

(* A framed line: a frame, or the marker of an overlong line, which keeps
   its place in submission order. *)
type item = Frame of string | Overlong_line

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;       (* read side *)
  c_wfd : Unix.file_descr;      (* write side: c_fd again for a socket *)
  c_framing : Framing.t;
  c_inbox : item Queue.t;       (* framed lines awaiting submission *)
  c_out : string Queue.t;       (* reply bytes awaiting the socket *)
  mutable c_out_off : int;      (* flushed prefix of the head of c_out *)
  mutable c_out_bytes : int;
  mutable c_inflight : int;     (* frames submitted, reply not yet routed *)
  mutable c_read_eof : bool;
  mutable c_dead : bool;        (* socket error: close asap, drop replies *)
  mutable c_want_r : bool;      (* interest currently held by the poller *)
  mutable c_want_w : bool;
}

type stats = {
  live_conns : int;
  accepted : int;
  frames : int;
  overlong : int;
  dropped_replies : int;
  accept_failures : int;
}

let aggregate_stats l =
  List.fold_left
    (fun a s ->
      { live_conns = a.live_conns + s.live_conns;
        accepted = a.accepted + s.accepted;
        frames = a.frames + s.frames;
        overlong = a.overlong + s.overlong;
        dropped_replies = a.dropped_replies + s.dropped_replies;
        accept_failures = a.accept_failures + s.accept_failures })
    { live_conns = 0; accepted = 0; frames = 0; overlong = 0;
      dropped_replies = 0; accept_failures = 0 }
    l

type t = {
  config : config;
  max_conns : int;                  (* resolved: config or poller-derived *)
  poller : Poller.t;
  listen : Unix.file_descr option;
  sink : sink;
  dispatch : (Unix.file_descr -> bool) option;
      (* accept-time hook: [true] = the fd was handed to another shard *)
  conns : (int, conn) Hashtbl.t;
  by_fd : (Unix.file_descr, conn) Hashtbl.t;
  chunk : Bytes.t;
  wake_r : Unix.file_descr;         (* self-pipe: offer/stop wakeups *)
  wake_w : Unix.file_descr;
  adopt_lock : Mutex.t;
  adopt_q : Unix.file_descr Queue.t; (* fds offered by a dispatcher shard *)
  mutable next_id : int;
  mutable rr : int;                 (* round-robin rotation cursor *)
  draining : bool Atomic.t;         (* set cross-Domain by stop *)
  mutable listener_armed : bool;    (* accept interest held by the poller *)
  mutable listener_closed : bool;
  mutable stopped : bool;           (* drain complete; loop is done *)
  mutable inboxed : int;            (* global parsed-but-unsubmitted count *)
  mutable accepted : int;
  mutable frames : int;
  mutable overlong : int;
  mutable dropped_replies : int;
  mutable accept_failures : int;    (* EMFILE/ENFILE on accept *)
  mutable accept_backoff_until : float;
      (* while in the future, the listener is not armed: an fd-exhausted
         process must not spin on a permanently-ready accept queue *)
  lifeline : bool;
      (* created with a pre-adopted connection: drain once none is left *)
}

let accept_backoff_s = 0.05

let set_interest t c ~read ~write =
  if c.c_wfd = c.c_fd then Poller.set t.poller c.c_fd ~read ~write
  else begin
    Poller.set t.poller c.c_fd ~read ~write:false;
    Poller.set t.poller c.c_wfd ~read:false ~write
  end;
  c.c_want_r <- read;
  c.c_want_w <- write

let register_conn ?wfd t fd =
  let wfd = Option.value wfd ~default:fd in
  Unix.set_nonblock fd;
  if wfd <> fd then Unix.set_nonblock wfd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  let id = t.next_id in
  t.next_id <- id + 1;
  t.accepted <- t.accepted + 1;
  let c =
    { c_id = id; c_fd = fd; c_wfd = wfd;
      c_framing = Framing.create ~max_frame:t.config.max_frame ();
      c_inbox = Queue.create (); c_out = Queue.create ();
      c_out_off = 0; c_out_bytes = 0; c_inflight = 0;
      c_read_eof = false; c_dead = false; c_want_r = true; c_want_w = false }
  in
  Hashtbl.add t.conns id c;
  Hashtbl.replace t.by_fd fd c;
  if wfd <> fd then Hashtbl.replace t.by_fd wfd c;
  set_interest t c ~read:true ~write:false

let create ?(config = default_config) ?(backend = Poller.Select) ?listen
    ?dispatch ?conn sink =
  if config.max_conns < 0 then invalid_arg "Netloop.create: max_conns >= 0";
  if config.write_bound < 1 then invalid_arg "Netloop.create: write_bound >= 1";
  if config.inbox_bound < 1 then invalid_arg "Netloop.create: inbox_bound >= 1";
  let poller = Poller.create backend in
  let max_conns =
    if config.max_conns = 0 then Poller.default_max_conns backend
    else config.max_conns
  in
  Option.iter Unix.set_nonblock listen;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Poller.set poller wake_r ~read:true ~write:false;
  (match listen with
  | Some fd ->
      Poller.set poller fd ~read:true ~write:false
  | None -> ());
  let t =
    { config; max_conns; poller; listen; sink; dispatch;
      conns = Hashtbl.create 64; by_fd = Hashtbl.create 64;
      chunk = Bytes.create 65536; wake_r; wake_w;
      adopt_lock = Mutex.create (); adopt_q = Queue.create ();
      next_id = 0; rr = 0; draining = Atomic.make false;
      listener_armed = listen <> None; listener_closed = false; stopped = false;
      inboxed = 0; accepted = 0; frames = 0; overlong = 0; dropped_replies = 0;
      accept_failures = 0; accept_backoff_until = 0.0;
      lifeline = conn <> None }
  in
  Option.iter (fun (r, w) -> register_conn t ~wfd:w r) conn;
  t

let max_conns t = t.max_conns
let poller_name t = Poller.name t.poller
let finished t = t.stopped

let wake t =
  (* A full pipe already guarantees a pending wakeup; write errors after
     the loop tore the pipe down are equally ignorable. *)
  try ignore (Unix.write_substring t.wake_w "!" 0 1 : int)
  with Unix.Unix_error _ -> ()

let stop t =
  Atomic.set t.draining true;
  wake t

let draining t = Atomic.get t.draining

let stats t =
  { live_conns = Hashtbl.length t.conns; accepted = t.accepted;
    frames = t.frames; overlong = t.overlong;
    dropped_replies = t.dropped_replies;
    accept_failures = t.accept_failures }

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Queue an accepted fd for adoption by this loop (called from the
   dispatcher shard's Domain). Refused — [false], caller keeps the fd —
   once this loop drains or its connection budget (live + already queued)
   is spent. *)
let offer t fd =
  if Atomic.get t.draining || t.stopped then false
  else begin
    Mutex.lock t.adopt_lock;
    let accepted =
      Hashtbl.length t.conns + Queue.length t.adopt_q < t.max_conns
      && not (Atomic.get t.draining)
    in
    if accepted then Queue.add fd t.adopt_q;
    Mutex.unlock t.adopt_lock;
    if accepted then wake t;
    accepted
  end

let push_out c s =
  Queue.add s c.c_out;
  Queue.add "\n" c.c_out;
  c.c_out_bytes <- c.c_out_bytes + String.length s + 1

(* Sorted live connections, rotated by the fairness cursor so every
   connection periodically goes first for both reading and submission. *)
let rotated t =
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let all = List.sort (fun a b -> compare a.c_id b.c_id) all in
  match all with
  | [] -> []
  | _ ->
      (* rotate left by the cursor: [a;b;c;d] at k=1 -> [b;c;d;a] *)
      let k = t.rr mod List.length all in
      let rec drop i xs = if i = 0 then xs else
        match xs with [] -> [] | _ :: r -> drop (i - 1) r in
      let rec take i xs = if i = 0 then [] else
        match xs with [] -> [] | x :: r -> x :: take (i - 1) r in
      drop k all @ take k all

(* --- accepting / adopting --- *)

let rec accept_ready t =
  if (not (draining t)) && Hashtbl.length t.conns < t.max_conns then
    match t.listen with
    | None -> ()
    | Some listen -> (
        match Unix.accept ~cloexec:true listen with
        | fd, _ ->
            (match t.dispatch with
            | Some handoff when handoff fd -> ()
            | _ -> register_conn t fd);
            accept_ready t
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (EINTR, _, _) -> accept_ready t
        | exception Unix.Unix_error (ECONNABORTED, _, _) -> accept_ready t
        | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
            (* Out of descriptors: count it and stop arming the listener
               for a beat instead of spinning on the still-ready accept
               queue; existing connections keep draining, which is what
               frees descriptors. *)
            t.accept_failures <- t.accept_failures + 1;
            t.accept_backoff_until <- Unix.gettimeofday () +. accept_backoff_s
        | exception Unix.Unix_error (EBADF, _, _) -> ())

(* Pull fds queued by a dispatcher shard into real connections. *)
let adopt_offered t =
  let pending = ref [] in
  Mutex.lock t.adopt_lock;
  Queue.iter (fun fd -> pending := fd :: !pending) t.adopt_q;
  Queue.clear t.adopt_q;
  Mutex.unlock t.adopt_lock;
  List.iter
    (fun fd ->
      if draining t || Hashtbl.length t.conns >= t.max_conns then close_fd fd
      else register_conn t fd)
    (List.rev !pending)

let drain_wake t =
  let rec go () =
    match Unix.read t.wake_r t.chunk 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

(* --- reading --- *)

(* Pump every frame the machine can deliver right now into the inbox. *)
let pump t c =
  let rec go () =
    match Framing.next c.c_framing with
    | `Frame f ->
        Queue.add (Frame f) c.c_inbox;
        t.inboxed <- t.inboxed + 1;
        go ()
    | `Overlong ->
        t.overlong <- t.overlong + 1;
        Queue.add Overlong_line c.c_inbox;
        t.inboxed <- t.inboxed + 1;
        go ()
    | `Await | `Eof -> ()
  in
  go ()

let read_ready t c =
  if not (c.c_dead || c.c_read_eof) then begin
    (match Unix.read c.c_fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 ->
        c.c_read_eof <- true;
        Framing.eof c.c_framing
    | n -> Framing.feed c.c_framing t.chunk 0 n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> c.c_dead <- true);
    if not c.c_dead then pump t c
  end

(* --- submission (fair round-robin) --- *)

let submit_frames t =
  if t.inboxed > 0 then begin
    let order = rotated t in
    t.rr <- t.rr + 1;
    let progress = ref true in
    while !progress && t.inboxed > 0 && t.sink.can_admit () do
      progress := false;
      List.iter
        (fun c ->
          if (not c.c_dead)
             && (not (Queue.is_empty c.c_inbox))
             && t.sink.can_admit ()
          then begin
            t.inboxed <- t.inboxed - 1;
            (match Queue.pop c.c_inbox with
            | Overlong_line ->
                t.sink.submit_overlong ~tag:c.c_id;
                c.c_inflight <- c.c_inflight + 1
            | Frame frame -> (
                match t.sink.submit ~tag:c.c_id frame with
                | `Admitted ->
                    c.c_inflight <- c.c_inflight + 1;
                    t.frames <- t.frames + 1
                | `Rejected reply -> push_out c reply));
            progress := true
          end)
        order
    done
  end

(* --- replies --- *)

let route_replies t responses =
  List.iter
    (fun (tag, reply) ->
      match Hashtbl.find_opt t.conns tag with
      | Some c ->
          c.c_inflight <- c.c_inflight - 1;
          if c.c_dead then t.dropped_replies <- t.dropped_replies + 1
          else push_out c reply
      | None -> t.dropped_replies <- t.dropped_replies + 1)
    responses

(* --- writing --- *)

let flush_out c =
  let continue = ref true in
  while !continue && not (Queue.is_empty c.c_out) do
    let head = Queue.peek c.c_out in
    let len = String.length head - c.c_out_off in
    match Unix.write_substring c.c_wfd head c.c_out_off len with
    | n ->
        c.c_out_bytes <- c.c_out_bytes - n;
        if n = len then begin
          ignore (Queue.pop c.c_out);
          c.c_out_off <- 0
        end
        else begin
          c.c_out_off <- c.c_out_off + n;
          continue := false
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
        (* EPIPE/ECONNRESET and friends: the peer is gone; close this one
           connection instead of dying *)
        c.c_dead <- true;
        continue := false
  done

(* --- lifecycle --- *)

let release t fd =
  Poller.remove t.poller fd;
  close_fd fd;
  Hashtbl.remove t.by_fd fd

let reap t =
  let victims =
    Hashtbl.fold
      (fun _ c acc ->
        let finished_naturally =
          c.c_read_eof && Queue.is_empty c.c_inbox && c.c_inflight = 0
          && c.c_out_bytes = 0
        in
        let drained =
          draining t && Queue.is_empty c.c_inbox && c.c_inflight = 0
          && c.c_out_bytes = 0
        in
        if c.c_dead || finished_naturally || drained then c :: acc else acc)
      t.conns []
  in
  List.iter
    (fun c ->
      t.inboxed <- t.inboxed - Queue.length c.c_inbox;
      Queue.clear c.c_inbox;
      release t c.c_fd;
      if c.c_wfd <> c.c_fd then release t c.c_wfd;
      Hashtbl.remove t.conns c.c_id)
    victims;
  if t.lifeline && Hashtbl.length t.conns = 0 then Atomic.set t.draining true

let readable_conn t c =
  (not c.c_dead) && (not c.c_read_eof) && (not (draining t))
  && c.c_out_bytes <= t.config.write_bound
  && t.inboxed < t.config.inbox_bound

(* Reconcile the poller's interest set with the loop state: the listener
   accepts while there is budget (and no active EMFILE backoff), a
   connection reads under the layered backpressure bounds and writes
   while reply bytes are queued. Only changed interests reach the
   poller — O(changes), which is what lets the epoll backend skip the
   O(n) per-iteration registration cost select pays. *)
let update_interest t ~now =
  (match t.listen with
  | Some listen when not t.listener_closed ->
      let want =
        (not (draining t))
        && Hashtbl.length t.conns < t.max_conns
        && now >= t.accept_backoff_until
      in
      if want <> t.listener_armed then begin
        Poller.set t.poller listen ~read:want ~write:false;
        t.listener_armed <- want
      end
  | _ -> ());
  Hashtbl.iter
    (fun _ c ->
      let want_r = readable_conn t c in
      let want_w = (not c.c_dead) && c.c_out_bytes > 0 in
      if want_r <> c.c_want_r || want_w <> c.c_want_w then
        set_interest t c ~read:want_r ~write:want_w)
    t.conns

let teardown t =
  (* Close everything the loop owns; adopt_q fds that were never
     registered are closed too (their peers see a reset, which is the
     drain contract for connections that arrived after stop). *)
  Mutex.lock t.adopt_lock;
  Queue.iter close_fd t.adopt_q;
  Queue.clear t.adopt_q;
  Mutex.unlock t.adopt_lock;
  Poller.remove t.poller t.wake_r;
  close_fd t.wake_r;
  close_fd t.wake_w;
  Poller.close t.poller

let step ?(timeout = 0.0) t =
  if t.stopped then false
  else begin
    if draining t && not t.listener_closed then begin
      (match t.listen with
      | Some listen ->
          Poller.remove t.poller listen;
          close_fd listen
      | None -> ());
      t.listener_armed <- false;
      t.listener_closed <- true
    end;
    (* done? every connection drained and the engine queue empty *)
    if draining t && Hashtbl.length t.conns = 0 && t.inboxed = 0
       && t.sink.pending () = 0
       && (Mutex.lock t.adopt_lock;
           let empty = Queue.is_empty t.adopt_q in
           Mutex.unlock t.adopt_lock;
           empty)
    then begin
      teardown t;
      t.stopped <- true;
      false
    end
    else begin
      let now = Unix.gettimeofday () in
      update_interest t ~now;
      let has_work =
        t.inboxed > 0 || t.sink.pending () > 0
        || Hashtbl.fold (fun _ c acc -> acc || c.c_dead) t.conns false
      in
      let tmo =
        if has_work then 0.0
        else if t.accept_backoff_until > now then
          (* wake up in time to re-arm the listener *)
          Float.min timeout (Float.max 0.001 (t.accept_backoff_until -. now))
        else timeout
      in
      let events = Poller.wait t.poller ~timeout:tmo in
      let accept_now = ref false in
      List.iter
        (fun (fd, r, _w) ->
          if fd = t.wake_r then drain_wake t
          else
            match t.listen with
            | Some listen when fd = listen -> if r then accept_now := true
            | _ -> ())
        events;
      if !accept_now && not t.listener_closed then accept_ready t;
      adopt_offered t;
      (* read in rotated order for fairness; only fds the poller marked
         ready (readiness flags survive the detour through by_fd) *)
      let ready_r = Hashtbl.create 16 in
      List.iter
        (fun (fd, r, _w) ->
          if r then
            match Hashtbl.find_opt t.by_fd fd with
            | Some c -> Hashtbl.replace ready_r c.c_id ()
            | None -> ())
        events;
      List.iter
        (fun c -> if Hashtbl.mem ready_r c.c_id then read_ready t c)
        (rotated t);
      submit_frames t;
      route_replies t (t.sink.drain ());
      (* flush every connection with queued bytes, not only the ones the
         poller saw: replies generated this iteration postdate the wait *)
      Hashtbl.iter
        (fun _ c -> if (not c.c_dead) && c.c_out_bytes > 0 then flush_out c)
        t.conns;
      reap t;
      true
    end
  end

let run t = while step ~timeout:0.5 t do () done
