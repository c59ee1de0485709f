module Netloop = Chaoschain_net.Netloop
module Poller = Chaoschain_net.Poller

type addr = Unix_path of string | Tcp of string * int

let parse_addr s =
  let tcp_of host port_s =
    match int_of_string_opt port_s with
    | Some p when p > 0 && p < 65536 ->
        if host = "" then Error "tcp address needs a host (try 127.0.0.1)"
        else Ok (Tcp (host, p))
    | _ -> Error (Printf.sprintf "invalid port %S" port_s)
  in
  if s = "" then Error "empty listen address"
  else if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_path (String.sub s 5 (String.length s - 5)))
  else if String.length s > 4 && String.sub s 0 4 = "tcp:" then begin
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "tcp address %S needs HOST:PORT" rest)
    | Some i ->
        tcp_of (String.sub rest 0 i)
          (String.sub rest (i + 1) (String.length rest - i - 1))
  end
  else
    match String.rindex_opt s ':' with
    | Some i
      when String.length s > i + 1
           && int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
              <> None ->
        tcp_of (String.sub s 0 i)
          (String.sub s (i + 1) (String.length s - i - 1))
    | _ -> Ok (Unix_path s)

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let resolve host port =
  match Unix.inet_addr_of_string host with
  | a -> Unix.ADDR_INET (a, port)
  | exception Failure _ -> (
      match Unix.getaddrinfo host (string_of_int port)
              [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ ->
          Unix.ADDR_INET (a, port)
      | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))

let listen_socket addr =
  match addr with
  | Unix_path path -> (
      (try
         match (Unix.lstat path).Unix.st_kind with
         | Unix.S_SOCK -> Unix.unlink path
         | _ -> ()
       with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 128
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot listen on %s: %s" path
               (Unix.error_message e)))
  | Tcp (host, port) -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      match
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (resolve host port);
        Unix.listen fd 128
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot listen on %s:%d: %s" host port
               (Unix.error_message e))
      | exception Failure msg ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error msg)

let dial = function
  | Unix_path path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (resolve host port)
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      fd

let sink engine =
  {
    Netloop.can_admit = (fun () -> Engine.can_admit engine);
    submit = (fun ~tag frame -> Engine.submit engine ~tag frame);
    drain = (fun () -> Engine.drain_tagged engine);
    pending = (fun () -> Engine.pending engine);
    submit_overlong = (fun ~tag -> Engine.submit_overlong engine ~tag);
  }

(* Run the shard loops to completion: loop 0 on this Domain, the rest on
   spawned Domains, one set of signal handlers draining them all (stop is
   Domain-safe). Every shard is joined before the aggregated stats are
   returned. *)
let run_loops loops =
  let stop_all _ = List.iter Netloop.stop loops in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop_all) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle stop_all) in
  let domains =
    List.map
      (fun loop ->
        Domain.spawn (fun () ->
            match Netloop.run loop with
            | () -> None
            | exception e ->
                (* a dead shard must not strand the others in [run] *)
                stop_all ();
                Some e))
      (List.tl loops)
  in
  let main_exn =
    match Netloop.run (List.hd loops) with
    | () -> None
    | exception e ->
        stop_all ();
        Some e
  in
  let first_exn =
    List.fold_left
      (fun acc d ->
        match (acc, Domain.join d) with
        | (Some _ as e), _ -> e
        | None, e -> e)
      main_exn domains
  in
  Sys.set_signal Sys.sigpipe old_pipe;
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int;
  match first_exn with
  | Some e -> raise e
  | None -> Netloop.aggregate_stats (List.map Netloop.stats loops)

let serve_stdio ?config ?(input = Unix.stdin) ?(output = Unix.stdout) engine =
  (* The loop closes what it owns; dups leave the caller's descriptors
     open. Always select: epoll rejects a regular file ([serve < file]). *)
  let conn = (Unix.dup ~cloexec:true input, Unix.dup ~cloexec:true output) in
  let loop = Netloop.create ?config ~conn (sink engine) in
  Fun.protect
    ~finally:(fun () ->
      (* O_NONBLOCK lives on the file description, which the parent
         shell shares *)
      List.iter
        (fun fd -> try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
        [ input; output ])
    (fun () -> run_loops [ loop ])

let shard_loops ?config ?(backend = Poller.Select) ~listen engines =
  match engines with
  | [] -> invalid_arg "Netd.shard_loops: at least one engine required"
  | first :: rest ->
      if rest <> [] then Engine.link_shards engines;
      (* shard 0 owns the listener and deals accepted connections
         round-robin; a shard that refuses (draining, budget spent)
         forfeits its turn and shard 0 keeps the connection *)
      let followers =
        Array.of_list
          (List.map
             (fun engine -> Netloop.create ?config ~backend (sink engine))
             rest)
      in
      let rr = ref 0 in
      let dispatch fd =
        let target = !rr mod (Array.length followers + 1) in
        incr rr;
        target > 0 && Netloop.offer followers.(target - 1) fd
      in
      Netloop.create ?config ~backend ~listen ~dispatch (sink first)
      :: Array.to_list followers

let serve_listen ?config ?backend ~engines addr =
  if engines = [] then Error "serve_listen: at least one engine required"
  else
    match listen_socket addr with
    | Error _ as e -> e
    | Ok listen ->
        let loops = shard_loops ?config ?backend ~listen engines in
        (* a Unix socket path is unlinked on the way out *)
        Fun.protect
          ~finally:(fun () ->
            match addr with
            | Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
            | Tcp _ -> ())
          (fun () -> Ok (run_loops loops))
