module Cert = Chaoschain_x509.Cert
module Sha256 = Chaoschain_crypto.Sha256

(* A Domain-safe certificate intern table.

   Every decode path that receives raw certificate DER (PEM files, TLS
   certificate messages, service requests) funnels through here, and each
   distinct certificate is parsed exactly once; later sightings share the
   immutable [Cert.t].

   The key is the DER bytes themselves: a probe hashes its window with a
   cheap word-at-a-time hash and a hit is confirmed by an exact byte
   compare, so aliasing two different certificates is impossible. The
   SHA-256 fingerprint the certificate carries as its identity is computed
   only on a miss, for [Cert.of_der_keyed].

   The table is sharded by hash bits 20..25 so Domains hammering distinct
   certificates rarely contend on the same mutex; the shard's own hash
   table picks buckets from the low bits, so the two choices stay
   independent (low shard bits would crowd each shard's keys into 1/64 of
   its buckets). Parsing happens OUTSIDE the shard lock — only the lookup
   and the insert hold it — so a slow parse never blocks other shard
   traffic; two Domains racing on the same new certificate may both parse
   it, and the first insert wins (the loser's equal value is dropped),
   keeping results deterministic either way. *)

let shard_bits = 6
let shard_count = 1 lsl shard_bits (* 64 *)
let shard_shift = 20

(* A DER window with its hash; a stored key's window is the whole of the
   certificate's own [Cert.to_der]. *)
type key = { s : string; off : int; len : int; hash : int }

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* Word-at-a-time multiply-xor over the window, then a final avalanche so
   every output bit depends on every input word. Allocation-free. *)
let hash_window s off len =
  let h = ref (len * 0x9E3779B97F4A7C1) in
  let i = ref off and stop = off + len in
  while !i + 8 <= stop do
    h := (!h lxor Int64.to_int (get64u s !i)) * 0x100000001B3;
    i := !i + 8
  done;
  while !i < stop do
    h := (!h lxor Char.code (String.unsafe_get s !i)) * 0x100000001B3;
    incr i
  done;
  let h = !h lxor (!h lsr 31) in
  let h = h * 0x7FB5D329728EA185 in
  h lxor (h lsr 29)

(* The two windows hold the same bytes (lengths already equal). *)
let rec same_bytes a ao b bo i len =
  i = len
  || String.unsafe_get a (ao + i) = String.unsafe_get b (bo + i)
     && same_bytes a ao b bo (i + 1) len

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.hash = b.hash && a.len = b.len && same_bytes a.s a.off b.s b.off 0 a.len

  let hash k = k.hash
end)

type shard = {
  lock : Mutex.t;
  table : Cert.t Tbl.t;
  mutable s_lookups : int;
  mutable s_hits : int;
}

type stats = { entries : int; lookups : int; hits : int }

let shards =
  Array.init shard_count (fun _ ->
      { lock = Mutex.create ();
        table = Tbl.create 64;
        s_lookups = 0;
        s_hits = 0 })

let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let shard_of key = shards.((key.hash lsr shard_shift) land (shard_count - 1))

let with_lock shard f =
  Mutex.lock shard.lock;
  match f () with
  | v -> Mutex.unlock shard.lock; v
  | exception e -> Mutex.unlock shard.lock; raise e

let lookup shard key =
  with_lock shard (fun () ->
      shard.s_lookups <- shard.s_lookups + 1;
      match Tbl.find_opt shard.table key with
      | Some _ as hit ->
          shard.s_hits <- shard.s_hits + 1;
          hit
      | None -> None)

let insert shard key c =
  (* First insert wins: a concurrent Domain may have parsed the same bytes;
     return whichever value is in the table so all callers share one. The
     stored key points into the certificate's own DER, not the probe's
     buffer. *)
  with_lock shard (fun () ->
      match Tbl.find_opt shard.table key with
      | Some existing -> existing
      | None ->
          Tbl.add shard.table { key with s = Cert.to_der c; off = 0 } c;
          c)

let intern s ~off ~len =
  let key = { s; off; len; hash = hash_window s off len } in
  let shard = shard_of key in
  match lookup shard key with
  | Some c -> Ok c
  | None -> (
      (* a miss: only now copy the window and compute the fingerprint *)
      let raw = if len = String.length s then s else String.sub s off len in
      match Cert.of_der_keyed ~fp:(Sha256.digest raw) raw with
      | Error _ as e -> e
      | Ok c -> Ok (insert shard key c))

let cert_of_sub s ~off ~len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Intern.cert_of_sub";
  if not (enabled ()) then Cert.of_der (String.sub s off len)
  else intern s ~off ~len

let cert_of_der raw =
  if not (enabled ()) then Cert.of_der raw
  else intern raw ~off:0 ~len:(String.length raw)

let stats () =
  Array.fold_left
    (fun acc shard ->
      with_lock shard (fun () ->
          { entries = acc.entries + Tbl.length shard.table;
            lookups = acc.lookups + shard.s_lookups;
            hits = acc.hits + shard.s_hits }))
    { entries = 0; lookups = 0; hits = 0 }
    shards

let clear () =
  Array.iter
    (fun shard ->
      with_lock shard (fun () ->
          Tbl.reset shard.table;
          shard.s_lookups <- 0;
          shard.s_hits <- 0))
    shards
