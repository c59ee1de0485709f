(** DER-keyed, Domain-safe certificate intern table.

    Decode paths that receive raw certificate DER (PEM files, TLS
    certificate messages, service requests) parse each distinct certificate
    once and share the immutable {!Chaoschain_x509.Cert.t} thereafter.
    Lookups are keyed by the DER bytes themselves: a cheap word-at-a-time
    hash picks the slot and an exact byte compare confirms a hit, so two
    different certificates can never alias. The SHA-256 fingerprint (the
    certificate's identity everywhere else) is computed only on a miss,
    when the certificate is parsed.

    The table is sharded with one mutex per shard. The shard comes from
    hash bits chosen independently of the bits each shard's hash table
    uses for its buckets, so sharding does not crowd a shard's keys into
    a fraction of its buckets. Parsing happens outside the lock.
    Interning only affects sharing, never results: a cached certificate is
    byte-for-byte the value a fresh parse would produce, so verdicts and
    tables are identical across hit/miss and across [--jobs]. *)

val cert_of_der : string -> (Chaoschain_x509.Cert.t, string) result
(** Parse-or-share the certificate encoded by the whole input. Equivalent to
    [Cert.of_der] but returns the interned value when the bytes have been
    seen before. Parse failures are not cached. *)

val cert_of_sub :
  string -> off:int -> len:int -> (Chaoschain_x509.Cert.t, string) result
(** [cert_of_sub s ~off ~len] interns the certificate occupying the given
    window of [s]. On a cache hit no copy of the window is made (the hash
    and the byte compare both walk [s] in place); a miss copies it once. Raises
    [Invalid_argument] if the range is out of bounds. *)

val set_enabled : bool -> unit
(** Globally enable/disable interning (default: enabled). When disabled the
    functions above parse unconditionally — used by [--no-intern] for A/B
    debugging. *)

val enabled : unit -> bool

type stats = { entries : int; lookups : int; hits : int }

val stats : unit -> stats
(** Aggregate counters across all shards: distinct certificates held,
    interning calls while enabled, and calls answered from the table. *)

val clear : unit -> unit
(** Drop all entries and reset counters (tests). *)
