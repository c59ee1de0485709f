(** The chaind wire protocol.

    One JSON object per line in both directions. Requests:

    {v
    {"id":"q1","op":"check","pem":"-----BEGIN ...","domain":"example.com",
     "aia":true,"store":"union","clients":["openssl","chrome"]}
    {"id":"q2","op":"check","scenario":"reversed"}
    {"id":"q3","op":"check","certmsg":"FgMDAA…","format":"1.3",
     "domain":"example.com"}
    {"id":"q4","op":"stats"}
    v}

    [op] is required. A check needs exactly one chain source: [pem] (the
    served certificate list, PEM text with its newlines escaped as [\n]) plus
    a mandatory [domain]; [scenario] (a substring of a lab scenario name;
    [domain] then defaults to the scenario's own domain); or [certmsg] (a
    raw TLS Certificate message, base64-encoded) plus a mandatory [domain].
    [format] ("1.2" or "1.3") names the [certmsg] wire framing and is only
    legal alongside it; when omitted the server auto-detects (or applies its
    configured default). Options: [aia] (default true), [store] ("union" —
    the default — or one of "mozilla", "chrome", "microsoft", "apple"),
    [clients] (subset of client names; omitted = all eight).

    The verdict for a chain is byte-identical whichever source or framing
    delivered it: the engine keys its cache on the decoded certificate list,
    never on the encoding.

    Responses: [{"id":...,"ok":true,"verdict":{...}}],
    [{"id":...,"ok":true,"stats":{...}}] or
    [{"id":...,"ok":false,"code":"...","error":"..."}]. *)

open Chaoschain_core
open Chaoschain_pki

type store_choice = Union | Program of Root_store.program

val store_choice_to_string : store_choice -> string

type check = {
  domain : string option;
  pem : string option;
  scenario : string option;
  certmsg : string option;
      (** base64 of a raw TLS Certificate message (either framing) *)
  format : Chaoschain_tlssim.Certmsg.format option;
      (** declared framing of [certmsg]; [None] = auto-detect *)
  aia : bool;
  store : store_choice;
  clients : Clients.id list option;  (** [None] = all eight clients *)
}

type op = Check of check | Stats

type request = { id : string option; op : op }

type error = {
  err_id : string option;  (** echoed when the frame parsed far enough *)
  code : string;
  message : string;
}

val of_frame : string -> (request, error) result
(** Decode one request line. Error codes produced here:
    ["malformed_frame"]. *)

val to_frame : request -> string
(** Re-encode a request (the round-trip direction clients use; exercised by
    the protocol tests). *)

val client_id_of_string : string -> Clients.id option
(** Case-insensitive client name ("openssl", "gnutls", "mbedtls",
    "cryptoapi", "chrome", "edge", "safari", "firefox"). *)

val client_id_to_string : Clients.id -> string

(** {1 Response builders} *)

val error_response : id:string option -> code:string -> string -> string
val verdict_response : id:string option -> verdict:string -> string
(** [verdict] is an already-encoded JSON object; it is embedded verbatim so
    a cache hit reuses the exact bytes of the original miss. *)

val stats_response : id:string option -> Chaoschain_report.Json.t -> string
