open Chaoschain_core
open Chaoschain_pki
module Certmsg = Chaoschain_tlssim.Certmsg
module Json = Chaoschain_report.Json

type store_choice = Union | Program of Root_store.program

let store_choice_to_string = function
  | Union -> "union"
  | Program p -> String.lowercase_ascii (Root_store.program_to_string p)

let store_choice_of_string s =
  match String.lowercase_ascii s with
  | "union" -> Some Union
  | "mozilla" -> Some (Program Root_store.Mozilla)
  | "chrome" -> Some (Program Root_store.Chrome)
  | "microsoft" -> Some (Program Root_store.Microsoft)
  | "apple" -> Some (Program Root_store.Apple)
  | _ -> None

type check = {
  domain : string option;
  pem : string option;
  scenario : string option;
  certmsg : string option;
  format : Certmsg.format option;
  aia : bool;
  store : store_choice;
  clients : Clients.id list option;
}

type op = Check of check | Stats
type request = { id : string option; op : op }
type error = { err_id : string option; code : string; message : string }

let client_id_of_string s =
  match String.lowercase_ascii s with
  | "openssl" -> Some Clients.Openssl
  | "gnutls" -> Some Clients.Gnutls
  | "mbedtls" -> Some Clients.Mbedtls
  | "cryptoapi" -> Some Clients.Cryptoapi
  | "chrome" -> Some Clients.Chrome
  | "edge" -> Some Clients.Edge
  | "safari" -> Some Clients.Safari
  | "firefox" -> Some Clients.Firefox
  | _ -> None

let client_id_to_string = function
  | Clients.Openssl -> "openssl"
  | Clients.Gnutls -> "gnutls"
  | Clients.Mbedtls -> "mbedtls"
  | Clients.Cryptoapi -> "cryptoapi"
  | Clients.Chrome -> "chrome"
  | Clients.Edge -> "edge"
  | Clients.Safari -> "safari"
  | Clients.Firefox -> "firefox"

(* --- decoding --- *)

exception Bad of string

let get_opt_string json key =
  match Json.member key json with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.get_string v with
      | Some s -> Some s
      | None -> raise (Bad (Printf.sprintf "field %S must be a string" key)))

let get_opt_bool json key ~default =
  match Json.member key json with
  | None | Some Json.Null -> default
  | Some v -> (
      match Json.get_bool v with
      | Some b -> b
      | None -> raise (Bad (Printf.sprintf "field %S must be a boolean" key)))

let parse_clients json =
  match Json.member "clients" json with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.get_list v with
      | None -> raise (Bad "field \"clients\" must be an array of names")
      | Some items ->
          let names =
            List.map
              (fun item ->
                match Json.get_string item with
                | None -> raise (Bad "client names must be strings")
                | Some s -> (
                    match client_id_of_string s with
                    | Some id -> id
                    | None -> raise (Bad (Printf.sprintf "unknown client %S" s))))
              items
          in
          if names = [] then raise (Bad "\"clients\" must not be empty");
          Some names)

let parse_check json =
  let domain = get_opt_string json "domain" in
  let pem = get_opt_string json "pem" in
  let scenario = get_opt_string json "scenario" in
  let certmsg = get_opt_string json "certmsg" in
  (match (pem, scenario, certmsg) with
  | None, None, None ->
      raise (Bad "a check needs \"pem\", \"scenario\" or \"certmsg\"")
  | Some _, Some _, _ | Some _, _, Some _ | _, Some _, Some _ ->
      raise (Bad "\"pem\", \"scenario\" and \"certmsg\" are exclusive")
  | _ -> ());
  if (pem <> None || certmsg <> None) && domain = None then
    raise (Bad "\"domain\" is required with \"pem\" or \"certmsg\"");
  let format =
    match get_opt_string json "format" with
    | None -> None
    | Some _ when certmsg = None ->
        raise (Bad "\"format\" only applies to \"certmsg\" checks")
    | Some s -> (
        match Certmsg.format_of_string s with
        | Some f -> Some f
        | None ->
            raise (Bad (Printf.sprintf "unknown format %S (want \"1.2\" or \"1.3\")" s)))
  in
  let aia = get_opt_bool json "aia" ~default:true in
  let store =
    match get_opt_string json "store" with
    | None -> Union
    | Some s -> (
        match store_choice_of_string s with
        | Some c -> c
        | None -> raise (Bad (Printf.sprintf "unknown store %S" s)))
  in
  let clients = parse_clients json in
  { domain; pem; scenario; certmsg; format; aia; store; clients }

let of_frame frame =
  match Json.of_string frame with
  | Error msg ->
      Error { err_id = None; code = "malformed_frame"; message = msg }
  | Ok json -> (
      match json with
      | Json.Obj _ -> (
          let id = try get_opt_string json "id" with Bad _ -> None in
          try
            let op =
              match get_opt_string json "op" with
              | None -> raise (Bad "field \"op\" is required")
              | Some "check" -> Check (parse_check json)
              | Some "stats" -> Stats
              | Some other -> raise (Bad (Printf.sprintf "unknown op %S" other))
            in
            Ok { id; op }
          with Bad message ->
            Error { err_id = id; code = "malformed_frame"; message })
      | _ ->
          Error
            {
              err_id = None;
              code = "malformed_frame";
              message = "request must be a JSON object";
            })

(* --- encoding --- *)

let to_frame { id; op } =
  let base = match id with Some id -> [ ("id", Json.String id) ] | None -> [] in
  let members =
    match op with
    | Stats -> base @ [ ("op", Json.String "stats") ]
    | Check c ->
        let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
        base
        @ [ ("op", Json.String "check") ]
        @ opt "domain" (fun d -> Json.String d) c.domain
        @ opt "pem" (fun p -> Json.String p) c.pem
        @ opt "scenario" (fun s -> Json.String s) c.scenario
        @ opt "certmsg" (fun m -> Json.String m) c.certmsg
        @ opt "format"
            (fun f -> Json.String (Certmsg.format_to_string f))
            c.format
        @ [ ("aia", Json.Bool c.aia);
            ("store", Json.String (store_choice_to_string c.store)) ]
        @ opt "clients"
            (fun ids ->
              Json.List
                (List.map (fun i -> Json.String (client_id_to_string i)) ids))
            c.clients
  in
  Json.to_string (Json.Obj members)

let id_members = function
  | Some id -> [ ("id", Json.String id) ]
  | None -> []

let error_response ~id ~code message =
  Json.to_string
    (Json.Obj
       (id_members id
       @ [ ("ok", Json.Bool false); ("code", Json.String code);
           ("error", Json.String message) ]))

let verdict_response ~id ~verdict =
  (* The verdict is embedded as already-encoded bytes so that a cache hit is
     byte-identical to the miss that populated it. One exactly-sized
     buffer: [{], the optional ["id":<id>,], the fixed prefix, the verdict,
     [}]. *)
  let id_json =
    match id with Some id -> Json.to_string (Json.String id) | None -> ""
  in
  let prefix = "\"ok\":true,\"verdict\":" in
  let idl = if id = None then 0 else String.length id_json + 6 in
  let pl = String.length prefix and vl = String.length verdict in
  let out = Bytes.create (1 + idl + pl + vl + 1) in
  Bytes.unsafe_set out 0 '{';
  if id <> None then begin
    Bytes.blit_string "\"id\":" 0 out 1 5;
    Bytes.blit_string id_json 0 out 6 (String.length id_json);
    Bytes.unsafe_set out idl ','
  end;
  Bytes.blit_string prefix 0 out (1 + idl) pl;
  Bytes.blit_string verdict 0 out (1 + idl + pl) vl;
  Bytes.unsafe_set out (1 + idl + pl + vl) '}';
  Bytes.unsafe_to_string out

let stats_response ~id stats =
  Json.to_string
    (Json.Obj (id_members id @ [ ("ok", Json.Bool true); ("stats", stats) ]))
