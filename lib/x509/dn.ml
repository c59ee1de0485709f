module Der = Chaoschain_der.Der
module Oid = Chaoschain_der.Oid

type attr = { typ : Oid.t; value : string }
type rdn = attr list
type t = rdn list

let empty = []

let of_attrs pairs = List.map (fun (typ, value) -> [ { typ; value } ]) pairs

let make ?c ?st ?l ?o ?ou ?cn () =
  let add typ v acc = match v with None -> acc | Some value -> (typ, value) :: acc in
  of_attrs
    (List.rev
       (add Oid.at_common_name cn
          (add Oid.at_org_unit ou
             (add Oid.at_organization o
                (add Oid.at_locality l
                   (add Oid.at_state st (add Oid.at_country c [])))))))

let find_attr typ t =
  List.find_map
    (fun rdn -> List.find_map (fun a -> if Oid.equal a.typ typ then Some a.value else None) rdn)
    t

let common_name = find_attr Oid.at_common_name
let organization = find_attr Oid.at_organization

(* caseIgnoreMatch with internal whitespace folding, per RFC 5280 sec. 7.1's
   simplified string comparison: lowercase ASCII, drop leading and trailing
   spaces and tabs, fold each internal run of them to one space. The folded
   value is never built; [fold_equal] and [fold_hash] walk it as a cursor
   over the raw string. After the non-blank byte at [i], the folded stream
   continues with one space iff [space_between s i next] (a blank run that
   a non-blank byte ends), then with the byte at [next = skip_blank s
   (i + 1)]. *)
let is_blank c = c = ' ' || c = '\t'

let rec skip_blank s i =
  if i < String.length s && is_blank (String.unsafe_get s i) then skip_blank s (i + 1)
  else i

let space_between s i next = next > i + 1 && next < String.length s

(* [i] and [j] index non-blank bytes (or the end) of [a] and [b]. *)
let rec fold_equal a i b j =
  if i >= String.length a || j >= String.length b then
    i >= String.length a && j >= String.length b
  else
    Char.lowercase_ascii (String.unsafe_get a i) = Char.lowercase_ascii (String.unsafe_get b j)
    &&
    let i' = skip_blank a (i + 1) and j' = skip_blank b (j + 1) in
    space_between a i i' = space_between b j j' && fold_equal a i' b j'

let mix h x = (h * 31) + x

let rec fold_hash s i h =
  if i >= String.length s then h
  else
    let h = mix h (Char.code (Char.lowercase_ascii (String.unsafe_get s i))) in
    let i' = skip_blank s (i + 1) in
    fold_hash s i' (if space_between s i i' then mix h (Char.code ' ') else h)

let equal_attr_loose a b =
  Oid.equal a.typ b.typ && fold_equal a.value (skip_blank a.value 0) b.value (skip_blank b.value 0)

let equal_attr_strict a b = Oid.equal a.typ b.typ && String.equal a.value b.value

let equal_with attr_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> List.length ra = List.length rb && List.for_all2 attr_eq ra rb)
       a b

let equal_strict = equal_with equal_attr_strict
let equal = equal_with equal_attr_loose

(* Over the same folded stream as [equal], plus the attribute types and the
   RDN structure, so [equal a b] implies [hash a = hash b]. *)
let hash t =
  List.fold_left
    (fun h rdn ->
      List.fold_left
        (fun h a -> fold_hash a.value (skip_blank a.value 0) (mix (mix h 1) (Oid.hash a.typ)))
        (mix h 2) rdn)
    0 t
  land max_int

let compare a b =
  let attr_cmp x y =
    match Oid.compare x.typ y.typ with 0 -> String.compare x.value y.value | c -> c
  in
  List.compare (List.compare attr_cmp) a b

let is_empty t = t = []

let attr_abbrev typ =
  if Oid.equal typ Oid.at_common_name then "CN"
  else if Oid.equal typ Oid.at_country then "C"
  else if Oid.equal typ Oid.at_locality then "L"
  else if Oid.equal typ Oid.at_state then "ST"
  else if Oid.equal typ Oid.at_organization then "O"
  else if Oid.equal typ Oid.at_org_unit then "OU"
  else Oid.to_string typ

let to_string t =
  String.concat ", "
    (List.map
       (fun rdn ->
         String.concat "+"
           (List.map (fun a -> Printf.sprintf "%s=%s" (attr_abbrev a.typ) a.value) rdn))
       t)

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Country names are PrintableString in the wild; everything else we emit as
   UTF8String. The decoder accepts either. *)
let attr_to_der a =
  let value =
    if Oid.equal a.typ Oid.at_country then Der.printable_string a.value
    else Der.utf8_string a.value
  in
  Der.sequence [ Der.oid a.typ; value ]

let to_der t = Der.sequence (List.map (fun rdn -> Der.set (List.map attr_to_der rdn)) t)

let ( let* ) = Result.bind

let attr_of_der v =
  let* fields = Der.as_sequence v in
  match fields with
  | [ typ_v; value_v ] ->
      let* typ = Der.as_oid typ_v in
      let* value = Der.as_string value_v in
      Ok { typ; value }
  | _ -> Error "AttributeTypeAndValue: expected 2 fields"

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let of_der v =
  let* rdns = Der.as_sequence v in
  map_result
    (fun rdn_v ->
      let* attrs = Der.as_set rdn_v in
      if attrs = [] then Error "RDN: empty set" else map_result attr_of_der attrs)
    rdns
