(* The split-based record decoder the in-place [Record.decode] replaced,
   kept as the reference of the decoder differential in
   test_service.ml: it splits the body on commas and trims, concatenates
   and parses each field as a fresh string, which makes its grammar easy
   to read and its behaviour easy to trust. Only the tests link it. *)

open Dvbp_service
module Vec = Dvbp_vec.Vec

let ( let* ) = Result.bind

let checksum body =
  String.fold_left (fun acc c -> ((acc * 31) + Char.code c) land 0xffff) 0 body

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let parse_float what s =
  match float_of_string_opt (String.trim s) with
  | Some x when Float.is_finite x -> Ok x
  | Some _ | None -> Error (Printf.sprintf "bad %s %S" what s)

let rec collect_ints what = function
  | [] -> Ok []
  | s :: rest ->
      let* x = parse_int what s in
      let* xs = collect_ints what rest in
      Ok (x :: xs)

let split_checksum line =
  match String.rindex_opt line ',' with
  | Some i
    when i + 1 < String.length line
         && line.[i + 1] = '~'
         && String.length line - i - 2 = 4 -> (
      let body = String.sub line 0 i in
      let hex = String.sub line (i + 2) 4 in
      match int_of_string_opt ("0x" ^ hex) with
      | Some sum when sum = checksum body -> Ok body
      | Some _ -> Error "checksum mismatch"
      | None -> Error (Printf.sprintf "bad checksum field %S" hex))
  | _ -> Error "missing checksum field"

let decode_event line =
  let* body = split_checksum line in
  let parse_tenant tenant =
    Result.map_error (fun _ -> Printf.sprintf "bad tenant %S" tenant)
      (Tenant.validate tenant)
  in
  let arrive ~tenant ~time ~item ~bin ~fresh ~sizes =
    let* tenant = parse_tenant tenant in
    let* time = parse_float "arrival time" time in
    let* item_id = parse_int "item id" item in
    let* bin_id = parse_int "bin id" bin in
    let* fresh = parse_int "opened-new-bin flag" fresh in
    let* opened_new_bin =
      match fresh with
      | 0 -> Ok false
      | 1 -> Ok true
      | n -> Error (Printf.sprintf "opened-new-bin flag must be 0 or 1, got %d" n)
    in
    let* sizes = collect_ints "size entry" sizes in
    match sizes with
    | [] -> Error "arrive record with no size"
    | _ ->
        if List.exists (fun s -> s < 0) sizes then Error "negative size"
        else
          Ok
            (Record.Arrive
               { tenant; time; item_id; size = Vec.of_list sizes; bin_id; opened_new_bin })
  in
  let depart ~tenant ~time ~item =
    let* tenant = parse_tenant tenant in
    let* time = parse_float "departure time" time in
    let* item_id = parse_int "item id" item in
    Ok (Record.Depart { tenant; time; item_id })
  in
  match String.split_on_char ',' body with
  | "arrive" :: tenant :: time :: item :: bin :: fresh :: sizes ->
      arrive ~tenant ~time ~item ~bin ~fresh ~sizes
  | [ "depart"; tenant; time; item ] -> depart ~tenant ~time ~item
  | ("arrive" | "depart") :: _ -> Error "malformed record"
  | kind :: _ -> Error (Printf.sprintf "unrecognised record kind %S" kind)
  | [] -> Error "empty record"
