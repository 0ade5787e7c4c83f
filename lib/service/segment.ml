(* One fixed-size log segment of the segmented journal (see {!Log} for the
   directory view and {!Journal} for the writer facade).

   File format (text):

   {v
   # dvbp-segment v1
   policy,mtf
   seed,42
   capacity,100,100
   base,17
   arrive,default,0x1.8p+1,3,0,1,30,20,~0f3a
   seal,1,9ae1c2d4
   v}

   [base] is the global index of the segment's first record. A {e sealed}
   segment ([<journal>.NNNNNN.seg]) ends with a [seal,<count>,<crc32>]
   footer: [count] records, CRC-32 over the record-region bytes (everything
   between the header's last row and the footer, newlines included). The
   seal invariant — content fsynced before the [.open] → [.seg] rename —
   means a sealed segment is complete by construction, so {e any} short
   read, torn tail or footer mismatch inside one is a hard error, never
   healed. Only the {e active} segment ([.seg.open]) may end mid-record
   after a crash; its unterminated final line (a torn write) is dropped. *)

let magic = "# dvbp-segment v1"

type kind = Sealed | Active

(* [<prefix>.%06d.seg[.open]] — sibling files of the configured journal
   path, so no directory-creation protocol is needed and `ls <journal>.*`
   finds every segment *)
let name prefix ~idx = function
  | Sealed -> Printf.sprintf "%s.%06d.seg" prefix idx
  | Active -> Printf.sprintf "%s.%06d.seg.open" prefix idx

(* classify a directory entry against the journal path's basename;
   anything that is not exactly [<base>.<digits>.seg[.open]] is ignored
   (tmp files, a file at the journal path itself, unrelated files) *)
let classify ~basename entry =
  let prefix = basename ^ "." in
  let pn = String.length prefix in
  let en = String.length entry in
  if en <= pn || not (String.equal (String.sub entry 0 pn) prefix) then None
  else
    let rest = String.sub entry pn (en - pn) in
    let with_suffix suffix kind =
      let sn = String.length suffix in
      let rn = String.length rest in
      if rn <= sn || not (String.equal (String.sub rest (rn - sn) sn) suffix) then None
      else
        let digits = String.sub rest 0 (rn - sn) in
        if
          String.length digits > 0
          && String.for_all (fun c -> c >= '0' && c <= '9') digits
          && String.length digits <= 9
        then Some (int_of_string digits, kind)
        else None
    in
    match with_suffix ".seg.open" Active with
    | Some _ as r -> r
    | None -> with_suffix ".seg" Sealed

let header_string h = magic ^ "\n" ^ Record.header_rows h

let footer_string ~count ~crc = Printf.sprintf "seal,%d,%08x\n" count crc

let is_footer trimmed =
  String.length trimmed >= 5 && String.sub trimmed 0 5 = "seal,"

let parse_footer trimmed =
  match String.split_on_char ',' trimmed with
  | [ "seal"; count; crc ] -> (
      match (int_of_string_opt count, int_of_string_opt ("0x" ^ crc)) with
      | Some c, Some x when c >= 0 && String.length crc = 8 -> Some (c, x)
      | _ -> None)
  | _ -> None

type parsed =
  | Incomplete
      (* the header never finished — reachable only when a crash cut the
         segment's birth (header write precedes the first record and its
         fsync, and tearing removes suffixes), so there is nothing to
         recover: the segment is treated as absent *)
  | Complete of {
      header : Record.header;
      events : Record.event list;
      sealed : bool;  (* a valid seal footer was present and verified *)
      dropped_torn : bool;  (* active only: unterminated final line dropped *)
      unterminated : bool;  (* final record parsed but missed its newline *)
      region_bytes : int;  (* record-region length (post-heal, newlines incl.) *)
      region_crc : int;  (* CRC-32 of those bytes *)
    }

let ( let* ) = Result.bind

(* [expect_sealed] turns every healing path into a hard error and requires
   the footer — the read side of the seal invariant. {!Log} passes [false]
   for the active segment (and, with the test-only sensitivity hook on,
   for sealed ones too, which is exactly what the sweep must catch).

   The text is walked by offsets: each line's trimmed extent is found in
   place and a record is decoded where it lies ({!Record.decode}), so a
   parse allocates the events and little else. Only header rows, the
   footer and error messages are cut out as strings. *)
let parse ~expect_sealed text =
  let n = String.length text in
  if Record.trim_start text 0 n = n then
    if expect_sealed then Error "empty sealed segment" else Ok Incomplete
  else begin
    let terminated = text.[n - 1] = '\n' in
    let p = Record.empty_partial () in
    (* memoised once complete: after that every header row is a
       duplicate, which fails, so the header cannot change *)
    let header = ref None in
    let complete_header () =
      match !header with
      | Some h -> Ok h
      | None ->
          let* h = Record.finish_header p in
          header := Some h;
          Ok h
    in
    let decoder = Record.decoder () in
    (* record region: [region_lo] is set when the first record (or the
       footer of an empty sealed segment) is reached; [region_hi] advances
       past each accepted record so a healed tail is excluded *)
    let region_lo = ref (-1) and region_hi = ref (-1) in
    let region_bytes () = if !region_lo < 0 then 0 else !region_hi - !region_lo in
    let region_crc () =
      if !region_lo < 0 then 0
      else
        Dvbp_tracestore.Crc32.update 0 (Bytes.unsafe_of_string text) ~pos:!region_lo
          ~len:(region_bytes ())
    in
    let finish_active ~events ~dropped_torn ~unterminated =
      match complete_header () with
      | Error _ ->
          if events <> [] then Error "records before a complete header"
          else Ok Incomplete
      | Ok header ->
          Ok
            (Complete
               { header; events = List.rev events; sealed = false; dropped_torn;
                 unterminated; region_bytes = region_bytes (); region_crc = region_crc () })
    in
    (* an error on the final, unterminated line of an active segment is a
       torn write: drop the line instead *)
    let tear_or ~torn_candidate ~events error =
      if torn_candidate then finish_active ~events ~dropped_torn:true ~unterminated:false
      else error ()
    in
    (* [off]: the line's first byte; [lineno] counts from 1 *)
    let rec go lineno off ~events =
      if off >= n then
        if expect_sealed then Error "sealed segment is missing its seal footer"
        else finish_active ~events ~dropped_torn:false ~unterminated:false
      else begin
        let stop = Record.line_stop text off n in
        let is_last = stop >= n - 1 in
        let line_end = if stop < n then stop + 1 else n in
        let torn_candidate = is_last && (not terminated) && not expect_sealed in
        let lo = Record.trim_start text off stop in
        let hi = Record.trim_stop text lo stop in
        if lineno = 1 then
          if Record.field_is text lo hi magic then go 2 line_end ~events
          else if torn_candidate then Ok Incomplete
          else
            Error
              (Printf.sprintf "line 1: expected %S, got %S" magic
                 (String.sub text lo (hi - lo)))
        else if lo = hi || String.unsafe_get text lo = '#' then begin
          if !region_lo >= 0 then
            tear_or ~torn_candidate ~events (fun () ->
                Error
                  (Printf.sprintf
                     "line %d: blank or comment line inside the record region" lineno))
          else go (lineno + 1) line_end ~events
        end
        else if Record.is_record text lo hi then begin
          match complete_header () with
          | Error _ ->
              tear_or ~torn_candidate ~events (fun () ->
                  Error (Printf.sprintf "line %d: record before a complete header" lineno))
          | Ok _ -> (
              match Record.decode ~decoder text lo (hi - lo) with
              | Ok e ->
                  if !region_lo < 0 then region_lo := off;
                  region_hi := line_end;
                  if is_last && not terminated then
                    finish_active ~events:(e :: events) ~dropped_torn:false
                      ~unterminated:true
                  else go (lineno + 1) line_end ~events:(e :: events)
              | Error msg ->
                  tear_or ~torn_candidate ~events (fun () ->
                      Error (Printf.sprintf "line %d: %s" lineno msg)))
        end
        else
          let trimmed = String.sub text lo (hi - lo) in
          if is_footer trimmed then begin
            match complete_header () with
            | Error _ ->
                tear_or ~torn_candidate ~events (fun () ->
                    Error
                      (Printf.sprintf "line %d: seal footer before a complete header" lineno))
            | Ok header -> (
                if is_last && not terminated then
                  (* a torn footer: the seal never completed — the segment
                     is still active (the rename cannot have happened, it
                     follows the footer's fsync) *)
                  tear_or ~torn_candidate ~events (fun () ->
                      Error (Printf.sprintf "line %d: unterminated seal footer" lineno))
                else if not is_last then
                  Error (Printf.sprintf "line %d: data after the seal footer" lineno)
                else
                  match parse_footer trimmed with
                  | None ->
                      Error
                        (Printf.sprintf "line %d: malformed seal footer %S" lineno trimmed)
                  | Some (count, crc) ->
                      if !region_lo < 0 then begin
                        region_lo := off;
                        region_hi := off
                      end;
                      let events = List.rev events in
                      if List.length events <> count then
                        Error
                          (Printf.sprintf
                             "seal footer says %d records but the segment holds %d"
                             count (List.length events))
                      else if region_crc () <> crc then
                        Error "seal footer CRC mismatch — sealed segment corrupted"
                      else
                        Ok
                          (Complete
                             { header; events; sealed = true; dropped_torn = false;
                               unterminated = false; region_bytes = region_bytes ();
                               region_crc = crc }))
          end
          else begin
            match Record.header_row ~line:lineno p trimmed with
            | Ok () ->
                if !region_lo >= 0 then
                  Error (Printf.sprintf "line %d: header row inside the record region" lineno)
                else go (lineno + 1) line_end ~events
            | Error msg -> tear_or ~torn_candidate ~events (fun () -> Error msg)
          end
      end
    in
    let* r = go 1 0 ~events:[] in
    match r with
    | Incomplete when expect_sealed -> Error "sealed segment header is incomplete"
    | r -> Ok r
  end
