(* Directory view of a segmented journal: scan the sibling segment files of
   a journal path, parse each ({!Segment}), and assemble the {e chain} —
   the longest event-contiguous suffix of segments ending at the newest
   one. Files below a contiguity break are {e stale}: leftovers of a
   crashed retire/truncate whose records the snapshot already absorbed
   (recovery verifies that via the chain's base; if the snapshot does not
   cover it, the missing records are reported as a hard error there).

   The writer side lives in {!Journal}; this module is read/maintenance
   only. *)

(* Test-only sensitivity hook: when set, the writer skips the seal footer
   and the pre-rename fsync, and the read side parses sealed segments with
   active-segment leniency (torn tails healed instead of rejected). The
   simulation sweep flips it to prove the seal invariant is load-bearing —
   with the check defeated, crash recovery demonstrably diverges. *)
let defeat_seal_check = ref false

type seg = {
  s_idx : int;
  s_kind : Segment.kind;  (* on-disk naming *)
  s_path : string;
  s_header : Record.header;  (* base = this segment's first global index *)
  s_count : int;
  s_events : Record.event list;
  s_sealed : bool;  (* verified seal footer present *)
  s_dropped_torn : bool;
  s_unterminated : bool;
  s_region_bytes : int;  (* record-region length *)
  s_region_crc : int;  (* and its CRC-32: the writer's running CRC on reopen *)
  s_bytes : int;  (* file size as read *)
}

let s_base s = s.s_header.Record.base
let s_end s = s_base s + s.s_count

type view = {
  v_header : Record.header;  (* base = chain base *)
  v_chain : seg list;  (* ascending index; last entry may be the active one *)
  v_active : seg option;  (* last of chain when it is appendable *)
  v_stale : string list;  (* excluded files, deleted on the next append_to *)
  v_misnamed : seg list;  (* footered [.open] files: seal rename rolled back *)
  v_next_idx : int;  (* 1 + highest index seen (stale included) *)
  v_events : Record.event list;
  v_dropped_torn : bool;
}

let ( let* ) = Result.bind

(* (idx, kind, path) for every segment file of [prefix], ascending index,
   plus the paths displaced by duplicate indices: if both namings exist for
   one index the sealed one wins (the seal rename completed; the [.open]
   entry is a stale directory leftover). *)
let scan ?(io = Real_io.v) prefix =
  let dir = Filename.dirname prefix in
  let basename = Filename.basename prefix in
  let entries =
    List.filter_map
      (fun entry ->
        match Segment.classify ~basename entry with
        | Some (idx, kind) -> Some (idx, kind, Filename.concat dir entry)
        | None -> None)
      (io.Io.list_dir dir)
  in
  let tbl = Hashtbl.create 8 in
  let stale = ref [] in
  List.iter
    (fun (idx, kind, path) ->
      match (Hashtbl.find_opt tbl idx, kind) with
      | None, _ -> Hashtbl.replace tbl idx (kind, path)
      | Some (Segment.Sealed, _), Segment.Active -> stale := path :: !stale
      | Some (Segment.Active, opath), Segment.Sealed ->
          stale := opath :: !stale;
          Hashtbl.replace tbl idx (kind, path)
      | Some _, _ -> ())
    entries;
  let listed =
    Hashtbl.fold (fun idx (kind, path) acc -> (idx, kind, path) :: acc) tbl []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  (listed, List.rev !stale)

let all_paths ?(io = Real_io.v) prefix =
  let listed, stale = scan ~io prefix in
  List.map (fun (_, _, path) -> path) listed @ stale

let parse_one ~io (idx, kind, path) =
  let* text = io.Io.read_file path in
  let expect_sealed = kind = Segment.Sealed && not !defeat_seal_check in
  let* parsed =
    Result.map_error
      (Printf.sprintf "%s: %s" path)
      (Segment.parse ~expect_sealed text)
  in
  match parsed with
  | Segment.Incomplete -> Ok None
  | Segment.Complete
      { header; events; sealed; dropped_torn; unterminated; region_bytes; region_crc } ->
      Ok
        (Some
           {
             s_idx = idx;
             s_kind = kind;
             s_path = path;
             s_header = header;
             s_count = List.length events;
             s_events = events;
             s_sealed = sealed || kind = Segment.Sealed;
             s_dropped_torn = dropped_torn;
             s_unterminated = unterminated;
             s_region_bytes = region_bytes;
             s_region_crc = region_crc;
             s_bytes = String.length text;
           })

let same_shape (a : Record.header) (b : Record.header) =
  String.equal a.Record.policy b.Record.policy
  && a.Record.seed = b.Record.seed
  && Dvbp_vec.Vec.equal a.Record.capacity b.Record.capacity

(* [Ok None]: no usable segments (no files at all, or only ones whose
   header never completed — a crashed genesis holds no records, because
   records follow the header and tearing only removes suffixes).
   [Ok (Some view)] otherwise; hard [Error] on any corrupt segment. *)
let read ?(io = Real_io.v) prefix =
  let listed, name_stale = scan ~io prefix in
  match listed with
  | [] -> Ok None
  | _ -> (
      let next_idx =
        1 + List.fold_left (fun acc (idx, _, _) -> max acc idx) (-1) listed
      in
      let rec parse_all acc = function
        | [] -> Ok (List.rev acc)
        | entry :: rest ->
            let* seg = parse_one ~io entry in
            parse_all ((entry, seg) :: acc) rest
      in
      let* parsed = parse_all [] listed in
      let complete = List.filter_map (fun (_, seg) -> seg) parsed in
      let incomplete_stale =
        List.filter_map
          (fun ((_, _, path), seg) -> if seg = None then Some path else None)
          parsed
      in
      match List.rev complete with
      | [] -> Ok None
      | top :: below_desc ->
          (* chain walk, newest downward: extend while event-contiguous *)
          let rec walk chain base = function
            | [] -> (chain, [])
            | seg :: rest ->
                if s_end seg = base then walk (seg :: chain) (s_base seg) rest
                else (chain, seg :: rest)
          in
          let chain, dropped_desc = walk [ top ] (s_base top) below_desc in
          let* () =
            let rec consistent = function
              | [] | [ _ ] -> Ok ()
              | a :: (b :: _ as rest) ->
                  if same_shape a.s_header b.s_header then consistent rest
                  else
                    Error
                      (Printf.sprintf
                         "%s: segment header does not match its neighbours"
                         b.s_path)
            in
            consistent chain
          in
          (* only the newest segment may be appendable; a footered segment —
             whatever its name — is sealed and must never be written again *)
          let active =
            match List.rev chain with
            | last :: _ when not last.s_sealed -> Some last
            | _ -> None
          in
          let misnamed =
            List.filter (fun s -> s.s_sealed && s.s_kind = Segment.Active) chain
          in
          let head = List.hd chain in
          let stale =
            name_stale @ incomplete_stale
            @ List.rev_map (fun s -> s.s_path) dropped_desc
          in
          Ok
            (Some
               {
                 v_header = head.s_header;
                 v_chain = chain;
                 v_active = active;
                 v_stale = stale;
                 v_misnamed = misnamed;
                 v_next_idx = next_idx;
                 (* the newest segment's list is shared, not copied *)
                 v_events = List.fold_right (fun s acc -> s.s_events @ acc) chain [];
                 v_dropped_torn =
                   (match active with Some a -> a.s_dropped_torn | None -> false);
               }))

let frontier v =
  match List.rev v.v_chain with
  | last :: _ -> s_end last
  | [] -> v.v_header.Record.base
