module Vec = Dvbp_vec.Vec

(* the codec lives in {!Record} (shared with {!Segment}); re-exported here
   so every existing caller keeps reading [Journal.Arrive]/[Journal.header] *)
type header = Record.header = {
  policy : string;
  seed : int;
  capacity : Vec.t;
  base : int;
}

type event = Record.event =
  | Arrive of {
      tenant : string;
      time : float;
      item_id : int;
      size : Vec.t;
      bin_id : int;
      opened_new_bin : bool;
    }
  | Depart of { tenant : string; time : float; item_id : int }

let event_time = Record.event_time
let event_item = Record.event_item
let event_tenant = Record.event_tenant
let equal_event = Record.equal_event
let pp_event = Record.pp_event
let encode_event = Record.encode_event
let decode_event = Record.decode_event

(* ---------- reading ---------- *)

type read = { header : header; events : event list; dropped_torn : bool }

let ( let* ) = Result.bind

let view_read (v : Log.view) =
  { header = v.Log.v_header; events = v.Log.v_events; dropped_torn = v.Log.v_dropped_torn }

let retired format =
  Printf.sprintf
    "%s is a retired format; run `dvbp compact` with a build from commit 3660be8 or \
     earlier to rewrite it in the current one"
    format

(* The single-file formats that preceded segments ([# dvbp-journal v1]
   and [v2] at the journal's own path) are no longer read. A file there
   is refused rather than skipped or wiped, by a resume and by a fresh
   start alike: either would otherwise lose the durable state in it. *)
let refusal ~io path =
  let first =
    match io.Io.read_file path with
    | Ok text -> String.trim (List.hd (String.split_on_char '\n' text))
    | Error _ -> ""
  in
  if first = "# dvbp-journal v1" || first = "# dvbp-journal v2" then
    retired (Printf.sprintf "a single-file journal (%s)" first)
  else
    Printf.sprintf
      "a regular file, not a journal (a journal is the segment files %s.NNNNNN.seg)"
      (Filename.basename path)

(* every segment file of the journal at [path] with its size *)
let stamp ~io path = List.map (fun p -> (p, io.Io.file_size p)) (Log.all_paths ~io path)

(* [stamp] is taken before the files are read: a write after it changes a
   size or the listing, and {!append_to} then reads the files again *)
type source = { src_path : string; stamp : (string * int option) list; view : Log.view }

let load ?(io = Real_io.v) path =
  if io.Io.file_exists path then Error (refusal ~io path)
  else
    let stamp = stamp ~io path in
    let* v = Log.read ~io path in
    Ok (Option.map (fun view -> { src_path = path; stamp; view }) v)

let source_read s = view_read s.view

let live_chain path =
  Printf.sprintf
    "%s: a journal is already here (%s.NNNNNN.seg); continue it with --resume, or \
     remove its segment files to start afresh"
    path (Filename.basename path)

let absent path = Printf.sprintf "%s: no journal (no file, no segments)" path

let read_file ?io path =
  match load ?io path with
  | Error msg -> Error msg
  | Ok (Some s) -> Ok (source_read s)
  | Ok None -> Error (absent path)

(* A journal "exists" once it holds durable state a resume must not ignore:
   any segment with a complete header — or a file a resume must refuse
   (unreadable segments, a file at the journal's own path), which must
   surface as a resume error rather than be shadowed by a silent fresh
   start. *)
let exists ?io path =
  match load ?io path with Ok None -> false | Ok (Some _) | Error _ -> true

(* ---------- writing ---------- *)

type sealed_info = {
  si_idx : int;
  si_base : int;
  si_count : int;
  si_bytes : int;
  si_path : string;
}

type writer = {
  w_path : string;
  io : Io.t;
  metrics : Metrics.t;
  fsync_every : int;
  segment_bytes : int;
  shape : header;  (* policy/seed/capacity template for new segment headers *)
  mutable out : Io.out;
  mutable active_idx : int;
  mutable active_base : int;
  mutable active_count : int;
  mutable active_bytes : int;  (* active file size, header included *)
  mutable crc : int;  (* running CRC-32 of the active record region *)
  mutable sealed : sealed_info list;  (* ascending index *)
  mutable sealed_n : int;  (* [List.length sealed] *)
  mutable sealed_bytes : int;  (* the [si_bytes] of [sealed], summed *)
  mutable unsynced : int;
  mutable appended : int;
  mutable closed : bool;
  scratch : Record.Scratch.t;  (* one record line, reused per record *)
  enc : Buffer.t;  (* sealed record lines, reused per append *)
}

(* Every append encodes through the writer's own scratch and buffer and
   hands the buffer itself to [Io] ({!Io.out.write_buffer}), so a group
   commit allocates no block sized to its batch. The buffer starts small
   (a 64 KiB block allocated at startup measurably delays a server's
   first reply) and keeps what it grows to, up to [enc_keep]: a busy
   tick's whole event run (thousands of ~40-byte records) fits, so it is
   not regrown run after run; a buffer that one oversized run grew past
   that is released afterwards rather than kept. *)
let enc_initial = 4096
let enc_keep = 1 lsl 20

(* Encode [e] as one record line, newline included, in [scratch]; fold
   its bytes into the running region CRC [crc] while they are there,
   then copy them to the end of [buf]. Returns the new CRC. *)
let add_record scratch buf crc e =
  Record.Scratch.reset scratch;
  Record.encode_into scratch e;
  Record.seal scratch;
  Record.Scratch.add_char scratch '\n';
  let bytes = scratch.Record.Scratch.buf and len = scratch.Record.Scratch.pos in
  Buffer.add_subbytes buf bytes 0 len;
  Dvbp_tracestore.Crc32.update crc bytes ~pos:0 ~len

(* [buf]'s contents to [out], leaving [buf] empty (a failed write too,
   so its records are never written twice); the byte count *)
let write_encoded (out : Io.out) buf =
  let bytes = Buffer.length buf in
  let release () = if bytes > enc_keep then Buffer.reset buf else Buffer.clear buf in
  match out.Io.write_buffer buf with
  | () ->
      release ();
      bytes
  | exception e ->
      release ();
      raise e

let path w = w.w_path
let appended w = w.appended
let default_segment_bytes = 1 lsl 20
let default_fsync_every = 64

let validate_fsync_every fsync_every =
  if fsync_every < 1 then
    invalid_arg (Printf.sprintf "fsync_every must be >= 1, got %d" fsync_every)

let validate_segment_bytes segment_bytes =
  if segment_bytes < 64 then
    invalid_arg (Printf.sprintf "segment_bytes must be >= 64, got %d" segment_bytes)

let frontier w = w.active_base + w.active_count
let sealed_segments w = w.sealed_n
let live_bytes w = w.sealed_bytes + w.active_bytes

(* O(1): the sealed list is summed as it changes, so every commit can
   refresh the gauges *)
let gauges w =
  Metrics.set_journal_live w.metrics ~segments:(w.sealed_n + 1) ~bytes:(live_bytes w)

(* open a fresh active segment and make its header durable; the caller
   issues the directory fsync (usually batched with other entry changes) *)
let open_active ~(io : Io.t) ~path ~idx ~base shape =
  let p = Segment.name path ~idx Segment.Active in
  let out = io.Io.open_out ~append:false p in
  let hdr = Segment.header_string { shape with base } in
  out.Io.write hdr;
  out.Io.fsync ();
  (out, String.length hdr)

let make_writer ~io ~metrics ~fsync_every ~segment_bytes ~path ~shape ~out ~active_idx
    ~active_base ~active_count ~active_bytes ~crc ~sealed =
  let w =
    {
      w_path = path;
      io;
      metrics;
      fsync_every;
      segment_bytes;
      shape;
      out;
      active_idx;
      active_base;
      active_count;
      active_bytes;
      crc;
      sealed;
      sealed_n = List.length sealed;
      sealed_bytes = List.fold_left (fun acc s -> acc + s.si_bytes) 0 sealed;
      unsynced = 0;
      appended = 0;
      closed = false;
      scratch = Record.Scratch.create ();
      enc = Buffer.create enc_initial;
    }
  in
  gauges w;
  w

let create ?(io = Real_io.v) ?metrics ?(fsync_every = default_fsync_every)
    ?(segment_bytes = default_segment_bytes) ~path header =
  let metrics = match metrics with Some m -> m | None -> Metrics.noop () in
  validate_fsync_every fsync_every;
  validate_segment_bytes segment_bytes;
  if header.base < 0 then invalid_arg "journal base must be non-negative";
  if io.Io.file_exists path then raise (Sys_error (path ^ ": " ^ refusal ~io path));
  (* one directory scan: a chain holding durable state (what {!exists}
     reports) is refused and left as it is; only crashed-genesis leftovers,
     segments whose header never completed, are cleared *)
  let scanned = Log.scan ~io path in
  (match Log.read_scanned ~io scanned with
  | Ok None -> ()
  | Ok (Some _) | Error _ -> raise (Sys_error (live_chain path)));
  let leftovers = Log.scanned_paths scanned in
  List.iter (fun p -> io.Io.remove p) leftovers;
  if leftovers <> [] then io.Io.fsync_dir (Filename.dirname path);
  let out, hbytes = open_active ~io ~path ~idx:0 ~base:header.base header in
  io.Io.fsync_dir (Filename.dirname path);
  make_writer ~io ~metrics ~fsync_every ~segment_bytes ~path ~shape:header ~out
    ~active_idx:0 ~active_base:header.base ~active_count:0 ~active_bytes:hbytes ~crc:0
    ~sealed:[]

let check_open w = if w.closed then invalid_arg "journal writer is closed"

(* Seal protocol: footer (count + region CRC), fsync, close, rename [.open]
   → [.seg], open the successor active at [base] with its header, one
   directory fsync covering both entry changes. The content fsync {e
   precedes} the rename, so a file named [.seg] is complete by construction
   — the read side ({!Segment.parse}) leans on that to reject any torn
   sealed file. An empty active segment already based at [base] is left as
   it is. With the {!Log.defeat_seal_check} test hook on, footer and fsync
   are skipped — the sweep uses that to prove the protocol is load-bearing. *)
let roll w ~base =
  check_open w;
  if base < frontier w then
    invalid_arg (Printf.sprintf "journal roll base %d is below the frontier %d" base (frontier w));
  if w.active_count > 0 || w.active_base <> base then begin
    let dir = Filename.dirname w.w_path in
    if not !Log.defeat_seal_check then begin
      let footer = Segment.footer_string ~count:w.active_count ~crc:w.crc in
      w.out.Io.write footer;
      w.active_bytes <- w.active_bytes + String.length footer;
      Metrics.time_fsync w.metrics (fun () -> w.out.Io.fsync ())
    end;
    w.out.Io.close ();
    let src = Segment.name w.w_path ~idx:w.active_idx Segment.Active in
    let dst = Segment.name w.w_path ~idx:w.active_idx Segment.Sealed in
    w.io.Io.rename ~src ~dst;
    w.sealed <-
      w.sealed
      @ [
          {
            si_idx = w.active_idx;
            si_base = w.active_base;
            si_count = w.active_count;
            si_bytes = w.active_bytes;
            si_path = dst;
          };
        ];
    w.sealed_n <- w.sealed_n + 1;
    w.sealed_bytes <- w.sealed_bytes + w.active_bytes;
    Metrics.on_seal w.metrics;
    let idx = w.active_idx + 1 in
    let out, hbytes = open_active ~io:w.io ~path:w.w_path ~idx ~base w.shape in
    w.io.Io.fsync_dir dir;
    w.out <- out;
    w.active_idx <- idx;
    w.active_base <- base;
    w.active_count <- 0;
    w.active_bytes <- hbytes;
    w.crc <- 0;
    w.unsynced <- 0;
    gauges w
  end

let append w e =
  check_open w;
  let crc = add_record w.scratch w.enc w.crc e in
  let bytes = write_encoded w.out w.enc in
  w.out.Io.flush ();
  w.crc <- crc;
  Metrics.on_append w.metrics ~bytes;
  w.appended <- w.appended + 1;
  w.active_count <- w.active_count + 1;
  w.active_bytes <- w.active_bytes + bytes;
  w.unsynced <- w.unsynced + 1;
  if w.active_bytes >= w.segment_bytes then roll w ~base:(frontier w)
  else if w.unsynced >= w.fsync_every then begin
    Metrics.time_fsync w.metrics (fun () -> w.out.Io.fsync ());
    w.unsynced <- 0
  end

(* Group commit: the whole batch becomes one buffered write and exactly
   one fsync — which, because fsync covers the file, also makes durable
   any records a streaming [append] left unsynced. When the batch fills
   the segment, that fsync is the seal's, so it covers the footer too.
   An empty batch does nothing (no write, no fsync). The roll check runs
   once per batch, so a segment may overshoot its target by at most one
   batch (the server's batch is one event run, at most one event-loop
   tick of lines). *)
let append_batch w events =
  check_open w;
  match events with
  | [] -> ()
  | _ ->
      let n = ref 0 and crc = ref w.crc in
      List.iter
        (fun e ->
          crc := add_record w.scratch w.enc !crc e;
          incr n)
        events;
      let bytes = write_encoded w.out w.enc in
      w.out.Io.flush ();
      w.crc <- !crc;
      Metrics.on_append_batch w.metrics ~records:!n ~bytes;
      w.appended <- w.appended + !n;
      w.active_count <- w.active_count + !n;
      w.active_bytes <- w.active_bytes + bytes;
      if w.active_bytes >= w.segment_bytes then roll w ~base:(frontier w)
      else begin
        Metrics.time_fsync w.metrics (fun () -> w.out.Io.fsync ());
        w.unsynced <- 0;
        gauges w
      end

let sync w =
  check_open w;
  Metrics.time_fsync w.metrics (fun () -> w.out.Io.fsync ());
  w.unsynced <- 0

(* The disk-reclaim half of a checkpoint: unlink sealed segments whose
   records all fall at or below [upto] (an event frontier some durable
   snapshot covers), oldest first so any crash leaves a contiguous suffix,
   then one directory fsync. Returns the number retired. *)
let retire_sealed w ~upto =
  check_open w;
  let rec split acc = function
    | s :: rest when s.si_base + s.si_count <= upto -> split (s :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let victims, keep = split [] w.sealed in
  match victims with
  | [] -> 0
  | _ ->
      List.iter (fun s -> w.io.Io.remove s.si_path) victims;
      w.io.Io.fsync_dir (Filename.dirname w.w_path);
      w.sealed <- keep;
      let bytes = List.fold_left (fun acc s -> acc + s.si_bytes) 0 victims in
      w.sealed_n <- w.sealed_n - List.length victims;
      w.sealed_bytes <- w.sealed_bytes - bytes;
      Metrics.on_retire w.metrics
        ~segments:(List.length victims) ~bytes;
      gauges w;
      List.length victims

let close w =
  if not w.closed then begin
    Metrics.time_fsync w.metrics (fun () -> w.out.Io.fsync ());
    w.out.Io.close ();
    w.closed <- true
  end

let check_shape ~path (expected : header) (h : header) =
  if h.policy <> expected.policy then
    Error
      (Printf.sprintf "%s: journal was written by policy %s, not %s" path h.policy
         expected.policy)
  else if h.seed <> expected.seed then
    Error
      (Printf.sprintf "%s: journal was written with seed %d, not %d" path h.seed
         expected.seed)
  else if not (Vec.equal h.capacity expected.capacity) then
    Error
      (Printf.sprintf "%s: journal capacity %s does not match %s" path
         (Vec.to_string h.capacity)
         (Vec.to_string expected.capacity))
  else Ok ()

(* a healed active segment's records, rewritten once per resume, and
   their CRC *)
let encode_region events =
  let scratch = Record.Scratch.create () and buf = Buffer.create enc_initial in
  let crc = List.fold_left (add_record scratch buf) 0 events in
  (Buffer.contents buf, crc)

let append_to ?(io = Real_io.v) ?metrics ?(segment_bytes = default_segment_bytes) ?source
    ~path header =
  let metrics = match metrics with Some m -> m | None -> Metrics.noop () in
  validate_segment_bytes segment_bytes;
  let dir = Filename.dirname path in
  let fresh () =
    let w = create ~io ~metrics ~segment_bytes ~path header in
    Ok (w, { header; events = []; dropped_torn = false })
  in
  let mk_writer =
    make_writer ~io ~metrics ~fsync_every:default_fsync_every ~segment_bytes ~path
      ~shape:header
  in
  (* a source is trusted only while the files are as it found them:
     after a write it would reopen the writer from a stale count and CRC
     (and replay done renames), so the files are read again *)
  let* view =
    match source with
    | Some s when String.equal s.src_path path && s.stamp = stamp ~io path ->
        Ok (Some s.view)
    | Some _ | None ->
        let* s = Result.map_error (Printf.sprintf "%s: %s" path) (load ~io path) in
        Ok (Option.map (fun s -> s.view) s)
  in
  match view with
  | None -> fresh ()
  | Some v ->
      let* () = check_shape ~path header v.Log.v_header in
      (* directory maintenance before reopening: finish seals whose
         rename a crash rolled back, drop stale files the chain walk
         excluded (retire leftovers, crashed births) *)
      let sealed_path (s : Log.seg) =
        Segment.name path ~idx:s.Log.s_idx Segment.Sealed
      in
      List.iter
        (fun (s : Log.seg) -> io.Io.rename ~src:s.Log.s_path ~dst:(sealed_path s))
        v.Log.v_misnamed;
      List.iter (fun p -> io.Io.remove p) v.Log.v_stale;
      if v.Log.v_misnamed <> [] || v.Log.v_stale <> [] then io.Io.fsync_dir dir;
      let sealed =
        List.filter (fun (s : Log.seg) -> s.Log.s_sealed) v.Log.v_chain
        |> List.map (fun (s : Log.seg) ->
               {
                 si_idx = s.Log.s_idx;
                 si_base = Log.s_base s;
                 si_count = s.Log.s_count;
                 si_bytes = s.Log.s_bytes;
                 si_path = sealed_path s;
               })
      in
      let r = view_read v in
      match v.Log.v_active with
      | Some a ->
          (* an unterminated tail must not stay on disk: appending after
             it would weld the fragment to the next record. Rewrite the
             active segment in place (atomically) when its tail was torn
             or merely missed its final newline. Sealed segments never
             take this path — a short read there was a hard error. *)
          let needs_heal = a.Log.s_dropped_torn || a.Log.s_unterminated in
          if needs_heal then Metrics.on_heal metrics;
          let hdr = Segment.header_string a.Log.s_header in
          let region_bytes, crc =
            if needs_heal then begin
              let region, crc = encode_region a.Log.s_events in
              Io.atomic_replace io ~path:a.Log.s_path (hdr ^ region);
              (String.length region, crc)
            end
            else (a.Log.s_region_bytes, a.Log.s_region_crc)
          in
          Ok
            ( mk_writer
                ~out:(io.Io.open_out ~append:true a.Log.s_path)
                ~active_idx:a.Log.s_idx ~active_base:(Log.s_base a)
                ~active_count:a.Log.s_count
                ~active_bytes:(String.length hdr + region_bytes)
                ~crc ~sealed,
              r )
      | None ->
          (* every chain segment is sealed (or the directory only held
             sealed files): start a fresh active above the frontier *)
          let base = Log.frontier v in
          let out, hbytes =
            open_active ~io ~path ~idx:v.Log.v_next_idx ~base header
          in
          io.Io.fsync_dir dir;
          Ok
            ( mk_writer ~out ~active_idx:v.Log.v_next_idx ~active_base:base
                ~active_count:0 ~active_bytes:hbytes ~crc:0 ~sealed,
              r )
