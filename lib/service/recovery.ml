module Vec = Dvbp_vec.Vec
module Policy = Dvbp_core.Policy
module Bin = Dvbp_core.Bin
module Item = Dvbp_core.Item
module Session = Dvbp_engine.Session

type state = {
  sessions : (string * Session.t) list;
  policy : string;
  seed : int;
  capacity : Vec.t;
  events : int;
  last : Journal.event option;
  from_snapshot : int;
  from_journal : int;
  dropped_torn : bool;
  journal : Journal.source;
}

let ( let* ) = Result.bind

let fresh_session ~policy ~seed ~capacity ~tenant =
  match Policy.of_name ~rng:(Tenant.rng ~seed tenant) policy with
  | Error e -> Error e
  | Ok p -> Ok (Session.create ~capacity ~policy:p ())

(* Tenant sessions in first-appearance order. The default tenant is created
   eagerly so a recovered empty service matches what a fresh server holds. *)
type sessions = {
  tbl : (string, Session.t) Hashtbl.t;
  mutable order_rev : string list;
  policy : string;
  seed : int;
  capacity : Vec.t;
}

let add_session s tenant session =
  Hashtbl.add s.tbl tenant session;
  s.order_rev <- tenant :: s.order_rev

let no_sessions ~policy ~seed ~capacity =
  { tbl = Hashtbl.create 8; order_rev = []; policy; seed; capacity }

let make_sessions ~policy ~seed ~capacity =
  let s = no_sessions ~policy ~seed ~capacity in
  let* default = fresh_session ~policy ~seed ~capacity ~tenant:Tenant.default in
  add_session s Tenant.default default;
  Ok s

let session_for s tenant =
  match Hashtbl.find_opt s.tbl tenant with
  | Some session -> Ok session
  | None ->
      let* session =
        fresh_session ~policy:s.policy ~seed:s.seed ~capacity:s.capacity ~tenant
      in
      add_session s tenant session;
      Ok session

let to_list s =
  List.rev_map (fun t -> (t, Hashtbl.find s.tbl t)) s.order_rev

let apply_one s ~policy_name ~index = function
  | Journal.Arrive { tenant; time; item_id; size; bin_id; opened_new_bin } -> (
      let* session = session_for s tenant in
      match Session.arrive session ~at:time ~id:item_id ~size () with
      | exception Session.Session_error msg ->
          Error (Printf.sprintf "event %d (item %d at %g): replay failed: %s" index item_id time msg)
      | p ->
          if p.Session.bin_id <> bin_id || p.Session.opened_new_bin <> opened_new_bin
          then
            Error
              (Printf.sprintf
                 "event %d (tenant %s, item %d at %g): recorded placement bin %d \
                  new=%b, but policy %s recomputed bin %d new=%b — corrupt \
                  journal or policy/version mismatch"
                 index tenant item_id time bin_id opened_new_bin policy_name
                 p.Session.bin_id p.Session.opened_new_bin)
          else Ok ())
  | Journal.Depart { tenant; time; item_id } -> (
      let* session = session_for s tenant in
      match Session.depart session ~at:time ~item_id with
      | exception Session.Session_error msg ->
          Error (Printf.sprintf "event %d (item %d at %g): replay failed: %s" index item_id time msg)
      | () -> Ok ())

let replay_into s ~policy_name ~first_index events =
  let rec go index = function
    | [] -> Ok ()
    | e :: rest ->
        let* () = apply_one s ~policy_name ~index e in
        go (index + 1) rest
  in
  go first_index events

let replay ~policy ~seed ~capacity events =
  let* s = make_sessions ~policy ~seed ~capacity in
  let* () = replay_into s ~policy_name:policy ~first_index:0 events in
  Ok (to_list s)

(* each tenant's session restored from its section (fresh policy,
   saved state imported) and checked against the recorded fingerprint *)
let restore_sessions ~policy ~seed ~capacity sections =
  let s = no_sessions ~policy ~seed ~capacity in
  let rec each = function
    | [] -> Ok ()
    | (sec : Snapshot.section) :: rest ->
        let tenant = sec.Snapshot.tenant in
        let* p = Policy.of_name ~rng:(Tenant.rng ~seed tenant) policy in
        let* session =
          Result.map_error
            (Printf.sprintf "snapshot section %s: %s" tenant)
            (Session.restore ~capacity ~policy:p sec.Snapshot.state)
        in
        let fp = Session.fingerprint session in
        if fp <> sec.Snapshot.fingerprint then
          Error
            (Printf.sprintf
               "snapshot fingerprint mismatch (tenant %s): restored %s, snapshot says %s"
               tenant fp sec.Snapshot.fingerprint)
        else begin
          add_session s tenant session;
          each rest
        end
  in
  let* () = each sections in
  (* the server registers the default tenant first, always *)
  if Hashtbl.mem s.tbl Tenant.default then Ok s
  else Error "snapshot has no section for the default tenant"

(* The journal records from the snapshot's frontier [n] on. Records below
   [n] are covered by the snapshot and skipped; the one just below it, if
   the journal holds it, must be the snapshot's last covered event — the
   files must agree about the past they share. *)
let suffix_after ~base ~n ~last events =
  let rec go i = function
    | [] -> Ok []
    | rest when i >= n -> Ok rest
    | e :: rest ->
        if i = n - 1 then
          match last with
          | Some l when Journal.equal_event e l -> go (i + 1) rest
          | Some _ | None ->
              Error
                (Printf.sprintf
                   "journal record %d differs from the snapshot's last covered event — \
                    mismatched files"
                   i)
        else go (i + 1) rest
  in
  go base events

let last_of ~default events =
  match List.rev events with e :: _ -> Some e | [] -> default

let recover_source ~io ?snapshot ~journal source =
  let j = Journal.source_read source in
  let header = j.Journal.header in
  let policy = header.Journal.policy
  and seed = header.Journal.seed
  and capacity = header.Journal.capacity in
  let* snap =
    match snapshot with
    | Some path when io.Io.file_exists path ->
        let* s = Snapshot.load ~io ~path () in
        Ok (Some s)
    | Some _ | None -> Ok None
  in
  let state ~sessions ~n ~last suffix =
    let* () = replay_into sessions ~policy_name:policy ~first_index:n suffix in
    let m = List.length suffix in
    Ok
      {
        sessions = to_list sessions;
        policy;
        seed;
        capacity;
        events = n + m;
        last = last_of ~default:last suffix;
        from_snapshot = n;
        from_journal = m;
        dropped_torn = j.Journal.dropped_torn;
        journal = source;
      }
  in
  match snap with
  | None ->
      if header.Journal.base <> 0 then
        Error
          (Printf.sprintf
             "%s: journal starts at event %d but no snapshot was found — the \
              snapshotted prefix is missing"
             journal header.Journal.base)
      else
        let* sessions = make_sessions ~policy ~seed ~capacity in
        state ~sessions ~n:0 ~last:None j.Journal.events
  | Some s ->
      let* () =
        if s.Snapshot.policy <> policy then
          Error
            (Printf.sprintf "snapshot policy %s does not match journal policy %s"
               s.Snapshot.policy policy)
        else if s.Snapshot.seed <> seed then
          Error
            (Printf.sprintf "snapshot seed %d does not match journal seed %d"
               s.Snapshot.seed seed)
        else if not (Vec.equal s.Snapshot.capacity capacity) then
          Error
            (Printf.sprintf "snapshot capacity %s does not match journal capacity %s"
               (Vec.to_string s.Snapshot.capacity)
               (Vec.to_string capacity))
        else Ok ()
      in
      let n = s.Snapshot.events in
      if header.Journal.base > n then
        Error
          (Printf.sprintf
             "journal starts at event %d but the snapshot only covers %d events — \
              records are missing"
             header.Journal.base n)
      else
        let* suffix =
          suffix_after ~base:header.Journal.base ~n ~last:s.Snapshot.last j.Journal.events
        in
        let* sessions = restore_sessions ~policy ~seed ~capacity s.Snapshot.sections in
        state ~sessions ~n ~last:s.Snapshot.last suffix

let load ?(io = Real_io.v) ?snapshot ~journal () =
  let* source =
    Result.map_error (Printf.sprintf "%s: %s" journal) (Journal.load ~io journal)
  in
  match source with
  | None -> Ok None
  | Some source ->
      let* st = recover_source ~io ?snapshot ~journal source in
      Ok (Some st)

let recover ?io ?snapshot ~journal () =
  match load ?io ?snapshot ~journal () with
  | Ok (Some st) -> Ok st
  | Ok None -> Error (Printf.sprintf "%s: %s" journal (Journal.absent journal))
  | Error msg -> Error msg

let session st =
  match List.assoc_opt Tenant.default st.sessions with
  | Some s -> s
  | None -> invalid_arg "Recovery.session: no default tenant session"

let render (st : state) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "recovered: policy=%s seed=%d capacity=%s tenants=%d\n" st.policy
       st.seed
       (Vec.to_string st.capacity)
       (List.length st.sessions));
  Buffer.add_string buf
    (Printf.sprintf "events: %d from snapshot + %d from journal = %d total%s\n"
       st.from_snapshot st.from_journal
       (st.from_snapshot + st.from_journal)
       (if st.dropped_torn then " (dropped a torn final journal record)" else ""));
  List.iter
    (fun (tenant, session) ->
      Buffer.add_string buf
        (Printf.sprintf
           "tenant %s: clock=%g cost=%.4f bins_opened=%d max_open=%d active_items=%d\n"
           tenant (Session.now session)
           (Session.cost_so_far session)
           (Session.bins_opened session)
           (Session.max_open_bins session)
           (Session.active_items session));
      let open_bins = Session.open_bins session in
      Buffer.add_string buf (Printf.sprintf "  open bins (%d):\n" (List.length open_bins));
      List.iter
        (fun (b : Bin.t) ->
          Buffer.add_string buf
            (Printf.sprintf "    bin %d load=%s items=[%s]\n" b.Bin.id
               (Vec.to_string b.Bin.load)
               (String.concat ","
                  (List.map (fun (r : Item.t) -> r.Item.id) b.Bin.active_items
                  |> List.sort Int.compare |> List.map string_of_int))))
        open_bins)
    st.sessions;
  Buffer.contents buf
