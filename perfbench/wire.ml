(* Request/reply streams and the two load generators. Both generators run
   in the calling thread and select(2) over at most two connections;
   replies are compared byte for byte against expected text that was
   built before the clock started. *)

type check =
  | Exact  (** the reply must equal the expected line *)
  | Stats  (** any [STATS ...] line *)
  | Metrics  (** a multi-line reply ending in [# EOF] *)

type stream = {
  n : int;
  req : string;  (* request lines, each newline-terminated *)
  req_end : int array;  (* offset one past request [i] *)
  exp : string;  (* expected replies of the [Exact] entries *)
  exp_start : int array;  (* reply [i] is [exp_start.(i) .. exp_start.(i+1) - 2] *)
  check : check array;
}

let stream entries =
  let n = List.length entries in
  let req = Buffer.create (n * 40) and exp = Buffer.create (n * 14) in
  let req_end = Array.make n 0 and exp_start = Array.make (n + 1) 0 in
  let check = Array.make n Exact in
  List.iteri
    (fun i (line, c, reply) ->
      Buffer.add_string req line;
      Buffer.add_char req '\n';
      req_end.(i) <- Buffer.length req;
      check.(i) <- c;
      exp_start.(i) <- Buffer.length exp;
      if c = Exact then begin
        Buffer.add_string exp reply;
        Buffer.add_char exp '\n'
      end)
    entries;
  exp_start.(n) <- Buffer.length exp;
  { n; req = Buffer.contents req; req_end; exp = Buffer.contents exp; exp_start; check }

let of_pairs pairs = stream (List.map (fun (line, reply) -> (line, Exact, reply)) pairs)

(* The same stream with one byte of the first expected reply altered: the
   self-test proves that such a divergence is counted as a failure. *)
let corrupt s =
  let b = Bytes.of_string s.exp in
  Bytes.set b 0 (if Bytes.get b 0 = 'X' then 'Y' else 'X');
  { s with exp = Bytes.to_string b }

type conn = {
  fd : Unix.file_descr;
  s : stream;
  mutable wpos : int;  (* request bytes written *)
  mutable target : int;  (* requests released for writing *)
  mutable sent : int;  (* requests fully written *)
  mutable acked : int;  (* entries answered *)
  carry : Bytes.t;  (* the partial reply line read so far *)
  mutable clen : int;
  mutable failed : int;
  sent_at : float array;  (* when request [i] was fully written *)
}

let conn fd s =
  Unix.set_nonblock fd;
  {
    fd;
    s;
    wpos = 0;
    target = 0;
    sent = 0;
    acked = 0;
    carry = Bytes.create 65536;
    clen = 0;
    failed = 0;
    sent_at = Array.make s.n 0.0;
  }

let finished c = c.acked >= c.s.n
let wlimit c = if c.target = 0 then 0 else c.s.req_end.(c.target - 1)
let wants_write c = c.wpos < wlimit c

(* One write(2) of the released request bytes; the number of requests it
   completed. *)
let send c =
  let limit = wlimit c in
  if c.wpos >= limit then 0
  else
    match Unix.single_write_substring c.fd c.s.req c.wpos (limit - c.wpos) with
    | k ->
        let now = Unix.gettimeofday () in
        c.wpos <- c.wpos + k;
        let before = c.sent in
        while c.sent < c.target && c.s.req_end.(c.sent) <= c.wpos do
          c.sent_at.(c.sent) <- now;
          c.sent <- c.sent + 1
        done;
        c.sent - before
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0

(* The line being checked is [carry.(0 .. clen-1)] then [chunk.(s .. e-1)]. *)
let line_is c chunk s e str off len ~prefix =
  let total = c.clen + (e - s) in
  (if prefix then total >= len else total = len)
  &&
  let ok = ref true and k = ref 0 in
  while !ok && !k < len do
    let ch =
      if !k < c.clen then Bytes.unsafe_get c.carry !k
      else Bytes.unsafe_get chunk (s + !k - c.clen)
    in
    if ch <> String.unsafe_get str (off + !k) then ok := false;
    incr k
  done;
  !ok

(* One complete reply line, checked against entry [acked]; [on_reply i]
   runs once for every answered [Exact] entry. *)
let on_line c chunk s e on_reply =
  let i = c.acked in
  if i >= c.s.n then c.failed <- c.failed + 1
  else
    match c.s.check.(i) with
    | Exact ->
        let off = c.s.exp_start.(i) in
        let len = c.s.exp_start.(i + 1) - off - 1 in
        if not (line_is c chunk s e c.s.exp off len ~prefix:false) then c.failed <- c.failed + 1;
        on_reply i;
        c.acked <- i + 1
    | Stats ->
        if not (line_is c chunk s e "STATS " 0 6 ~prefix:true) then c.failed <- c.failed + 1;
        c.acked <- i + 1
    | Metrics -> if line_is c chunk s e "# EOF" 0 5 ~prefix:false then c.acked <- i + 1

(* One read(2); false once the peer has gone. *)
let receive c chunk on_reply =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | len ->
      let start = ref 0 in
      for j = 0 to len - 1 do
        if Bytes.unsafe_get chunk j = '\n' then begin
          on_line c chunk !start j on_reply;
          c.clen <- 0;
          start := j + 1
        end
      done;
      let rest = len - !start in
      if c.clen + rest > Bytes.length c.carry then begin
        (* longer than any line the protocol sends *)
        c.failed <- c.failed + 1;
        c.clen <- 0
      end
      else begin
        Bytes.blit chunk !start c.carry c.clen rest;
        c.clen <- c.clen + rest
      end;
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
  | exception Unix.Unix_error _ -> false

type outcome = {
  entries : int;  (* requests in the stream *)
  replies : int;  (* entries answered *)
  failed : int;  (* wrong replies plus entries never answered *)
  started : float;  (* first write (closed loop) or first due time (open loop) *)
  last_reply : float;
  latency_us : float array;  (* one per answered [Exact] entry *)
  reply_at : float array;  (* when each of those replies was read *)
  lag_us : float array;  (* how late the generator wrote *)
}

let select rfds wfds timeout =
  match Unix.select rfds wfds [] timeout with
  | r, w, _ -> (r, w)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])

let outcome (conns : conn array) ~started ~last_reply lat at lag =
  {
    entries = Array.fold_left (fun acc (c : conn) -> acc + c.s.n) 0 conns;
    replies = Array.fold_left (fun acc (c : conn) -> acc + c.acked) 0 conns;
    failed = Array.fold_left (fun acc (c : conn) -> acc + c.failed + (c.s.n - c.acked)) 0 conns;
    started;
    last_reply;
    latency_us = Stats.Samples.to_array lat;
    reply_at = Stats.Samples.to_array at;
    lag_us = Stats.Samples.to_array lag;
  }

(* Closed loop: every connection keeps up to [window] requests in flight
   and tops the window up once [refill] of them are answered. Latency runs
   from the write that completed a request to the read that completed its
   reply; lag is how long after the read that made room the next write
   went out. A connection that makes no progress for [stall] seconds ends
   the loop, its unanswered requests counted as failed. *)
let closed ~window ~refill ~stall conns =
  let conns = Array.of_list conns in
  let chunk = Bytes.create 65536 in
  let lat = Stats.Samples.create () and at = Stats.Samples.create () in
  let lag = Stats.Samples.create () in
  let room_at = Array.make (Array.length conns) 0.0 in
  let started = ref Float.nan and last_reply = ref 0.0 in
  let top_up now =
    Array.iteri
      (fun k c ->
        if c.target < c.s.n && c.target - c.acked <= window - refill then begin
          c.target <- min c.s.n (c.acked + window);
          room_at.(k) <- now
        end)
      conns
  in
  let flush () =
    Array.iteri
      (fun k c ->
        if wants_write c && Span.record "loadgen.send" (fun () -> send c) > 0 then begin
          if Float.is_nan !started then started := c.sent_at.(c.sent - 1);
          if room_at.(k) > 0.0 then begin
            Stats.Samples.add lag ((c.sent_at.(c.sent - 1) -. room_at.(k)) *. 1e6);
            room_at.(k) <- 0.0
          end
        end)
      conns
  in
  let now = Unix.gettimeofday () in
  top_up now;
  flush ();
  let progress = ref now and lost = ref false in
  while (not !lost) && Array.exists (fun c -> not (finished c)) conns do
    let live = List.filter (fun c -> not (finished c)) (Array.to_list conns) in
    let readable, _ =
      select
        (List.map (fun c -> c.fd) live)
        (List.filter_map (fun c -> if wants_write c then Some c.fd else None) live)
        0.5
    in
    let now = Unix.gettimeofday () in
    Array.iter
      (fun c ->
        if List.memq c.fd readable then begin
          let before = c.acked in
          let alive =
            Span.record "loadgen.recv" (fun () ->
                receive c chunk (fun i ->
                    Stats.Samples.add lat ((now -. c.sent_at.(i)) *. 1e6);
                    Stats.Samples.add at now))
          in
          if c.acked > before then begin
            last_reply := now;
            progress := now
          end;
          if not alive then lost := true
        end)
      conns;
    top_up now;
    flush ();
    if now -. !progress > stall then lost := true
  done;
  outcome conns ~started:!started ~last_reply:!last_reply lat at lag

(* Open loop: entry [i] is due [due.(i)] seconds after the start and is
   written once due, whatever is still in flight. Latency runs from the
   due time to the read that completed the reply; lag is how late the
   write went out. *)
let paced ~due ~stall fd s =
  let c = conn fd s in
  let chunk = Bytes.create 65536 in
  let lat = Stats.Samples.create () and at = Stats.Samples.create () in
  let lag = Stats.Samples.create () in
  let start = Unix.gettimeofday () +. 0.002 in
  let last_reply = ref start and progress = ref start and lost = ref false in
  while (not !lost) && not (finished c) do
    let now = Unix.gettimeofday () in
    while c.target < s.n && start +. due.(c.target) <= now do
      c.target <- c.target + 1
    done;
    if wants_write c then begin
      let first = c.sent in
      let wrote = Span.record "loadgen.send" (fun () -> send c) in
      for i = first to first + wrote - 1 do
        Stats.Samples.add lag ((c.sent_at.(i) -. start -. due.(i)) *. 1e6)
      done
    end;
    let timeout =
      if wants_write c then 0.0005
      else if c.target < s.n then Float.max 0.0 (start +. due.(c.target) -. Unix.gettimeofday ())
      else 0.5
    in
    let readable, _ = select [ fd ] (if wants_write c then [ fd ] else []) timeout in
    let now = Unix.gettimeofday () in
    if readable <> [] then begin
      let before = c.acked in
      let alive =
        Span.record "loadgen.recv" (fun () ->
            receive c chunk (fun i ->
                Stats.Samples.add lat ((now -. start -. due.(i)) *. 1e6);
                Stats.Samples.add at now))
      in
      if c.acked > before then begin
        last_reply := now;
        progress := now
      end;
      if not alive then lost := true
    end;
    if c.sent = c.acked then progress := now
    else if now -. !progress > stall then lost := true
  done;
  outcome [| c |] ~started:start ~last_reply:!last_reply lat at lag

(* {1 Blocking control connection} *)

type ctl = { ic : in_channel; oc : out_channel }

let ctl fd = { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let scrape c =
  output_string c.oc "METRICS\n";
  flush c.oc;
  let buf = Buffer.create 8192 in
  let rec go () =
    match input_line c.ic with
    | "# EOF" -> Buffer.contents buf
    | line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        go ()
  in
  go ()

let close_ctl c = close_in_noerr c.ic

(* Connects to a starting server, retrying until it listens. *)
let connect ~pid ~deadline path =
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if not (Proc.running pid) then failwith "the server exited before it listened";
        if Unix.gettimeofday () > deadline then failwith "the server did not listen in time";
        Unix.sleepf 0.0001;
        go ()
  in
  go ()
