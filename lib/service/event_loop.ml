(* Each connection owns two growable byte buffers, so the steady state
   allocates only the request line strings handed to the server:
   - input: bytes [in_start, in_len) of [inb] are received but not yet
     split; [in_start, in_scan) is known to hold no newline, so a line
     arriving over many reads is scanned once, not once per read. A
     request line may be at most [Server.max_line] bytes, so the buffer
     never grows past [2 * Server.max_line];
   - output: replies are appended at [out_len] and written from
     [out_pos], resuming there after a partial write. *)

let max_line = Server.max_line

type conn = {
  fd : Unix.file_descr;
  mutable inb : Bytes.t;
  mutable in_start : int;
  mutable in_scan : int;
  mutable in_len : int;
  pending : string Queue.t;  (* complete lines not yet handled *)
  mutable outb : Bytes.t;
  mutable out_pos : int;
  mutable out_len : int;
  mutable closing : bool;  (* QUIT or EOF seen: drain out, then close *)
  mutable overlong : bool;  (* a line over [max_line]: answer ERR once pending drains *)
  mutable closed : bool;
}

let make_conn fd =
  Unix.set_nonblock fd;
  {
    fd;
    inb = Bytes.create 65536;
    in_start = 0;
    in_scan = 0;
    in_len = 0;
    pending = Queue.create ();
    outb = Bytes.create 4096;
    out_pos = 0;
    out_len = 0;
    closing = false;
    overlong = false;
    closed = false;
  }

let has_out c = c.out_pos < c.out_len

let close_conn c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())
  end

(* Free [need] bytes after the live bytes [pos, len) of [buf]: shift
   them to the front if the buffer then stays at most half full, else
   move them into a buffer at least twice as large. Either way each byte
   is copied O(1) times amortised. The live bytes start at 0 in the
   returned buffer. *)
let make_room ?(max_size = max_int) buf ~pos ~len need =
  let live = len - pos and cap = Bytes.length buf in
  let size = min max_size (max (live + need) (2 * cap)) in
  let dst = if 2 * (live + need) <= cap || size <= cap then buf else Bytes.create size in
  Bytes.blit buf pos dst 0 live;
  dst

(* the least free space a read is offered *)
let min_read = 4096

(* A line over [max_line] bytes: nothing more is read from this
   connection; the lines before it are still answered, then the ERR, then
   the connection closes once its replies are flushed. *)
let refuse_overlong c =
  c.overlong <- true;
  c.closing <- true;
  c.in_start <- 0;
  c.in_scan <- 0;
  c.in_len <- 0

(* queue every complete line in the unscanned input as a request *)
let split_lines c =
  let buf = c.inb and stop = c.in_len in
  let i = ref c.in_scan in
  while !i < stop && not c.overlong do
    if Bytes.unsafe_get buf !i = '\n' then
      if !i - c.in_start > max_line then refuse_overlong c
      else begin
        Queue.add (Bytes.sub_string buf c.in_start (!i - c.in_start)) c.pending;
        c.in_start <- !i + 1
      end;
    incr i
  done;
  if not c.overlong then
    if c.in_len - c.in_start > max_line then refuse_overlong c
    else begin
      if c.in_start = stop then begin
        c.in_start <- 0;
        c.in_len <- 0
      end;
      c.in_scan <- c.in_len
    end

(* read straight into the connection's buffer, after what is already
   there; a line longer than the buffer grows it, up to [2 * max_line] *)
let read_chunk c =
  if Bytes.length c.inb - c.in_len < min_read then begin
    c.inb <-
      make_room ~max_size:(2 * max_line) c.inb ~pos:c.in_start ~len:c.in_len min_read;
    c.in_len <- c.in_len - c.in_start;
    c.in_scan <- c.in_scan - c.in_start;
    c.in_start <- 0
  end;
  match Unix.read c.fd c.inb c.in_len (Bytes.length c.inb - c.in_len) with
  | 0 ->
      (* EOF: a trailing unterminated line still counts as a request, like
         the blocking loop's [input_line] *)
      if c.in_len > c.in_start && not c.overlong then begin
        Queue.add (Bytes.sub_string c.inb c.in_start (c.in_len - c.in_start)) c.pending;
        c.in_start <- 0;
        c.in_scan <- 0;
        c.in_len <- 0
      end;
      c.closing <- true
  | n ->
      c.in_len <- c.in_len + n;
      split_lines c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.closing <- true

let add_reply c reply =
  let len = String.length reply in
  if c.out_len + len + 1 > Bytes.length c.outb then begin
    c.outb <- make_room c.outb ~pos:c.out_pos ~len:c.out_len (len + 1);
    c.out_len <- c.out_len - c.out_pos;
    c.out_pos <- 0
  end;
  Bytes.blit_string reply 0 c.outb c.out_len len;
  Bytes.unsafe_set c.outb (c.out_len + len) '\n';
  c.out_len <- c.out_len + len + 1

let try_write c =
  if not c.closed then begin
    let len = c.out_len - c.out_pos in
    if len > 0 then
      match Unix.single_write c.fd c.outb c.out_pos len with
      | written ->
          c.out_pos <- c.out_pos + written;
          if c.out_pos = c.out_len then begin
            c.out_pos <- 0;
            c.out_len <- 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ ->
          (* peer vanished: drop the connection, keep serving the rest *)
          c.out_pos <- 0;
          c.out_len <- 0;
          c.closing <- true
  end;
  if c.closing && (not (has_out c)) && Queue.is_empty c.pending then close_conn c

let serve ?(max_batch = 16384) ?listen ?(conns = []) ?(stop_when_drained = true) server =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  (match listen with Some fd -> Unix.set_nonblock fd | None -> ());
  let live = ref (List.map make_conn conns) in
  let ever_connected = ref (conns <> []) in
  (* preallocated batch slots: lines and their owner's index into this
     round's live array — refilled every dispatch, never re-allocated *)
  let batch_lines = Array.make max_batch "" in
  let batch_owner = Array.make max_batch (-1) in
  let drain_round live_arr =
    (* round-robin across connections: preserves per-connection FIFO while
       interleaving tenants fairly into one batch *)
    let k = Array.length live_arr in
    let batched = ref 0 in
    let progressed = ref true in
    while !progressed && !batched < max_batch do
      progressed := false;
      for i = 0 to k - 1 do
        let c = live_arr.(i) in
        if (not c.closed) && !batched < max_batch && not (Queue.is_empty c.pending)
        then begin
          batch_lines.(!batched) <- Queue.pop c.pending;
          batch_owner.(!batched) <- i;
          incr batched;
          progressed := true
        end
      done
    done;
    !batched
  in
  let dispatch live_arr n =
    if n > 0 then begin
      let replies = Server.handle_batch server (Array.sub batch_lines 0 n) in
      Array.iteri
        (fun i (reply, quit) ->
          let c = live_arr.(batch_owner.(i)) in
          if not c.closed then begin
            add_reply c reply;
            if quit then c.closing <- true
          end)
        replies;
      (* drop the slot references so handled request lines can be GC'd *)
      Array.fill batch_lines 0 n ""
    end
  in
  let rec loop () =
    live := List.filter (fun c -> not c.closed) !live;
    let drained = !live = [] && listen = None in
    if not (stop_when_drained && !ever_connected && drained) then begin
      let read_fds =
        (match listen with Some fd -> [ fd ] | None -> [])
        @ List.filter_map
            (fun c -> if c.closing || c.closed then None else Some c.fd)
            !live
      in
      let write_fds =
        List.filter_map
          (fun c -> if (not c.closed) && has_out c then Some c.fd else None)
          !live
      in
      let have_pending =
        List.exists (fun c -> not (Queue.is_empty c.pending)) !live
      in
      if read_fds = [] && write_fds = [] && not have_pending then
        (* nothing left to wait on and told to keep going: all conns are
           gone and there is no listener — without a wake-up source this
           would spin, so stop *)
        ()
      else begin
        let timeout =
          (* compaction in flight: poll so its bounded steps keep running
             between batches instead of stalling until the next request *)
          if have_pending || Server.compaction_pending server then 0.0 else -1.0
        in
        let readable, writable, _ =
          match Unix.select read_fds write_fds [] timeout with
          | r -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        (match listen with
        | Some lfd when List.memq lfd readable -> (
            match Unix.accept ~cloexec:true lfd with
            | fd, _ ->
                ever_connected := true;
                live := !live @ [ make_conn fd ]
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
              -> ())
        | _ -> ());
        List.iter
          (fun c -> if List.memq c.fd readable then read_chunk c)
          !live;
        let live_arr = Array.of_list !live in
        dispatch live_arr (drain_round live_arr);
        List.iter
          (fun c ->
            if c.overlong && Queue.is_empty c.pending && not c.closed then begin
              add_reply c Server.overlong_reply;
              c.overlong <- false
            end)
          !live;
        List.iter
          (fun c ->
            if List.memq c.fd writable || has_out c || c.closing then try_write c)
          !live;
        (* one bounded unit of compaction per tick, after replies are
           staged — group-commit acks never wait on a retire *)
        Server.compaction_step server;
        loop ()
      end
    end
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_conn !live;
      Server.close server)
    loop

let input_capacity c = Bytes.length c.inb
let refused c = c.overlong
