type value =
  | V_counter of int ref
  | V_counter_fn of (unit -> int)
  | V_gauge of float ref
  | V_gauge_fn of (unit -> float)
  | V_histo of Histogram.t

type metric = {
  m_name : string;
  m_labels : (string * string) list;
  m_help : string;
  m_value : value;
}

type span = { sp_name : string; sp_start : float; sp_dur : float }

let span_capacity = 64

type t = {
  nop : bool;
  clock : unit -> float;
  mutable metrics : metric list; (* reverse registration order *)
  keys : (string * (string * string) list, unit) Hashtbl.t; (* the metrics' (name, labels) *)
  spans : span option array;
  mutable span_total : int;
}

let create ?(clock = Sys.time) () =
  {
    nop = false;
    clock;
    metrics = [];
    keys = Hashtbl.create 64;
    spans = Array.make span_capacity None;
    span_total = 0;
  }

let noop () =
  {
    nop = true;
    clock = (fun () -> 0.0);
    metrics = [];
    keys = Hashtbl.create 1;
    spans = [||];
    span_total = 0;
  }

let is_noop t = t.nop
let now t = if t.nop then 0.0 else t.clock ()

let valid_name s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let register t ~help ~labels name v =
  if not t.nop then begin
    if not (valid_name name) then invalid_arg ("Registry: invalid metric name " ^ name);
    if Hashtbl.mem t.keys (name, labels) then
      invalid_arg ("Registry: duplicate metric " ^ name);
    Hashtbl.add t.keys (name, labels) ();
    t.metrics <- { m_name = name; m_labels = labels; m_help = help; m_value = v } :: t.metrics
  end

module Counter = struct
  type registry = t
  type t = int ref

  let make (r : registry) ?(help = "") ?(labels = []) name =
    let c = ref 0 in
    register r ~help ~labels name (V_counter c);
    c

  let pull (r : registry) ?(help = "") ?(labels = []) name f =
    register r ~help ~labels name (V_counter_fn f)

  let incr c = incr c
  let add c n = c := !c + n
  let value c = !c
end

module Gauge = struct
  type registry = t
  type t = float ref

  let make (r : registry) ?(help = "") ?(labels = []) name =
    let g = ref 0.0 in
    register r ~help ~labels name (V_gauge g);
    g

  let pull (r : registry) ?(help = "") ?(labels = []) name f =
    register r ~help ~labels name (V_gauge_fn f)

  let set g v = g := v
  let add g v = g := !g +. v
  let value g = !g
end

module Histo = struct
  type registry = t
  type t = Histogram.t

  let make (r : registry) ?(help = "") ?(labels = []) name =
    let h = Histogram.create () in
    register r ~help ~labels name (V_histo h);
    h

  let observe = Histogram.observe
  let snapshot = Histogram.snapshot
end

module Span = struct
  type registry = t
  type nonrec span = span = { sp_name : string; sp_start : float; sp_dur : float }

  let capacity = span_capacity
  let enter (r : registry) _name = now r

  let exit (r : registry) name start =
    if not r.nop then begin
      let dur = r.clock () -. start in
      r.spans.(r.span_total mod span_capacity) <-
        Some { sp_name = name; sp_start = start; sp_dur = dur };
      r.span_total <- r.span_total + 1
    end

  let recent (r : registry) =
    if r.nop then []
    else begin
      let n = min r.span_total span_capacity in
      let first = r.span_total - n in
      let out = ref [] in
      for i = n - 1 downto 0 do
        match r.spans.((first + i) mod span_capacity) with
        | Some s -> out := s :: !out
        | None -> ()
      done;
      !out
    end
end

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)
      ^ "}"

let fmt_float v = Printf.sprintf "%.12g" v

let type_of_value = function
  | V_counter _ | V_counter_fn _ -> "counter"
  | V_gauge _ | V_gauge_fn _ -> "gauge"
  | V_histo _ -> "summary"

let render ?(spans = false) t =
  if t.nop then ""
  else begin
    let buf = Buffer.create 4096 in
    let last_name = ref "" in
    let emit_header m =
      if m.m_name <> !last_name then begin
        if m.m_help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" m.m_name m.m_help);
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" m.m_name (type_of_value m.m_value));
        last_name := m.m_name
      end
    in
    List.iter
      (fun m ->
        emit_header m;
        let labels = render_labels m.m_labels in
        match m.m_value with
        | V_counter c -> Buffer.add_string buf (Printf.sprintf "%s%s %d\n" m.m_name labels !c)
        | V_counter_fn f -> Buffer.add_string buf (Printf.sprintf "%s%s %d\n" m.m_name labels (f ()))
        | V_gauge g ->
            Buffer.add_string buf (Printf.sprintf "%s%s %s\n" m.m_name labels (fmt_float !g))
        | V_gauge_fn f ->
            Buffer.add_string buf (Printf.sprintf "%s%s %s\n" m.m_name labels (fmt_float (f ())))
        | V_histo h ->
            let s = Histogram.snapshot h in
            let qlabels q = render_labels (m.m_labels @ [ ("quantile", q) ]) in
            if s.Histogram.n > 0 then begin
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" m.m_name (qlabels "0.5") (fmt_float s.Histogram.p50));
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" m.m_name (qlabels "0.9") (fmt_float s.Histogram.p90));
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" m.m_name (qlabels "0.99") (fmt_float s.Histogram.p99));
              Buffer.add_string buf
                (Printf.sprintf "%s_max%s %s\n" m.m_name labels (fmt_float s.Histogram.max_v))
            end;
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" m.m_name labels s.Histogram.n);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" m.m_name labels (fmt_float s.Histogram.total)))
      (List.rev t.metrics);
    if spans then
      List.iter
        (fun (s : span) ->
          Buffer.add_string buf
            (Printf.sprintf "# span name=%s start=%.6f dur=%.6f\n" s.sp_name s.sp_start s.sp_dur))
        (Span.recent t);
    Buffer.contents buf
  end
