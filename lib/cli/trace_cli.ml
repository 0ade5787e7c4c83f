module T = Dvbp_tracestore
module W = Dvbp_workload
module Registry = Dvbp_obs.Registry
module Session = Dvbp_engine.Session
module Policy = Dvbp_core.Policy
module Rng = Dvbp_prelude.Rng

let ( let* ) = Result.bind

type compile_opts = {
  co_source : Workload_select.source;
  co_out : string;
  co_block_size : int option;
  co_shards : int;
}

exception Shard_failed of string

(* [shards = 1] is the plain path; above that, shard [k] regenerates the
   model with [seed + k] and the compiler chains the instances end to end
   (time-shifted, ids offset) — compile memory stays O(one shard) however
   long the output trace is. *)
let compile (o : compile_opts) =
  if o.co_shards <= 0 then Error "--shards must be positive"
  else
    let gen k =
      match
        Workload_select.build
          { o.co_source with Workload_select.seed = o.co_source.Workload_select.seed + k }
      with
      | Ok inst -> inst
      | Error e -> raise (Shard_failed e)
    in
    let* summary =
      match
        if o.co_shards = 1 then
          let* inst = Workload_select.build o.co_source in
          T.Compile.of_instance ~path:o.co_out ?block_size:o.co_block_size inst
        else
          T.Compile.sharded ~path:o.co_out ?block_size:o.co_block_size
            ~shards:o.co_shards ~gen ()
      with
      | r -> r
      | exception Shard_failed e -> Error e
    in
    Ok
      (Printf.sprintf
         "compiled %s: %d events in %d blocks, t in [%g, %g], %d bytes\n"
         o.co_out summary.T.Trace_writer.events summary.T.Trace_writer.blocks
         summary.T.Trace_writer.t_min summary.T.Trace_writer.t_max
         summary.T.Trace_writer.file_bytes)

let info path =
  T.Trace_reader.with_file path @@ fun r ->
  let h = T.Trace_reader.header r in
  let capacity =
    String.concat ","
      (List.map string_of_int
         (Array.to_list (Dvbp_vec.Vec.to_array h.T.Binfmt.capacity)))
  in
  Ok
    (Dvbp_report.Table.render
       ~header:[ "field"; "value" ]
       ~rows:
         [
           [ "format"; Printf.sprintf "%s v%d" T.Binfmt.header_magic T.Binfmt.version ];
           [ "dimensions"; string_of_int h.T.Binfmt.d ];
           [ "capacity"; capacity ];
           [ "events"; string_of_int h.T.Binfmt.events ];
           [ "blocks"; string_of_int (T.Trace_reader.blocks r) ];
           [ "block size (records)"; string_of_int h.T.Binfmt.block_size ];
           [ "record width (bytes)"; string_of_int (T.Binfmt.record_width ~d:h.T.Binfmt.d) ];
           [ "time span"; Printf.sprintf "[%g, %g]" h.T.Binfmt.t_min h.T.Binfmt.t_max ];
           [
             "reader resident window";
             Printf.sprintf "%d bytes" (T.Trace_reader.resident_bytes_max r);
           ];
         ])

let verify path =
  T.Trace_reader.with_file path @@ fun r ->
  let* events = T.Trace_reader.verify r in
  Ok
    (Printf.sprintf "%s: ok — %d events in %d blocks, every CRC and the sort \
                     order check out\n"
       path events (T.Trace_reader.blocks r))

(* Stream the trace through an engine session (no server in the way) and
   report replay throughput — the single-process half of what
   [loadgen --trace] measures end to end. *)
let replay ~policy ~seed path =
  T.Trace_reader.with_file path @@ fun r ->
  let h = T.Trace_reader.header r in
  let* p = Policy.of_name ~rng:(Rng.create ~seed) policy in
  let session =
    Session.create ~record_trace:false ~history:true ~capacity:h.T.Binfmt.capacity ~policy:p ()
  in
  let registry = Registry.create () in
  let probe = T.Replay.probe ~registry () in
  let* stats = T.Replay.into_session ~probe ~clock:Unix.gettimeofday r session in
  let packing = Session.finish session ~at:(Session.now session) in
  Ok
    (Printf.sprintf
       "replayed %d events (%d arrivals) in %.3f s -> %.0f events/s\n\
        %d blocks, resident window <= %d bytes\n\
        policy %s: cost %.4f, %d bins opened, peak %d open\n"
       stats.T.Replay.events stats.T.Replay.arrivals stats.T.Replay.wall_seconds
       stats.T.Replay.events_per_sec stats.T.Replay.blocks
       stats.T.Replay.resident_bytes_max policy
       (Dvbp_core.Packing.cost packing)
       (Session.bins_opened session)
       (Session.max_open_bins session))
