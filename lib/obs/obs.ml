module Clock = Ffc_util.Clock
module Json = Ffc_util.Json

(* ------------------------------------------------------------------ *)
(* Enablement                                                          *)
(* ------------------------------------------------------------------ *)

let metrics_on = Atomic.make false
let tracing_on = Atomic.make false

let enable ?(tracing = true) () =
  Atomic.set metrics_on true;
  if tracing then Atomic.set tracing_on true

let disable () =
  Atomic.set metrics_on false;
  Atomic.set tracing_on false

let enabled () = Atomic.get metrics_on
let tracing_enabled () = Atomic.get tracing_on

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type kind = Counter | Gauge | Histogram

type metric = { id : int; mname : string; kind : kind }

let reg_mutex = Mutex.create ()
let registered : metric list ref = ref [] (* newest first *)
let n_metrics = ref 0

let register kind name =
  Mutex.lock reg_mutex;
  let m =
    match List.find_opt (fun m -> m.mname = name) !registered with
    | Some m ->
      if m.kind <> kind then begin
        Mutex.unlock reg_mutex;
        invalid_arg (Printf.sprintf "Obs: metric %S re-registered with a different kind" name)
      end;
      m
    | None ->
      let m = { id = !n_metrics; mname = name; kind } in
      incr n_metrics;
      registered := m :: !registered;
      m
  in
  Mutex.unlock reg_mutex;
  m

let counter name = register Counter name
let gauge name = register Gauge name
let histogram name = register Histogram name

(* ------------------------------------------------------------------ *)
(* Histogram buckets                                                   *)
(* ------------------------------------------------------------------ *)

let hist_n_buckets = 64
let hist_lo = 1e-6

(* Bucket 0 holds samples <= hist_lo; bucket i (i > 0) holds samples in
   (hist_lo * 2^(i-1), hist_lo * 2^i]; the last bucket absorbs overflow.
   Base-2 buckets over [1e-6, ~9e12] cover nanoseconds to hours when the
   unit is milliseconds, at <= 2x relative error — plenty for latency
   profiles. *)
let bucket_of v =
  if not (v > hist_lo) then 0
  else begin
    let i = int_of_float (Float.ceil (Float.log2 (v /. hist_lo))) in
    if i >= hist_n_buckets then hist_n_buckets - 1 else if i < 1 then 1 else i
  end

let bucket_upper i =
  if i >= hist_n_buckets - 1 then infinity else hist_lo *. Float.pow 2. (float_of_int i)

module Hist = struct
  type t = {
    buckets : float array;
    count : float;
    sum : float;
    hmin : float;
    hmax : float;
  }

  let n_buckets = hist_n_buckets

  let empty =
    {
      buckets = Array.make hist_n_buckets 0.;
      count = 0.;
      sum = 0.;
      hmin = infinity;
      hmax = neg_infinity;
    }

  let merge a b =
    {
      buckets = Array.init hist_n_buckets (fun i -> a.buckets.(i) +. b.buckets.(i));
      count = a.count +. b.count;
      sum = a.sum +. b.sum;
      hmin = Float.min a.hmin b.hmin;
      hmax = Float.max a.hmax b.hmax;
    }

  let bucket_of = bucket_of
  let bucket_upper = bucket_upper
end

(* ------------------------------------------------------------------ *)
(* Per-domain metric shards                                            *)
(* ------------------------------------------------------------------ *)

(* Each domain records into its own shard — plain unsynchronised stores, no
   contention when Pool fans rungs or fuzz chunks across domains. Shards
   self-register in a global list at creation (rare: once per domain) and
   are merged under the same lock on read. Counter/histogram merging is
   pure summation of integral counts, so the merged totals are independent
   of how work was sharded — j=1 and j=4 campaigns that perform the same
   recordings report identical counters. Gauges are last-write-wins,
   ordered by a global sequence number. *)
type shard = {
  s_dom : int;
  mutable values : float array;
  mutable gseq : int array;
  mutable hbuckets : float array array;
  mutable hcount : float array;
  mutable hsum : float array;
  mutable hmin : float array;
  mutable hmax : float array;
}

let shards_mutex = Mutex.create ()
let shards : shard list ref = ref []
let gauge_clock = Atomic.make 0

let new_shard () =
  let n = max 8 !n_metrics in
  let s =
    {
      s_dom = (Domain.self () :> int);
      values = Array.make n 0.;
      gseq = Array.make n 0;
      hbuckets = Array.make n [||];
      hcount = Array.make n 0.;
      hsum = Array.make n 0.;
      hmin = Array.make n infinity;
      hmax = Array.make n neg_infinity;
    }
  in
  Mutex.lock shards_mutex;
  shards := s :: !shards;
  Mutex.unlock shards_mutex;
  s

let shard_key = Domain.DLS.new_key new_shard

let grow s want =
  let n = Array.length s.values in
  let n' = max want (2 * n) in
  let ext len init a =
    let b = Array.make len init in
    Array.blit a 0 b 0 n;
    b
  in
  s.values <- ext n' 0. s.values;
  s.gseq <- ext n' 0 s.gseq;
  s.hbuckets <- ext n' [||] s.hbuckets;
  s.hcount <- ext n' 0. s.hcount;
  s.hsum <- ext n' 0. s.hsum;
  s.hmin <- ext n' infinity s.hmin;
  s.hmax <- ext n' neg_infinity s.hmax

let[@inline] shard_for id =
  let s = Domain.DLS.get shard_key in
  if id >= Array.length s.values then grow s (id + 1);
  s

let add m by =
  if Atomic.get metrics_on then begin
    let s = shard_for m.id in
    s.values.(m.id) <- s.values.(m.id) +. by
  end

let incr m =
  if Atomic.get metrics_on then begin
    let s = shard_for m.id in
    s.values.(m.id) <- s.values.(m.id) +. 1.
  end

let set m v =
  if Atomic.get metrics_on then begin
    let s = shard_for m.id in
    s.values.(m.id) <- v;
    s.gseq.(m.id) <- 1 + Atomic.fetch_and_add gauge_clock 1
  end

let observe m v =
  if Atomic.get metrics_on then begin
    let s = shard_for m.id in
    let b =
      let b = s.hbuckets.(m.id) in
      if Array.length b > 0 then b
      else begin
        let b = Array.make hist_n_buckets 0. in
        s.hbuckets.(m.id) <- b;
        b
      end
    in
    let i = bucket_of v in
    b.(i) <- b.(i) +. 1.;
    s.hcount.(m.id) <- s.hcount.(m.id) +. 1.;
    s.hsum.(m.id) <- s.hsum.(m.id) +. v;
    if v < s.hmin.(m.id) then s.hmin.(m.id) <- v;
    if v > s.hmax.(m.id) then s.hmax.(m.id) <- v
  end

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

type value = Counter_v of float | Gauge_v of float | Hist_v of Hist.t

let snapshot () =
  Mutex.lock reg_mutex;
  let metrics = List.rev !registered in
  Mutex.unlock reg_mutex;
  Mutex.lock shards_mutex;
  (* Domain-id order makes the merge deterministic for a given recording. *)
  let shs = List.sort (fun a b -> compare a.s_dom b.s_dom) !shards in
  let read m =
    match m.kind with
    | Counter ->
      Counter_v
        (List.fold_left
           (fun acc s ->
             if m.id < Array.length s.values then acc +. s.values.(m.id) else acc)
           0. shs)
    | Gauge ->
      let v = ref 0. and seq = ref 0 in
      List.iter
        (fun s ->
          if m.id < Array.length s.values && s.gseq.(m.id) > !seq then begin
            seq := s.gseq.(m.id);
            v := s.values.(m.id)
          end)
        shs;
      Gauge_v !v
    | Histogram ->
      Hist_v
        (List.fold_left
           (fun acc s ->
             if m.id < Array.length s.values && s.hcount.(m.id) > 0. then
               Hist.merge acc
                 {
                   Hist.buckets =
                     (if Array.length s.hbuckets.(m.id) > 0 then s.hbuckets.(m.id)
                      else Hist.empty.Hist.buckets);
                   count = s.hcount.(m.id);
                   sum = s.hsum.(m.id);
                   hmin = s.hmin.(m.id);
                   hmax = s.hmax.(m.id);
                 }
             else acc)
           Hist.empty shs)
  in
  let out = List.map (fun m -> (m.mname, read m)) metrics in
  Mutex.unlock shards_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) out

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span_slot = {
  mutable sl_name : string;
  mutable sl_start : float;
  mutable sl_dur : float;
  mutable sl_depth : int;
}

type ring = {
  r_dom : int;
  entries : span_slot array;
  mutable head : int;
  mutable written : int;
  mutable depth : int;
}

let ring_capacity = ref 32768
let set_ring_capacity n = ring_capacity := max 16 n
let rings_mutex = Mutex.create ()
let rings : ring list ref = ref []

let new_ring () =
  let cap = !ring_capacity in
  let entries =
    Array.init cap (fun _ -> { sl_name = ""; sl_start = 0.; sl_dur = 0.; sl_depth = 0 })
  in
  let r =
    { r_dom = (Domain.self () :> int); entries; head = 0; written = 0; depth = 0 }
  in
  Mutex.lock rings_mutex;
  rings := r :: !rings;
  Mutex.unlock rings_mutex;
  r

let ring_key = Domain.DLS.new_key new_ring

let record_span r name t0 =
  r.depth <- r.depth - 1;
  let e = r.entries.(r.head) in
  e.sl_name <- name;
  e.sl_start <- t0;
  e.sl_dur <- Clock.now_ms () -. t0;
  e.sl_depth <- r.depth;
  r.head <- (r.head + 1) mod Array.length r.entries;
  r.written <- r.written + 1

(* Record an already-timed leaf span without the closure of [with_span]:
   the FTRAN/BTRAN inner loops time themselves anyway (the solver
   accumulates ftran_ms), so they hand the measurement over directly. *)
let span_event name ~start_ms ~dur_ms =
  if Atomic.get tracing_on then begin
    let r = Domain.DLS.get ring_key in
    let e = r.entries.(r.head) in
    e.sl_name <- name;
    e.sl_start <- start_ms;
    e.sl_dur <- dur_ms;
    e.sl_depth <- r.depth;
    r.head <- (r.head + 1) mod Array.length r.entries;
    r.written <- r.written + 1
  end

let with_span name f =
  if not (Atomic.get tracing_on) then f ()
  else begin
    let r = Domain.DLS.get ring_key in
    let t0 = Clock.now_ms () in
    r.depth <- r.depth + 1;
    match f () with
    | x ->
      record_span r name t0;
      x
    | exception e ->
      record_span r name t0;
      raise e
  end

type span_view = {
  name : string;
  dom : int;
  start_ms : float;
  dur_ms : float;
  depth : int;
}

let spans () =
  Mutex.lock rings_mutex;
  let rs = List.sort (fun a b -> compare a.r_dom b.r_dom) !rings in
  let out =
    List.concat_map
      (fun r ->
        let cap = Array.length r.entries in
        let kept = min r.written cap in
        (* Oldest retained entry first. *)
        let first = (r.head - kept + cap) mod cap in
        List.init kept (fun k ->
            let e = r.entries.((first + k) mod cap) in
            {
              name = e.sl_name;
              dom = r.r_dom;
              start_ms = e.sl_start;
              dur_ms = e.sl_dur;
              depth = e.sl_depth;
            }))
      rs
  in
  Mutex.unlock rings_mutex;
  out

let dropped_spans () =
  Mutex.lock rings_mutex;
  let n =
    List.fold_left (fun acc r -> acc + max 0 (r.written - Array.length r.entries)) 0 !rings
  in
  Mutex.unlock rings_mutex;
  n

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type level = Debug | Info | Warn | Error

type field = Str of string | Float of float | Int of int | Bool of bool

type event_view = {
  ev_level : level;
  ev_name : string;
  ev_fields : (string * field) list;
  ev_ms : float;
}

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

let events_mutex = Mutex.create ()
let event_log : event_view list ref = ref [] (* newest first *)
let n_events = ref 0
let max_events = 4096
let stderr_level = ref (Some Warn)
let set_stderr_level l = stderr_level := l

let field_text = function
  | Str s -> s
  | Float f -> Printf.sprintf "%g" f
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b

let event ?(level = Info) name fields =
  let ev = { ev_level = level; ev_name = name; ev_fields = fields; ev_ms = Clock.now_ms () } in
  (match !stderr_level with
  | Some l when level_rank level >= level_rank l ->
    let kv = List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (field_text v)) fields in
    Printf.eprintf "[%s] %s%s\n%!" (level_name level) name (String.concat "" kv)
  | _ -> ());
  Mutex.lock events_mutex;
  if !n_events < max_events then begin
    event_log := ev :: !event_log;
    n_events := !n_events + 1
  end;
  Mutex.unlock events_mutex

let events () =
  Mutex.lock events_mutex;
  let evs = List.rev !event_log in
  Mutex.unlock events_mutex;
  evs

(* ------------------------------------------------------------------ *)
(* Reset                                                               *)
(* ------------------------------------------------------------------ *)

let reset () =
  Mutex.lock shards_mutex;
  List.iter
    (fun s ->
      Array.fill s.values 0 (Array.length s.values) 0.;
      Array.fill s.gseq 0 (Array.length s.gseq) 0;
      Array.iteri (fun i b -> if Array.length b > 0 then s.hbuckets.(i) <- [||]) s.hbuckets;
      Array.fill s.hcount 0 (Array.length s.hcount) 0.;
      Array.fill s.hsum 0 (Array.length s.hsum) 0.;
      Array.fill s.hmin 0 (Array.length s.hmin) infinity;
      Array.fill s.hmax 0 (Array.length s.hmax) neg_infinity)
    !shards;
  Mutex.unlock shards_mutex;
  Atomic.set gauge_clock 0;
  Mutex.lock rings_mutex;
  List.iter
    (fun r ->
      r.head <- 0;
      r.written <- 0)
    !rings;
  Mutex.unlock rings_mutex;
  Mutex.lock events_mutex;
  event_log := [];
  n_events := 0;
  Mutex.unlock events_mutex

(* ------------------------------------------------------------------ *)
(* Export: JSON metrics snapshot                                       *)
(* ------------------------------------------------------------------ *)

let metrics_json () =
  let metric = function
    | Counter_v x -> Json.Obj [ ("type", String "counter"); ("value", Float x) ]
    | Gauge_v x -> Json.Obj [ ("type", String "gauge"); ("value", Float x) ]
    | Hist_v h ->
      let bucket i c =
        let le = bucket_upper i in
        let le = if Float.is_finite le then Json.Float le else String "+Inf" in
        if c > 0. then Some (Json.Obj [ ("le", le); ("count", Float c) ]) else None
      in
      let buckets = List.filter_map Fun.id (List.mapi bucket (Array.to_list h.Hist.buckets)) in
      (* An empty histogram's infinite min/max print as null. *)
      Json.Obj
        [
          ("type", String "histogram"); ("count", Float h.Hist.count); ("sum", Float h.Hist.sum);
          ("min", Float h.Hist.hmin); ("max", Float h.Hist.hmax); ("buckets", List buckets);
        ]
  in
  let field = function
    | Str s -> Json.String s
    | Float f -> Json.Float f
    | Int i -> Json.Int i
    | Bool b -> Json.Bool b
  in
  let event ev =
    Json.Obj
      [
        ("level", String (level_name ev.ev_level)); ("name", String ev.ev_name);
        ("ts_ms", Float ev.ev_ms);
        ("fields", Obj (List.map (fun (k, v) -> (k, field v)) ev.ev_fields));
      ]
  in
  Json.to_string_indented
    (Json.Obj
       [
         ("metrics", Obj (List.map (fun (name, v) -> (name, metric v)) (snapshot ())));
         ("events", List (List.map event (events ())));
         ("dropped_spans", Int (dropped_spans ()));
       ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Export: Prometheus text format                                      *)
(* ------------------------------------------------------------------ *)

let prom_name name =
  let b = Buffer.create (String.length name + 4) in
  Buffer.add_string b "ffc_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" f

let metrics_prometheus () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let p = prom_name name in
      match v with
      | Counter_v x ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %s\n" p p (prom_float x))
      | Gauge_v x ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %s\n" p p (prom_float x))
      | Hist_v h ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" p);
        let cum = ref 0. in
        Array.iteri
          (fun i c ->
            cum := !cum +. c;
            (* Only emit buckets that change the cumulative count, plus +Inf. *)
            if c > 0. then
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%s\"} %s\n" p (prom_float (bucket_upper i))
                   (prom_float !cum)))
          h.Hist.buckets;
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %s\n" p (prom_float h.Hist.count));
        Buffer.add_string b (Printf.sprintf "%s_sum %s\n" p (prom_float h.Hist.sum));
        Buffer.add_string b (Printf.sprintf "%s_count %s\n" p (prom_float h.Hist.count)))
    (snapshot ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Export: Chrome trace_event JSON                                     *)
(* ------------------------------------------------------------------ *)

let trace_json () =
  let event s =
    Json.Obj
      [
        ("name", String s.name); ("cat", String "ffc"); ("ph", String "X");
        ("ts", Float (s.start_ms *. 1000.)); ("dur", Float (s.dur_ms *. 1000.)); ("pid", Int 1);
        ("tid", Int s.dom);
      ]
  in
  let events = Json.List (List.map event (spans ())) in
  Json.to_string_indented (Obj [ ("displayTimeUnit", String "ms"); ("traceEvents", events) ]) ^ "\n"

(* ------------------------------------------------------------------ *)
(* File output                                                         *)
(* ------------------------------------------------------------------ *)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let is_prom_path path =
  Filename.check_suffix path ".prom" || Filename.check_suffix path ".txt"

let write_metrics path =
  if is_prom_path path then write_file path (metrics_prometheus ())
  else begin
    write_file path (metrics_json ());
    write_file (path ^ ".prom") (metrics_prometheus ())
  end

let write_trace path = write_file path (trace_json ())
