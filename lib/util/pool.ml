(* Fixed-size domain pool with order-preserving fan-out.

   The pool owns [min jobs (recommended_jobs ()) - 1] worker domains; the
   caller's domain is the remaining worker, so [map] runs at most one
   evaluation per core however wide the pool was asked to be, and a
   1-sized pool never spawns a domain at all. Work distribution is a
   shared atomic index over the input array, so scheduling is dynamic, but
   results land at their input index and exceptions are re-raised for the
   lowest failing index — the observable behaviour of [map] is exactly
   that of [Array.map], whatever the interleaving. Nested [map] calls (from
   inside a task) degrade to plain sequential evaluation instead of
   deadlocking on the pool's own capacity. *)

type t = {
  jobs : int;
  mutable workers : unit Domain.t list;
  m : Mutex.t;
  work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable shut : bool;
}

(* True while the current domain is executing pool tasks; a [map] issued
   from such a context runs inline. One key serves every pool: what matters
   is "am I inside a task", not which pool owns it. *)
let inside : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let worker_loop t =
  let continue = ref true in
  while !continue do
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.shut do
      Condition.wait t.work t.m
    done;
    (* Drain outstanding batches even when shutting down, so a concurrent
       [map] is never left waiting on work nobody will claim. *)
    if Queue.is_empty t.queue then begin
      Mutex.unlock t.m;
      continue := false
    end
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.m;
      job ()
    end
  done

let recommended_jobs () = Domain.recommended_domain_count ()

(* More domains than cores only contend, for the cores and in every
   stop-the-world minor collection. *)
let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      workers = [];
      m = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      shut = false;
    }
  in
  let domains = min jobs (recommended_jobs ()) in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.m;
  let ws = t.workers in
  t.workers <- [];
  if not t.shut then begin
    t.shut <- true;
    Condition.broadcast t.work
  end;
  Mutex.unlock t.m;
  (* Joining outside the lock; idempotence holds because only the first
     call sees a non-empty worker list. *)
  List.iter Domain.join ws

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map_seq f arr = Array.map f arr

let map t f arr =
  if t.shut then invalid_arg "Pool.map: pool is shut down";
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.workers = [] || n = 1 || !(Domain.DLS.get inside) then map_seq f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let remaining = Atomic.make n in
    let dm = Mutex.create () and dc = Condition.create () in
    let finished = ref false in
    let participate () =
      let flag = Domain.DLS.get inside in
      let saved = !flag in
      flag := true;
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          let r =
            match f arr.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          (* The atomic decrement publishes the non-atomic [results] write;
             the caller re-reads the array only after observing zero. *)
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            Mutex.lock dm;
            finished := true;
            Condition.signal dc;
            Mutex.unlock dm
          end
        end
      done;
      flag := saved
    in
    Mutex.lock t.m;
    List.iter (fun _ -> Queue.push participate t.queue) t.workers;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    participate ();
    Mutex.lock dm;
    while not !finished do
      Condition.wait dc dm
    done;
    Mutex.unlock dm;
    (* Deterministic failure selection: the lowest failing index wins, no
       matter which domain hit its exception first. *)
    let first_error = ref None in
    for i = n - 1 downto 0 do
      match results.(i) with
      | Some (Error e) -> first_error := Some e
      | _ -> ()
    done;
    match !first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map
        (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
        results
  end
