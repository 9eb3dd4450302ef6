module Obs = Mps_obs.Obs

(* Deterministic fixed-size domain pool.

   One mutex/condvar pair coordinates batch hand-off; inside a batch the
   only shared state is two atomics (a cursor over task indices and a
   completion counter), so workers never contend on the lock while there is
   work left.  Determinism comes for free from the result layout: task [i]
   writes slot [i], and the merge reads slots 0..n-1. *)

type batch = {
  run_item : int -> unit;  (* runs task [i]; never raises *)
  size : int;
  cursor : int Atomic.t;
  completed : int Atomic.t;
}

type t = {
  jobs : int;
  mutable workers : unit Domain.t list;
  lock : Mutex.t;
  have_work : Condition.t;  (* signalled on new batch and on shutdown *)
  work_done : Condition.t;  (* signalled when a batch's last task finishes *)
  mutable current : batch option;
  mutable generation : int;  (* bumped per batch; workers key off it *)
  mutable stopping : bool;
  mutable closed : bool;
}

let jobs t = t.jobs
let default_jobs () = Domain.recommended_domain_count ()

(* Pull tasks until the cursor runs off the end; wake the submitter when
   the last task of the batch completes. *)
let drain t b =
  let rec go () =
    let i = Atomic.fetch_and_add b.cursor 1 in
    if i < b.size then begin
      b.run_item i;
      let finished = 1 + Atomic.fetch_and_add b.completed 1 in
      if finished = b.size then begin
        Mutex.lock t.lock;
        Condition.broadcast t.work_done;
        Mutex.unlock t.lock
      end;
      go ()
    end
  in
  go ()

let rec worker t seen_generation =
  Mutex.lock t.lock;
  while (not t.stopping) && t.generation = seen_generation do
    Condition.wait t.have_work t.lock
  done;
  if t.stopping then Mutex.unlock t.lock
  else begin
    let generation = t.generation in
    let b = t.current in
    Mutex.unlock t.lock;
    (* [current] can be [None] if the batch retired before we woke; just
       catch up to the new generation and wait again. *)
    Option.iter (drain t) b;
    worker t generation
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      workers = [];
      lock = Mutex.create ();
      have_work = Condition.create ();
      work_done = Condition.create ();
      current = None;
      generation = 0;
      stopping = false;
      closed = false;
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t 0));
  t

let shutdown t =
  if not t.closed then begin
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.have_work;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- [];
    t.closed <- true
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let check_open t = if t.closed then invalid_arg "Pool: used after shutdown"

(* Run [run_item] on 0..size-1 across the pool, blocking until all done. *)
let run_batch t ~size run_item =
  let b =
    { run_item; size; cursor = Atomic.make 0; completed = Atomic.make 0 }
  in
  Mutex.lock t.lock;
  check_open t;
  t.current <- Some b;
  t.generation <- t.generation + 1;
  Condition.broadcast t.have_work;
  Mutex.unlock t.lock;
  (* The submitting domain is a worker too. *)
  drain t b;
  Mutex.lock t.lock;
  while Atomic.get b.completed < b.size do
    Condition.wait t.work_done t.lock
  done;
  t.current <- None;
  Mutex.unlock t.lock

let map t ~f xs =
  check_open t;
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  (* The jobs=1 path is exactly the sequential loop: left to right (as
     [List.init] guarantees), and a raise stops every later task. *)
  if t.jobs = 1 || n <= 1 then List.init n (fun i -> f tasks.(i))
  else begin
    let results = Array.make n None in
    (* When the submitting domain is collecting observability data, each
       task records into its own buffer (installed on whatever domain runs
       it) and the buffers are committed in submission order after the
       batch — so counter totals and span order are independent of the
       worker count, like every other result of the pool.  A failed batch
       discards its buffers: the telemetry of a run is the telemetry of
       the work that produced its result, not of abandoned attempts. *)
    let obs = Obs.Task.begin_batch ~n in
    let run_task i =
      match obs with
      | None -> f tasks.(i)
      | Some bufs -> Obs.Task.run_in bufs.(i) (fun () -> f tasks.(i))
    in
    Obs.span "pool" (fun () ->
        run_batch t ~size:n (fun i ->
            let r = match run_task i with v -> Ok v | exception e -> Error e in
            results.(i) <- Some r);
        let failed =
          Array.exists (function Some (Error _) -> true | _ -> false) results
        in
        match obs with
        | Some bufs when not failed -> Obs.Task.commit bufs
        | _ -> ());
    (* Every slot is filled — run_batch returns only after all tasks
       completed.  Raise the earliest failure in submission order, if any,
       so even the raised exception is independent of timing. *)
    List.init n (fun i ->
        match results.(i) with
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
  end
