type error = { err_exn : string; err_backtrace : string }

type 'a outcome = { oc_seconds : float; oc_result : ('a, error) result }

let default_jobs () = max 1 (min 8 (Domain.recommended_domain_count ()))

(* Wall time is measured around the task body only, so a task queued
   behind a long sibling is not billed for the wait. *)
let run_task f =
  let start = Unix.gettimeofday () in
  let result =
    match f () with
    | v -> Ok v
    | exception exn ->
        (* capture the trace before any other code can clobber it *)
        let raw = Printexc.get_raw_backtrace () in
        Error
          {
            err_exn = Printexc.to_string exn;
            err_backtrace = Printexc.raw_backtrace_to_string raw;
          }
  in
  { oc_seconds = Unix.gettimeofday () -. start; oc_result = result }

type t = {
  mutex : Mutex.t;
  work_available : Condition.t;  (** signaled on submit and shutdown *)
  all_done : Condition.t;  (** signaled when [pending] drops to zero *)
  queue : (unit -> unit) Queue.t;
  mutable pending : int;  (** submitted but not yet finished *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* Workers block on [work_available] until a task is queued or the
   pool closes; a closed pool still drains whatever remains queued, so
   shutdown never drops submitted work. *)
let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.work_available t.mutex
    done;
    match Queue.take_opt t.queue with
    | None ->
        (* empty and closed: done *)
        Mutex.unlock t.mutex;
        ()
    | Some task ->
        Mutex.unlock t.mutex;
        (try task () with _ -> ());
        Mutex.lock t.mutex;
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.broadcast t.all_done;
        Mutex.unlock t.mutex;
        loop ()
  in
  loop ()

let create ~jobs =
  let t =
    {
      mutex = Mutex.create ();
      work_available = Condition.create ();
      all_done = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init (max 1 jobs) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = List.length t.workers

let submit t task =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.add task t.queue;
  t.pending <- t.pending + 1;
  Condition.signal t.work_available;
  Mutex.unlock t.mutex

let wait t =
  Mutex.lock t.mutex;
  while t.pending > 0 do
    Condition.wait t.all_done t.mutex
  done;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  if not was_closed then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let run_sequential tasks = List.map run_task tasks

let run ~jobs tasks =
  let n = List.length tasks in
  if jobs <= 1 || n <= 1 then run_sequential tasks
  else begin
    (* Each slot is written by exactly one worker and read only after
       the workers are joined, so plain array stores are race-free. *)
    let results = Array.make n None in
    let pool = create ~jobs:(min jobs n) in
    Fun.protect
      ~finally:(fun () -> shutdown pool)
      (fun () ->
        List.iteri (fun i f -> submit pool (fun () -> results.(i) <- Some (run_task f))) tasks;
        wait pool);
    Array.to_list results
    |> List.map (function
         | Some outcome -> outcome
         | None -> assert false (* wait returned: every slot is filled *))
  end

let map ~jobs f xs = run ~jobs (List.map (fun x () -> f x) xs)

let value_exn outcome =
  match outcome.oc_result with
  | Ok v -> v
  | Error e -> failwith e.err_exn
