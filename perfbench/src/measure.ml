(* Clocks, order statistics, process memory and the result record
   shared by the workloads. *)

module J = Util.Json

let now_ns = Span.now_ns

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Wall time of [f ()] in seconds, with its result. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Linear interpolation between closest ranks, [p] in [0, 1]. *)
let percentile xs p =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = p *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

let mean xs = match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

(* Runs [run 0], [run 1], ... until [seconds] of their [wall] time have
   elapsed (at least one run), or exactly [count] runs. *)
let repeat ~seconds ?count ~wall run =
  let rec go acc elapsed i =
    let stop = match count with Some c -> i >= c | None -> i > 0 && elapsed >= seconds in
    if stop then List.rev acc
    else
      let x = run i in
      go (x :: acc) (elapsed +. wall x) (i + 1)
  in
  go [] 0.0 0

(* The 90th percentile of operation latency within a pass, median over
   passes: the slow operations of a typical pass, steadier across runs
   than a pooled p90.  Latencies in seconds, result in ms. *)
let pass_p90 latencies = median (List.map (fun l -> 1e3 *. percentile (Array.to_list l) 0.9) latencies)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let rss_peak_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line -> (
                match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
                | Some kb -> float_of_int kb /. 1024.0
                | None -> scan ())
          in
          scan ())

(* Everything a run reports.  [metrics] are the benchmark-contract
   metrics for the requested mode; [detail] carries the figures named
   after the workload's own vocabulary, the environment and the checks,
   for the human-readable report and the result file. *)
type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;  (** operations that errored or whose answer failed a check *)
  failures : string list;  (** first few failure descriptions *)
  metrics : metric list;
  detail : metric list;
}

let metric name unit_ value = { name; value; unit_ }

let metrics_json ms =
  J.Obj (List.map (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ])) ms)

(* A failure log that keeps the count exact but only the first few
   messages. *)
type failures = { mutable count : int; mutable messages : string list }

let failures () = { count = 0; messages = [] }

let fail f msg =
  f.count <- f.count + 1;
  if List.length f.messages < 8 then f.messages <- msg :: f.messages

let failf f fmt = Printf.ksprintf (fail f) fmt

(* What every workload is run with. *)
type params = {
  seed : int;
  seconds : float;  (** measuring budget of the timed phase *)
  trace : bool;
  jobs : int;  (** pool size of the workloads that use the pool *)
  setups : int;  (** set-up repetitions whose median is [setup_s] *)
  dir : string;  (** scratch directory for sockets, state and traces *)
  corrupt : bool;  (** perturb the reference answers, so every check must fail *)
}

(* Program start: a fresh process of this executable that initialises
   the runtime and every linked library, then exits ([--probe]).
   Median of [n] starts, in seconds. *)
let program_start n =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      median
        (List.init n (fun _ ->
             let t0 = now_ns () in
             let pid =
               Unix.create_process Sys.executable_name [| Sys.executable_name; "--probe" |] Unix.stdin
                 null null
             in
             ignore (Unix.waitpid [] pid);
             seconds_since t0)))
