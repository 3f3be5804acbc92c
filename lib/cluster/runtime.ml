module Outcome = Afex_injector.Outcome

let src = Logs.Src.create "afex.runtime" ~doc:"Unified execution runtime"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Reorder buffer                                                      *)
(* ------------------------------------------------------------------ *)

module Reorder = struct
  type 'a t = { mutable next : int; buf : (int, 'a) Hashtbl.t }

  let create ?(next = 0) () = { next; buf = Hashtbl.create 64 }

  let offer t ~seq v =
    if seq < t.next then
      invalid_arg
        (Printf.sprintf
           "Runtime.Reorder.offer: sequence %d was already released (watermark \
            %d)"
           seq t.next);
    if Hashtbl.mem t.buf seq then
      invalid_arg
        (Printf.sprintf "Runtime.Reorder.offer: duplicate sequence %d" seq);
    Hashtbl.replace t.buf seq v

  let peek t = Hashtbl.find_opt t.buf t.next

  let pop t =
    match Hashtbl.find_opt t.buf t.next with
    | None -> None
    | Some v ->
        Hashtbl.remove t.buf t.next;
        t.next <- t.next + 1;
        Some v

  let watermark t = t.next
  let buffered t = Hashtbl.length t.buf
end

(* ------------------------------------------------------------------ *)
(* The runtime                                                         *)
(* ------------------------------------------------------------------ *)

type task = {
  seq : int;
  scenario : Afex_faultspace.Scenario.t option;
  run : unit -> Outcome.t;
  start : unit -> Afex.Executor.job;
}

type completion = int * (Outcome.t, exn) result

(* Shared state of the Domains backend. The explorer is the only
   producer and tasks never spawn subtasks, so one FIFO that every
   worker pops is all the scheduling there is. Tasks travel explorer ->
   [tasks] -> worker; completions travel worker -> [done_q] -> explorer,
   both under [lock]. *)
type shared = {
  lock : Mutex.t;
  work : Condition.t; (* a task was queued, or the queue closed *)
  finished : Condition.t; (* a completion was queued *)
  tasks : task Queue.t;
  done_q : completion Queue.t;
  mutable closed : bool;
}

type backend =
  | Inline of completion Queue.t
  | Domains of shared * unit Domain.t array * Async_executor.t list
  | Event_loop of Async_executor.t

type t = {
  backend : backend;
  mutable live : int;  (* submitted, completion not yet polled *)
  mutable shut : bool;
}

(* ---- worker side -------------------------------------------------- *)

let run_local task = try Ok (task.run ()) with e -> Error e

(* A remote proxy is a one-slot event loop over its manager: the same
   pipelined client, backoff gate, straggler timer and local fallback
   the [--inflight] backend uses, so a dead manager is dialed at most
   [max_attempts] times in all and never sleeps on a task. *)
let run_remote proxy task =
  match task.scenario with
  | None -> run_local task
  | Some _ as scenario -> (
      Async_executor.submit proxy ~tag:task.seq
        { Async_executor.scenario; start = task.start };
      match Async_executor.poll proxy ~block:true with
      | [ (_, result) ] -> result
      | _ -> assert false)

(* Pop until the queue is closed and empty: tasks submitted before
   [shutdown] still run. *)
let worker s exec =
  let rec loop () =
    Mutex.lock s.lock;
    while Queue.is_empty s.tasks && not s.closed do
      Condition.wait s.work s.lock
    done;
    let next = Queue.take_opt s.tasks in
    Mutex.unlock s.lock;
    match next with
    | None -> ()
    | Some task ->
        let c = (task.seq, exec task) in
        Mutex.lock s.lock;
        Queue.push c s.done_q;
        Condition.signal s.finished;
        Mutex.unlock s.lock;
        loop ()
  in
  loop ()

(* ---- construction ------------------------------------------------- *)

let inline () = { backend = Inline (Queue.create ()); live = 0; shut = false }

let domains ?(remotes = []) ?request_timeout_ms ~total_blocks ~jobs () =
  if jobs < 0 then invalid_arg "Runtime.domains: jobs must be non-negative";
  if jobs = 0 && remotes = [] then
    invalid_arg "Runtime.domains: need at least one worker (jobs or remotes)";
  let proxies =
    List.map
      (fun spec ->
        Async_executor.create ~remotes:[ spec ] ?request_timeout_ms ~inflight:1
          ~total_blocks ())
      remotes
  in
  let s =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      tasks = Queue.create ();
      done_q = Queue.create ();
      closed = false;
    }
  in
  let spawn exec = Domain.spawn (fun () -> worker s exec) in
  let workers =
    Array.append
      (Array.init jobs (fun _ -> spawn run_local))
      (Array.of_list (List.map (fun p -> spawn (run_remote p)) proxies))
  in
  { backend = Domains (s, workers, proxies); live = 0; shut = false }

let event_loop async = { backend = Event_loop async; live = 0; shut = false }

let outstanding t = t.live
let async t = match t.backend with Event_loop a -> Some a | Inline _ | Domains _ -> None

(* ---- the submit/poll surface -------------------------------------- *)

let submit t task =
  if t.shut then invalid_arg "Runtime.submit: the runtime was shut down";
  t.live <- t.live + 1;
  match t.backend with
  | Inline q -> Queue.push (task.seq, run_local task) q
  | Event_loop a ->
      Async_executor.submit a ~tag:task.seq
        { Async_executor.scenario = task.scenario; start = task.start }
  | Domains (s, _, _) ->
      Mutex.lock s.lock;
      Queue.push task s.tasks;
      Condition.signal s.work;
      Mutex.unlock s.lock

let poll t ~block =
  let completions =
    match t.backend with
    | Inline q ->
        let out = List.of_seq (Queue.to_seq q) in
        Queue.clear q;
        out
    | Event_loop a -> Async_executor.poll a ~block
    | Domains (s, _, _) ->
        Mutex.lock s.lock;
        if block && t.live > 0 then
          while Queue.is_empty s.done_q do
            Condition.wait s.finished s.lock
          done;
        let out = List.of_seq (Queue.to_seq s.done_q) in
        Queue.clear s.done_q;
        Mutex.unlock s.lock;
        out
  in
  t.live <- t.live - List.length completions;
  completions

let drain t =
  let rec go acc =
    if t.live = 0 then List.rev acc
    else go (List.rev_append (poll t ~block:true) acc)
  in
  go []

(* ---- stats -------------------------------------------------------- *)

(* Every remote path is an event loop: the [--inflight] one, or one per
   proxy domain. *)
let loops t =
  match t.backend with
  | Inline _ -> []
  | Domains (_, _, proxies) -> proxies
  | Event_loop a -> [ a ]

let sum_stats f t =
  List.fold_left (fun acc a -> acc + f (Async_executor.stats a)) 0 (loops t)

let remote_runs = sum_stats (fun s -> s.Async_executor.remote_runs)
let remote_fallbacks = sum_stats (fun s -> s.Async_executor.remote_fallbacks)
let remote_stats t = List.concat_map Async_executor.remote_stats (loops t)

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    (match t.backend with
    | Inline _ | Event_loop _ -> ()
    | Domains (s, workers, _) ->
        Mutex.lock s.lock;
        s.closed <- true;
        Condition.broadcast s.work;
        Mutex.unlock s.lock;
        Array.iter Domain.join workers;
        if t.live > 0 then
          Log.debug (fun m -> m "shutdown with %d completions unpolled" t.live));
    List.iter Async_executor.close (loops t)
  end
