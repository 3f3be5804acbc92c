module Rng = Afex_stats.Rng
module Bitset = Afex_stats.Bitset
module Subspace = Afex_faultspace.Subspace
module Point = Afex_faultspace.Point
module Plugin = Afex_injector.Plugin
module Outcome = Afex_injector.Outcome
module Sensor = Afex_injector.Sensor
module Relevance = Afex_quality.Relevance
module Feedback = Afex_quality.Feedback
module Trace_intern = Afex_quality.Trace_intern
module Index = Afex_quality.Index

(* Progress metrics go to a log so a long exploration can be followed
   live (§6.4, step 7). *)
let log_src = Logs.Src.create "afex.explorer" ~doc:"AFEX exploration progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  config : Config.t;
  sub : Subspace.t;
  executor : Executor.t;
  transform : Point.t -> Point.t;
  rng : Rng.t;
  queue : Pqueue.t;
  history : History.t;
  sensitivity : Sensitivity.t;
  pending : unit Point.Tbl.t;
  feedback : Feedback.t;
  failure_index : Index.t;
      (** injection stacks of triggered failing tests, clustered online *)
  crash_index : Index.t;  (** crash stacks, clustered online *)
  covered : Bitset.t;
  rarity : Rarity.t option;  (** global hit-count histogram, when enabled *)
  rare_block : (int, int) Hashtbl.t;
      (** birth -> rarest block that test covered (at its report time);
          the mutator checks the block's current hit count to decide
          whether to mask mutations of that parent *)
  mutator_stats : Mutator.stats;
  mutator_cache : Mutator.cache;
  mutable seeds : Point.t list;  (** analysis-provided seeds, consumed first *)
  mutable cursor : Point.t Seq.t;  (** exhaustive strategy only *)
  mutable cursor_consumed : int;  (** points taken off [cursor] so far *)
  mutable issued : int;
  mutable iterations : int;
  mutable records : Test_case.t list;  (** newest first *)
  mutable failed : int;
  mutable crashed : int;
  mutable hung : int;
  mutable triggered : int;
  mutable simulated_ms : float;
}

let create ?(transform = fun p -> p) config sub executor =
  let intern = Trace_intern.create () in
  {
    config;
    sub;
    executor;
    transform;
    rng = Rng.create config.Config.seed;
    queue = Pqueue.create ~capacity:config.Config.queue_capacity;
    history = History.create ();
    sensitivity =
      Sensitivity.create ~window:config.Config.sensitivity_window
        ~dims:(Subspace.dim sub) ();
    pending = Point.Tbl.create 64;
    (* One intern table for the whole session: redundancy feedback and
       both cluster indexes tokenize each stack frame exactly once. *)
    feedback = Feedback.create ~intern ();
    failure_index = Index.create ~intern ();
    crash_index = Index.create ~intern ();
    covered = Bitset.create executor.Executor.total_blocks;
    rarity =
      Option.map
        (fun (_ : Config.rarity) ->
          Rarity.create ~blocks:executor.Executor.total_blocks)
        config.Config.rarity;
    rare_block = Hashtbl.create 64;
    mutator_stats = Mutator.create_stats ();
    mutator_cache = Mutator.create_cache ~dims:(Subspace.dim sub);
    seeds = config.Config.initial_seeds;
    cursor = Subspace.enumerate sub;
    cursor_consumed = 0;
    issued = 0;
    iterations = 0;
    records = [];
    failed = 0;
    crashed = 0;
    hung = 0;
    triggered = 0;
    simulated_ms = 0.0;
  }

let is_pending t p = Point.Tbl.mem t.pending p
let add_pending t p = Point.Tbl.replace t.pending p ()
let remove_pending t p = Point.Tbl.remove t.pending p

(* Pop the next usable analysis seed: in-space, not yet executed. *)
let rec next_seed t =
  match t.seeds with
  | [] -> None
  | p :: rest ->
      t.seeds <- rest;
      if Subspace.mem t.sub p && (not (History.mem t.history p)) && not (is_pending t p)
      then Some p
      else next_seed t

let random_novel t =
  (* Bounded search for an unexecuted point; beyond the budget we accept a
     repeat rather than spin (the space may be nearly exhausted). *)
  let rec draw k =
    let p = Subspace.random_point t.rng t.sub in
    if k > 200 then p
    else if History.mem t.history p || is_pending t p then draw (k + 1)
    else p
  in
  draw 0

(* FairFuzz masking: a parent is rare-reaching while the rarest block it
   covered is still below the cutoff against the *current* histogram (a
   block everyone has since piled into stops justifying pins). The pin set
   comes from the live sensitivity profile: axes paying off above the
   uniform share are what established the position. *)
let mask_for t =
  match (t.rarity, t.config.Config.rarity) with
  | Some hist, Some rc when rc.Config.mask ->
      fun (parent : Test_case.t) -> (
        match Hashtbl.find_opt t.rare_block parent.Test_case.birth with
        | Some b when Rarity.is_rare hist ~cutoff:rc.Config.cutoff b ->
            let m = Sensitivity.mask t.sensitivity in
            (* A mask must pin something and leave something free to be
               worth applying; early sessions (flat sensitivity) mutate
               unmasked. *)
            if Array.exists Fun.id m && Array.exists not m then Some m
            else None
        | _ -> None)
  | _ -> fun _ -> None

let next t =
  let proposal =
    match t.config.Config.strategy with
    | Config.Random_search ->
        (* Uniform sampling with replacement, as in the paper's baseline. *)
        Some { Mutator.point = Subspace.random_point t.rng t.sub; mutated_axis = None }
    | Config.Exhaustive -> (
        match t.cursor () with
        | Seq.Nil -> None
        | Seq.Cons (p, rest) ->
            t.cursor <- rest;
            t.cursor_consumed <- t.cursor_consumed + 1;
            Some { Mutator.point = p; mutated_axis = None })
    | Config.Fitness_guided params -> (
        (* Analysis-provided seeds run before anything else (§4). *)
        match next_seed t with
        | Some point -> Some { Mutator.point; mutated_axis = None }
        | None ->
            if t.issued < t.config.Config.initial_batch || Pqueue.is_empty t.queue
            then Some { Mutator.point = random_novel t; mutated_axis = None }
            else
              Some
                (Mutator.next ~stats:t.mutator_stats ~mask:(mask_for t)
                   ~cache:t.mutator_cache params t.rng t.sub t.sensitivity
                   ~queue:t.queue ~history:t.history ~is_pending:(is_pending t)))
  in
  (match proposal with
  | Some p ->
      t.issued <- t.issued + 1;
      (match t.config.Config.strategy with
      | Config.Random_search -> ()
      | Config.Exhaustive | Config.Fitness_guided _ -> add_pending t p.Mutator.point)
  | None -> ());
  proposal

let scenario_for t (proposal : Mutator.proposal) =
  Subspace.values t.sub (t.transform proposal.Mutator.point)

let fault_for t (proposal : Mutator.proposal) =
  Plugin.fault_of_point_exn t.sub (t.transform proposal.Mutator.point)

let report t (proposal : Mutator.proposal) outcome =
  let point = proposal.Mutator.point in
  remove_pending t point;
  History.add t.history point;
  t.iterations <- t.iterations + 1;
  (* Impact: newly covered blocks relative to the whole session. *)
  let new_blocks = Bitset.diff_count outcome.Outcome.coverage t.covered in
  Bitset.union_into ~dst:t.covered outcome.Outcome.coverage;
  let impact = t.config.Config.sensor.Sensor.score { Sensor.outcome; new_blocks } in
  (* Rarity bonus against the histogram *before* this outcome is folded
     in (the same convention as [new_blocks] above): a weighted reward for
     reaching the session's rarely-hit blocks. The rarest block is found
     once and also recorded below. *)
  let rarest =
    match t.rarity with
    | Some hist -> Rarity.rarest_block hist outcome.Outcome.coverage
    | None -> None
  in
  let bonus =
    match (t.rarity, t.config.Config.rarity) with
    | Some hist, Some rc ->
        Some (rc.Config.weight *. Rarity.bonus_of_rarest hist rarest)
    | _ -> None
  in
  let fitness =
    let f =
      match t.config.Config.relevance with
      | None -> impact
      | Some model ->
          Relevance.scale_impact model ~func:outcome.Outcome.fault.Afex_injector.Fault.func
            impact
    in
    if t.config.Config.feedback then
      Feedback.weigh_fitness ?bonus t.feedback ~trace:outcome.Outcome.injection_stack f
    else match bonus with None -> f | Some b -> f +. b
  in
  let case =
    {
      Test_case.point;
      fault = outcome.Outcome.fault;
      status = outcome.Outcome.status;
      triggered = outcome.Outcome.triggered;
      impact;
      fitness;
      birth = t.iterations;
      mutated_axis = proposal.Mutator.mutated_axis;
      injection_stack = outcome.Outcome.injection_stack;
      crash_stack = outcome.Outcome.crash_stack;
      new_blocks;
      duration_ms = outcome.Outcome.duration_ms;
    }
  in
  (* Statistics. *)
  if Test_case.failed case then t.failed <- t.failed + 1;
  (match outcome.Outcome.status with
  | Outcome.Crashed -> t.crashed <- t.crashed + 1
  | Outcome.Hung -> t.hung <- t.hung + 1
  | Outcome.Passed | Outcome.Test_failed -> ());
  if outcome.Outcome.triggered then t.triggered <- t.triggered + 1;
  (* Online redundancy analysis: the indexes absorb each trace as it
     arrives, so {!Session.summarize} reads finished clusters instead of
     re-running the quadratic batch pass over the whole history. *)
  (match outcome.Outcome.crash_stack with
  | Some stack -> Index.observe t.crash_index stack
  | None -> ());
  if Test_case.failed case && case.Test_case.triggered then
    Index.observe t.failure_index
      (Option.value case.Test_case.injection_stack ~default:[]);
  (* Rarity bookkeeping: remember which rare frontier this test stood on
     (pre-observation, matching the bonus), then absorb its coverage. *)
  (match t.rarity with
  | Some hist ->
      Option.iter (Hashtbl.replace t.rare_block case.Test_case.birth) rarest;
      Rarity.observe hist outcome.Outcome.coverage
  | None -> ());
  t.simulated_ms <-
    t.simulated_ms +. outcome.Outcome.duration_ms +. t.config.Config.setup_ms;
  t.records <- case :: t.records;
  if t.iterations mod 100 = 0 then
    Log.info (fun m ->
        m "%s: %d tests, %d failed, %d crashes, %d blocks covered, queue %d"
          t.executor.Executor.description t.iterations t.failed t.crashed
          (Bitset.count t.covered) (Pqueue.size t.queue));
  Log.debug (fun m ->
      m "#%d %a -> %s (impact %.1f, fitness %.1f)" t.iterations
        Afex_faultspace.Point.pp point
        (Outcome.status_to_string outcome.Outcome.status)
        impact fitness);
  (* Learning. *)
  (match proposal.Mutator.mutated_axis with
  | Some axis -> Sensitivity.record t.sensitivity ~axis ~fitness
  | None -> ());
  (match t.config.Config.strategy with
  | Config.Fitness_guided _ ->
      ignore (Pqueue.insert ~policy:t.config.Config.eviction t.rng t.queue case);
      ignore
        (Pqueue.age t.queue ~decay:t.config.Config.aging_decay
           ~retire_below:t.config.Config.retire_threshold)
  | Config.Random_search | Config.Exhaustive -> ());
  case

let execute t proposal =
  report t proposal (t.executor.Executor.run_scenario (scenario_for t proposal))

let iterations t = t.iterations
let pending_count t = Point.Tbl.length t.pending
let records t = List.rev t.records
let failed_count t = t.failed
let crashed_count t = t.crashed
let hung_count t = t.hung
let triggered_count t = t.triggered
let covered_blocks t = Bitset.count t.covered
let simulated_ms t = t.simulated_ms
(* A copy: the cached array also steers the mutator. *)
let sensitivity_probabilities t =
  Array.copy (Sensitivity.probabilities t.sensitivity)
let rarity_histogram t = t.rarity
let mutator_stats t = t.mutator_stats
let failure_index t = t.failure_index
let crash_index t = t.crash_index
let queue_snapshot t = Pqueue.elements t.queue
let history_size t = History.size t.history
let subspace t = t.sub
let config t = t.config

module Snapshot = struct
  type explorer = t

  type t = {
    rng_state : int64;
    issued : int;
    iterations : int;
    failed : int;
    crashed : int;
    hung : int;
    triggered : int;
    simulated_ms : float;
    cursor_consumed : int;
    mutator : Mutator.stats;  (* private copy *)
  }

  let capture (e : explorer) =
    if Point.Tbl.length e.pending <> 0 then
      invalid_arg
        "Explorer.Snapshot.capture: candidates still in flight — snapshots \
         are only taken at quiescent points";
    {
      rng_state = Rng.state e.rng;
      issued = e.issued;
      iterations = e.iterations;
      failed = e.failed;
      crashed = e.crashed;
      hung = e.hung;
      triggered = e.triggered;
      simulated_ms = e.simulated_ms;
      cursor_consumed = e.cursor_consumed;
      mutator = Mutator.copy_stats e.mutator_stats;
    }
end

let capture = Snapshot.capture
