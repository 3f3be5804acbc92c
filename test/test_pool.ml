(* Tests for the Domain-based worker pool: determinism across jobs
   settings, the scenario-keyed outcome cache, and oversubscription. *)

module Pool = Afex_cluster.Pool
module Config = Afex.Config
module Session = Afex.Session
module Test_case = Afex.Test_case
module Point = Afex_faultspace.Point
module Outcome = Afex_injector.Outcome
module Rng = Afex_stats.Rng
module Apache = Afex_simtarget.Apache
module Coreutils = Afex_simtarget.Coreutils

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let executor () = Afex.Executor.of_target (Apache.target ())

(* A session's observable history, as comparable data. *)
let history (r : Session.result) =
  List.map
    (fun (c : Test_case.t) ->
      (Point.key c.Test_case.point, Outcome.status_to_string c.Test_case.status,
       c.Test_case.fitness))
    r.Session.executed

let run_jobs ?batch_size ?stop ~jobs ~iterations config =
  Pool.run ?batch_size ?stop ~jobs ~iterations config (Apache.space ())
    (Pool.Pure (executor ()))

(* --- determinism --- *)

let test_history_independent_of_jobs () =
  let run jobs =
    fst (run_jobs ~jobs ~iterations:300 (Config.fitness_guided ~seed:11 ()))
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  checki "same length 1 vs 4" (List.length (history r1)) (List.length (history r4));
  checkb "history 1 = history 2" true (history r1 = history r2);
  checkb "history 1 = history 4" true (history r1 = history r4);
  checki "same covered blocks" r1.Session.covered_blocks r4.Session.covered_blocks;
  checki "same failed" r1.Session.failed r4.Session.failed

let test_batch_one_matches_sequential_session () =
  (* With a window of one candidate, the pool's schedule degenerates to
     exactly Session.run's next/execute/report loop. *)
  let config = Config.fitness_guided ~seed:23 () in
  let sequential =
    Session.run ~iterations:200 config (Apache.space ()) (executor ())
  in
  let pooled, _ = run_jobs ~batch_size:1 ~jobs:1 ~iterations:200 config in
  checkb "identical history" true (history sequential = history pooled)

let test_random_search_deterministic () =
  let run jobs =
    fst (run_jobs ~jobs ~iterations:400 (Config.random_search ~seed:5 ()))
  in
  checkb "random search history jobs-independent" true
    (history (run 1) = history (run 3))

(* --- the memo cache --- *)

let test_cache_hits_on_small_space () =
  (* Random search over coreutils' space with more samples than points:
     repeats are guaranteed, and every repeat must be served by the cache. *)
  let sub = Coreutils.space () in
  let cardinality = Afex_faultspace.Subspace.cardinality sub in
  let iterations = (2 * cardinality) + 50 in
  let result, stats =
    Pool.run ~jobs:2 ~iterations
      (Config.random_search ~seed:7 ())
      sub
      (Pool.Pure (Afex.Executor.of_target (Coreutils.target ())))
  in
  checki "every candidate reported" iterations result.Session.iterations;
  checkb
    (Printf.sprintf "repeats hit the cache (executed %d <= %d)" stats.Pool.executed
       cardinality)
    true
    (stats.Pool.executed <= cardinality);
  checki "hits + executed = iterations" iterations
    (stats.Pool.executed + stats.Pool.cache_hits)

let test_cache_hit_count_jobs_independent () =
  let stats_for jobs =
    let _, s =
      Pool.run ~jobs ~iterations:500
        (Config.random_search ~seed:19 ())
        (Coreutils.space ())
        (Pool.Pure (Afex.Executor.of_target (Coreutils.target ())))
    in
    (s.Pool.executed, s.Pool.cache_hits)
  in
  checkb "cache accounting jobs-independent" true (stats_for 1 = stats_for 4)

(* --- phase totals --- *)

let test_phase_totals_within_wall () =
  (* Generation, head-of-line wait and merge are disjoint spans of the
     session loop on every backend: inline, Domain workers, event loop. *)
  let config = Config.fitness_guided ~seed:13 () in
  let run ?inflight jobs =
    snd
      (Pool.run ?inflight ~batch_size:8 ~jobs ~iterations:200 config
         (Apache.space ()) (Pool.Pure (executor ())))
  in
  List.iter
    (fun (backend, (s : Pool.stats)) ->
      let phases =
        [ ("gen_ms", s.Pool.gen_ms); ("wait_ms", s.Pool.wait_ms);
          ("merge_ms", s.Pool.merge_ms) ]
      in
      List.iter
        (fun (name, ms) ->
          checkb (Printf.sprintf "%s: %s = %g >= 0" backend name ms) true (ms >= 0.0))
        phases;
      checkb (backend ^ ": generation measured") true (s.Pool.gen_ms > 0.0);
      checkb (backend ^ ": merge measured") true (s.Pool.merge_ms > 0.0);
      let sum = s.Pool.gen_ms +. s.Pool.wait_ms +. s.Pool.merge_ms in
      checkb
        (Printf.sprintf "%s: phases %g <= wall %g" backend sum s.Pool.wall_ms)
        true (sum <= s.Pool.wall_ms))
    [ ("inline", run 1); ("domains", run 2); ("event loop", run ~inflight:4 1) ]

(* --- oversubscription and edge cases --- *)

let test_more_jobs_than_candidates () =
  let config = Config.fitness_guided ~seed:3 () in
  let oversub, _ = run_jobs ~jobs:8 ~iterations:3 config in
  let single, _ = run_jobs ~jobs:1 ~iterations:3 config in
  checki "exactly three tests" 3 oversub.Session.iterations;
  checkb "same history as jobs=1" true (history single = history oversub)

let test_exhaustive_stops_at_cardinality () =
  let sub = Coreutils.space () in
  let cardinality = Afex_faultspace.Subspace.cardinality sub in
  let result, _ =
    Pool.run ~jobs:4 ~iterations:(cardinality + 100)
      (Config.exhaustive ~seed:1 ())
      sub
      (Pool.Pure (Afex.Executor.of_target (Coreutils.target ())))
  in
  checki "space exhausted exactly once" cardinality result.Session.iterations

let test_stop_target_respected () =
  let stop =
    { Session.matches = (fun c -> Test_case.failed c); count = 5 }
  in
  let run jobs = run_jobs ~stop ~jobs ~iterations:2000 (Config.fitness_guided ~seed:2 ()) in
  let r1, _ = run 1 and r4, _ = run 4 in
  checkb "stopped early" true r1.Session.stopped_early;
  checkb "stop iteration recorded" true (r1.Session.stop_iteration <> None);
  checkb "stop point jobs-independent" true
    (r1.Session.stop_iteration = r4.Session.stop_iteration);
  checkb "bounded overshoot: at most one batch beyond the target" true
    (r1.Session.iterations <= 2000)

let test_rejects_bad_arguments () =
  checkb "jobs >= 1" true
    (try ignore (Pool.create ~jobs:0 (Pool.Pure (executor ()))); false
     with Invalid_argument _ -> true);
  checkb "batch_size >= 1" true
    (try
       ignore (run_jobs ~batch_size:0 ~jobs:1 ~iterations:1 (Config.random_search ~seed:1 ()));
       false
     with Invalid_argument _ -> true)

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 (Pool.Pure (executor ())) in
  let _, _ =
    Pool.session ~iterations:50 pool (Config.fitness_guided ~seed:9 ()) (Apache.space ())
  in
  Pool.shutdown pool;
  Pool.shutdown pool;
  checki "jobs recorded" 3 (Pool.jobs pool)

(* --- seeded (stochastic) executors --- *)

let seeded_executor () =
  let target = Apache.target () in
  Pool.Seeded
    {
      total_blocks = Afex_simtarget.Target.total_blocks target;
      description = "apache (nondet)";
      run =
        (fun rng scenario ->
          let e =
            Afex.Executor.of_target ~nondet:{ Afex_injector.Engine.rng; dodge_probability = 0.3 }
              target
          in
          e.Afex.Executor.run_scenario scenario);
    }

let test_seeded_replayable_across_jobs () =
  let run jobs =
    fst
      (Pool.run ~jobs ~iterations:300
         (Config.fitness_guided ~seed:31 ())
         (Apache.space ()) (seeded_executor ()))
  in
  let a = run 1 and b = run 4 in
  checkb "per-task RNG streams make nondet runs replayable" true
    (history a = history b)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("history independent of jobs", test_history_independent_of_jobs);
      ("batch=1 matches Session.run", test_batch_one_matches_sequential_session);
      ("random search deterministic", test_random_search_deterministic);
      ("cache hits on small space", test_cache_hits_on_small_space);
      ("cache accounting jobs-independent", test_cache_hit_count_jobs_independent);
      ("more jobs than candidates", test_more_jobs_than_candidates);
      ("exhaustive stops at cardinality", test_exhaustive_stops_at_cardinality);
      ("stop target respected", test_stop_target_respected);
      ("rejects bad arguments", test_rejects_bad_arguments);
      ("shutdown idempotent", test_shutdown_idempotent);
      ("seeded executor replayable", test_seeded_replayable_across_jobs);
      ("phase totals within wall", test_phase_totals_within_wall);
    ]
