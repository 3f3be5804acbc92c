(* Regeneration of every table and figure in the paper's evaluation (§7).

   Each experiment prints the paper's numbers next to the measured ones.
   Absolute values are not expected to match (the targets are simulated
   models, not the authors' testbed); the comparisons of interest are who
   wins and by roughly what factor. *)

module Subspace = Afex_faultspace.Subspace
module Axis = Afex_faultspace.Axis
module Shuffle = Afex_faultspace.Shuffle
module Rng = Afex_stats.Rng
module Bitset = Afex_stats.Bitset
module Target = Afex_simtarget.Target
module Libc = Afex_simtarget.Libc
module Coreutils = Afex_simtarget.Coreutils
module Mysql = Afex_simtarget.Mysql
module Apache = Afex_simtarget.Apache
module Mongodb = Afex_simtarget.Mongodb
module Fault = Afex_injector.Fault
module Engine = Afex_injector.Engine
module Outcome = Afex_injector.Outcome
module Relevance = Afex_quality.Relevance
module Config = Afex.Config
module Session = Afex.Session
module Test_case = Afex.Test_case
module Table = Afex_report.Table
module Figure = Afex_report.Figure
module Simulation = Afex_cluster.Simulation
module Pool = Afex_cluster.Pool
module Async_executor = Afex_cluster.Async_executor
module Remote_manager = Afex_cluster.Remote_manager

(* Provenance header shared by every BENCH_*.json artifact: schema
   version, the exact command line, and the commit the numbers were
   measured at, so a stray artifact always traces back to its run. *)
let bench_header () =
  let commit =
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown"
  in
  let quote s = "\"" ^ Afex_report.Export.json_escape s ^ "\"" in
  Printf.sprintf "\"schema\": 1, \"cmd\": %s, \"commit\": %s"
    (quote (String.concat " " (Array.to_list Sys.argv)))
    (quote commit)

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n\n"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

let pct count total =
  if total = 0 then "0%" else Printf.sprintf "%d%%" (100 * count / total)

(* ------------------------------------------------------------------ *)
(* Fig. 1: structure of the ls fault space                             *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Figure 1: fault space structure of the `ls` utility";
  let target = Coreutils.ls_target () in
  let funcs = Coreutils.ls_fig1_functions in
  let tests = List.init (Target.n_tests target) (fun i -> i) in
  let funcs_a = Array.of_list funcs in
  let cell ~row ~col =
    let fault =
      Fault.make ~test_id:(List.nth tests row) ~func:funcs_a.(col) ~call_number:1 ()
    in
    let outcome = Engine.run target fault in
    if not outcome.Outcome.triggered then None else Some (Outcome.failed outcome)
  in
  print_string
    (Figure.impact_matrix ~col_labels:funcs
       ~row_labels:(List.map (fun i -> Printf.sprintf "test %2d" (i + 1)) tests)
       ~cell);
  note "Paper: black/gray bands cluster by function and by test group;";
  note "the same vertical/horizontal correlation should be visible above."

(* ------------------------------------------------------------------ *)
(* Table 1: MySQL                                                      *)
(* ------------------------------------------------------------------ *)

let table1 ?(iterations = 6000) () =
  section
    (Printf.sprintf
       "Table 1: MySQL — suite vs fitness-guided vs random (%d iterations\n\
        as the 24-hour budget stand-in)" iterations);
  let target = Mysql.target () in
  let sub = Mysql.space () in
  note "Fault space |Phi_MySQL| = %d (paper: 2,179,300)" (Subspace.cardinality sub);
  let executor = Afex.Executor.of_target target in
  let suite_cov = Bitset.count (Engine.suite_coverage target) in
  let total = Target.total_blocks target in
  let fg = Session.run ~iterations (Config.fitness_guided ~seed:101 ()) sub executor in
  let rnd = Session.run ~iterations (Config.random_search ~seed:101 ()) sub executor in
  let row name cov failed crashes =
    [ name; cov; string_of_int failed; string_of_int crashes ]
  in
  print_string
    (Table.render
       ~headers:[ "MySQL"; "Coverage"; "# failed tests"; "# crashes" ]
       ~rows:
         [
           row "test suite (no injection)"
             (Printf.sprintf "%.2f%%" (100.0 *. float_of_int suite_cov /. float_of_int total))
             0 0;
           row "fitness-guided"
             (Printf.sprintf "%.2f%%" fg.Session.coverage_percent)
             fg.Session.failed fg.Session.crashed;
           row "random"
             (Printf.sprintf "%.2f%%" rnd.Session.coverage_percent)
             rnd.Session.failed rnd.Session.crashed;
         ]
       ());
  note "";
  note "Paper: suite 54.10%% / 0 / 0; fitness 52.15%% / 1,681 / 464; random 53.14%% / 575 / 51";
  note "Measured ratios: failed %s, crashes %s (paper: ~2.9x and ~9.1x)"
    (Table.fmt_ratio (float_of_int fg.Session.failed) (float_of_int rnd.Session.failed))
    (Table.fmt_ratio (float_of_int fg.Session.crashed) (float_of_int rnd.Session.crashed));
  (* Did the search rediscover the two planted real-world bugs? *)
  let reps = Session.crash_cluster_representatives fg in
  let found stack_name stack =
    let hit =
      List.exists
        (fun (c : Test_case.t) -> c.Test_case.crash_stack = Some stack)
        reps
      || List.exists
           (fun (c : Test_case.t) -> c.Test_case.crash_stack = Some stack)
           fg.Session.executed
    in
    note "bug %-28s: %s" stack_name (if hit then "FOUND" else "not found")
  in
  List.iter (fun (name, stack) -> found name stack) (Mysql.known_bug_stacks ());
  note "final axis sensitivities (testId, function, callNumber): %s"
    (String.concat ", "
       (List.map (Printf.sprintf "%.2f") (Array.to_list fg.Session.sensitivity)));
  note "(paper \u{00A7}7.3: MySQL converged to ~0.4 / ~0.1 / ~0.4)"

(* ------------------------------------------------------------------ *)
(* Table 2: Apache httpd                                               *)
(* ------------------------------------------------------------------ *)

let table2 ?(iterations = 1000) () =
  section "Table 2: Apache httpd — fitness-guided vs random, 1,000 iterations";
  let target = Apache.target () in
  let sub = Apache.space () in
  note "Fault space |Phi_Apache| = %d (paper: 11,020)" (Subspace.cardinality sub);
  let executor = Afex.Executor.of_target target in
  let fg = Session.run ~iterations (Config.fitness_guided ~seed:202 ()) sub executor in
  let rnd = Session.run ~iterations (Config.random_search ~seed:202 ()) sub executor in
  print_string
    (Table.render
       ~headers:[ "Apache httpd"; "Fitness-guided"; "Random" ]
       ~rows:
         [
           [ "# failed tests"; string_of_int fg.Session.failed; string_of_int rnd.Session.failed ];
           [ "# crashes"; string_of_int fg.Session.crashed; string_of_int rnd.Session.crashed ];
         ]
       ());
  note "";
  note "Paper: failed 736 vs 238 (3.1x), crashes 246 vs 21 (11.7x)";
  note "Measured ratios: failed %s, crashes %s"
    (Table.fmt_ratio (float_of_int fg.Session.failed) (float_of_int rnd.Session.failed))
    (Table.fmt_ratio (float_of_int fg.Session.crashed) (float_of_int rnd.Session.crashed));
  (* Fig. 7 bug manifestations. *)
  let bug_stacks = Apache.known_bug_stacks () in
  List.iter
    (fun (name, stack) ->
      let count result =
        List.length
          (List.filter
             (fun (c : Test_case.t) -> c.Test_case.crash_stack = Some stack)
             result.Session.executed)
      in
      note "manifestations of %s: fitness %d, random %d (paper: 27 vs 0)" name (count fg)
        (count rnd))
    bug_stacks

(* ------------------------------------------------------------------ *)
(* Table 3 and the recovery-coverage analysis of §7.2                  *)
(* ------------------------------------------------------------------ *)

let table3 ?(iterations = 250) () =
  section "Table 3: coreutils — fitness vs random (250 samples) vs exhaustive";
  let target = Coreutils.target () in
  let sub = Coreutils.space () in
  let cardinality = Subspace.cardinality sub in
  note "Fault space |Phi_coreutils| = %d (paper: 1,653)" cardinality;
  let executor = Afex.Executor.of_target target in
  let fg = Session.run ~iterations (Config.fitness_guided ~seed:303 ()) sub executor in
  let rnd = Session.run ~iterations (Config.random_search ~seed:303 ()) sub executor in
  let exh = Session.run ~iterations:cardinality (Config.exhaustive ~seed:303 ()) sub executor in
  print_string
    (Table.render
       ~headers:[ "coreutils"; "Fitness-guided"; "Random"; "Exhaustive" ]
       ~rows:
         [
           [
             "Code coverage";
             Printf.sprintf "%.2f%%" fg.Session.coverage_percent;
             Printf.sprintf "%.2f%%" rnd.Session.coverage_percent;
             Printf.sprintf "%.2f%%" exh.Session.coverage_percent;
           ];
           [
             "# tests executed";
             string_of_int fg.Session.iterations;
             string_of_int rnd.Session.iterations;
             string_of_int exh.Session.iterations;
           ];
           [
             "# failed tests";
             string_of_int fg.Session.failed;
             string_of_int rnd.Session.failed;
             string_of_int exh.Session.failed;
           ];
         ]
       ());
  note "";
  note "Paper: coverage 36.14%% / 35.84%% / 36.17%%; failed 74 / 32 / 205";
  note "Measured fitness/random failed ratio: %s (paper: 2.3x)"
    (Table.fmt_ratio (float_of_int fg.Session.failed) (float_of_int rnd.Session.failed));
  (* Recovery-code coverage arithmetic (§7.2). *)
  let total = Target.total_blocks target in
  let suite_cov = Bitset.count (Engine.suite_coverage target) in
  let recovery_total = Target.recovery_blocks_total target in
  let exh_extra = exh.Session.covered_blocks - suite_cov in
  let fg_extra = fg.Session.covered_blocks - suite_cov in
  note "";
  note "Recovery-code analysis (cf. \u{00A7}7.2):";
  note "  suite coverage without injection : %.2f%% (%d blocks)"
    (100.0 *. float_of_int suite_cov /. float_of_int total)
    suite_cov;
  note "  recovery-only blocks in target   : %d (%.2f%% of code)" recovery_total
    (100.0 *. float_of_int recovery_total /. float_of_int total);
  note "  extra blocks, exhaustive         : %d (all reachable recovery code)" exh_extra;
  note "  extra blocks, fitness @ %d      : %d (%s of reachable recovery code, \
        sampling %.0f%%%% of the space)"
    iterations fg_extra
    (if exh_extra = 0 then "-" else Printf.sprintf "%d%%" (100 * fg_extra / exh_extra))
    (100.0 *. float_of_int iterations /. float_of_int cardinality);
  note "  (paper: 95%% of recovery code covered while sampling 15%% of the space)"

(* ------------------------------------------------------------------ *)
(* Fig. 8: failures vs iteration                                       *)
(* ------------------------------------------------------------------ *)

let fig8 ?(iterations = 500) () =
  section "Figure 8: cumulative test failures, fitness-guided vs random";
  let target = Coreutils.target () in
  let sub = Coreutils.space () in
  let executor = Afex.Executor.of_target target in
  let fg = Session.run ~iterations (Config.fitness_guided ~seed:808 ()) sub executor in
  let rnd = Session.run ~iterations (Config.random_search ~seed:808 ()) sub executor in
  let to_floats a = Array.map float_of_int a in
  print_string
    (Figure.line_chart
       ~series:
         [
           ("fitness-guided", to_floats fg.Session.failure_curve);
           ("random", to_floats rnd.Session.failure_curve);
         ]
       ~x_label:"iteration (#faults sampled)" ~y_label:"cumulative test failures" ());
  note "Paper: the gap between the curves widens with iteration count as the";
  note "fitness-guided search infers the space structure."

(* ------------------------------------------------------------------ *)
(* Table 4: benefit of fault space structure                           *)
(* ------------------------------------------------------------------ *)

let table4 ?(iterations = 1000)
    ?(seeds = [ 404; 405; 406; 407; 408; 409; 410; 411; 412; 413 ]) () =
  section
    (Printf.sprintf
       "Table 4: efficiency under structure loss (Apache httpd, mean of %d seeds)"
       (List.length seeds));
  let target = Apache.target () in
  let sub = Apache.space () in
  let executor = Afex.Executor.of_target target in
  (* Each variant runs under several (search seed, shuffle seed) pairs and
     reports mean counts: a single shuffle can accidentally preserve some
     structure, so the effect only shows in expectation. *)
  let mean_of run_variant =
    let totals =
      List.map
        (fun seed ->
          let r = run_variant seed in
          (r.Session.failed, r.Session.crashed))
        seeds
    in
    let n = List.length seeds in
    let f = List.fold_left (fun acc (x, _) -> acc + x) 0 totals / n in
    let c = List.fold_left (fun acc (_, x) -> acc + x) 0 totals / n in
    (f, c)
  in
  let fitness_with transform seed =
    Session.run ?transform ~iterations (Config.fitness_guided ~seed ()) sub executor
  in
  let original = mean_of (fun seed -> fitness_with None seed) in
  let shuffled axis =
    mean_of (fun seed ->
        let sh = Shuffle.shuffle_axis (Rng.create (9000 + (17 * seed) + axis)) sub ~axis in
        fitness_with (Some (Shuffle.to_target sh)) seed)
  in
  let r_test = shuffled 0 in
  let r_func = shuffled 1 in
  let r_call = shuffled 2 in
  let random =
    mean_of (fun seed ->
        Session.run ~iterations (Config.random_search ~seed ()) sub executor)
  in
  let results =
    [
      ("Original structure", original);
      ("Rand. Xtest", r_test);
      ("Rand. Xfunc", r_func);
      ("Rand. Xcall", r_call);
      ("Random search", random);
    ]
  in
  print_string
    (Table.render
       ~headers:("Apache httpd" :: List.map fst results)
       ~rows:
         [
           "% failed tests"
           :: List.map (fun (_, (f, _)) -> pct f iterations) results;
           "% crashes" :: List.map (fun (_, (_, c)) -> pct c iterations) results;
         ]
       ());
  note "";
  note "Paper: failed 73%% / 59%% / 43%% / 48%% / 23%%; crashes 25%% / 22%% / 13%% / 17%% / 2%%";
  note "Expected shape: every shuffled axis degrades the guided search, and";
  note "uninformed random search is worst."

(* ------------------------------------------------------------------ *)
(* Table 5: result-quality feedback                                    *)
(* ------------------------------------------------------------------ *)

let table5 ?(iterations = 1000) () =
  section "Table 5: redundancy feedback (Apache httpd, 1,000 iterations)";
  let target = Apache.target () in
  let sub = Apache.space () in
  let executor = Afex.Executor.of_target target in
  let fg = Session.run ~iterations (Config.fitness_guided ~seed:505 ()) sub executor in
  let fgf =
    Session.run ~iterations
      { (Config.fitness_guided ~seed:505 ()) with Config.feedback = true }
      sub executor
  in
  let rnd = Session.run ~iterations (Config.random_search ~seed:505 ()) sub executor in
  let row name f = [ name; f fg; f fgf; f rnd ] in
  print_string
    (Table.render
       ~headers:[ "Apache httpd"; "Fitness"; "Fitness+feedback"; "Random" ]
       ~rows:
         [
           row "# failed tests" (fun r -> string_of_int r.Session.failed);
           row "# unique failures" (fun r -> string_of_int r.Session.distinct_failure_traces);
           row "# unique crashes" (fun r -> string_of_int r.Session.distinct_crash_traces);
         ]
       ());
  note "";
  note "Paper: failed 736 / 512 / 238; unique failures 249 / 348 / 190; unique crashes 4 / 7 / 2";
  note "Expected shape: feedback trades raw failure count for more unique";
  note "failures and crashes."

(* ------------------------------------------------------------------ *)
(* Table 6: system-specific knowledge                                  *)
(* ------------------------------------------------------------------ *)

let count_malloc_target_faults target test_ids =
  (* Exhaustively enumerate the malloc faults at call numbers 1-2 in the
     given tests and count those that fail — the ground truth for the
     "find all K" search target. *)
  let failing = ref [] in
  List.iter
    (fun test_id ->
      List.iter
        (fun call_number ->
          let fault = Fault.make ~test_id ~func:"malloc" ~call_number () in
          let outcome = Engine.run target fault in
          if Outcome.failed outcome then failing := fault :: !failing)
        [ 1; 2 ])
    test_ids;
  List.rev !failing

let table6 ?(cap = 30000) () =
  section "Table 6: leveraging system-specific knowledge (ln + mv, coreutils)";
  let target = Coreutils.target () in
  let executor = Afex.Executor.of_target target in
  let ln_mv = Coreutils.ln_mv_test_ids in
  let goal = List.length (count_malloc_target_faults target ln_mv) in
  note "Ground truth: %d malloc faults fail ln/mv (paper: 28)" goal;
  let matches (c : Test_case.t) =
    Test_case.failed c
    && String.equal c.Test_case.fault.Fault.func "malloc"
    && List.mem c.Test_case.fault.Fault.test_id ln_mv
    && c.Test_case.fault.Fault.call_number >= 1
    && c.Test_case.fault.Fault.call_number <= 2
  in
  let stop = { Session.matches; count = goal } in
  let full_space = Coreutils.space () in
  let trimmed_space =
    Afex_simtarget.Spaces.standard ~min_call:0 ~max_call:2
      ~funcs:Coreutils.trimmed_functions target
  in
  let env_relevance = Relevance.of_weights ~default:0.02 Coreutils.env_model in
  let run config sub =
    let r = Session.run ~stop ~iterations:cap config sub executor in
    match r.Session.stop_iteration with
    | Some i -> string_of_int i
    | None -> Printf.sprintf ">%d" r.Session.iterations
  in
  let fitness sub relevance seed =
    run { (Config.fitness_guided ~seed ()) with Config.relevance } sub
  in
  let exhaustive sub seed = run (Config.exhaustive ~seed ()) sub in
  let random sub seed = run (Config.random_search ~seed ()) sub in
  let rows =
    [
      [
        "Black-box AFEX";
        fitness full_space None 601;
        exhaustive full_space 601;
        random full_space 601;
      ];
      [
        "Trimmed fault space";
        fitness trimmed_space None 602;
        exhaustive trimmed_space 602;
        random trimmed_space 602;
      ];
      [
        "Trim + env. model";
        fitness trimmed_space (Some env_relevance) 603;
        exhaustive trimmed_space 603;
        random trimmed_space 603;
      ];
    ]
  in
  print_string
    (Table.render
       ~headers:
         [ "Knowledge level"; "Fitness-guided"; "Exhaustive"; "Random" ]
       ~rows ());
  note "";
  note "(samples needed to find all %d malloc faults; lower is better)" goal;
  note "Paper: black-box 417 / 1,653 / 836; trimmed 213 / 783 / 391;";
  note "       trim+env 103 / 783 / 391";
  note "Expected shape: trimming roughly halves the fitness-guided cost and";
  note "the environment model halves it again; both beat exhaustive/random."

(* ------------------------------------------------------------------ *)
(* Fig. 9: MongoDB development stages                                  *)
(* ------------------------------------------------------------------ *)

let fig9 ?(iterations = 250) () =
  section "Figure 9: AFEX efficiency across MongoDB development stages";
  let run target sub seed config_of =
    let executor = Afex.Executor.of_target target in
    Session.run ~iterations (config_of ?seed:(Some seed) ()) sub executor
  in
  let fg08 = run (Mongodb.target_v08 ()) (Mongodb.space_v08 ()) 904 Config.fitness_guided in
  let rnd08 = run (Mongodb.target_v08 ()) (Mongodb.space_v08 ()) 904 Config.random_search in
  let fg20 = run (Mongodb.target_v20 ()) (Mongodb.space_v20 ()) 904 Config.fitness_guided in
  let rnd20 = run (Mongodb.target_v20 ()) (Mongodb.space_v20 ()) 904 Config.random_search in
  print_string
    (Figure.bar_chart
       ~items:
         [
           ("v0.8 fitness", float_of_int fg08.Session.failed);
           ("v0.8 random", float_of_int rnd08.Session.failed);
           ("v2.0 fitness", float_of_int fg20.Session.failed);
           ("v2.0 random", float_of_int rnd20.Session.failed);
         ]
       ());
  note "";
  note "Measured advantage: v0.8 %s, v2.0 %s (paper: 2.37x and 1.43x)"
    (Table.fmt_ratio (float_of_int fg08.Session.failed) (float_of_int rnd08.Session.failed))
    (Table.fmt_ratio (float_of_int fg20.Session.failed) (float_of_int rnd20.Session.failed));
  note
    "Crashes found by fitness-guided search: v2.0 %d, v0.8 %d (the paper found a v2.0-only crash)"
    fg20.Session.crashed fg08.Session.crashed

(* ------------------------------------------------------------------ *)
(* §7.7: scalability                                                   *)
(* ------------------------------------------------------------------ *)

let scaling ?(iterations = 1000) () =
  section "\u{00A7}7.7: cluster scalability (discrete-event simulation)";
  let target = Apache.target () in
  let sub = Apache.space () in
  let executor = Afex.Executor.of_target target in
  let results =
    Simulation.scaling ~node_counts:[ 1; 2; 4; 8; 14 ] ~iterations
      (Config.fitness_guided ~seed:707 ())
      sub executor
  in
  let baseline = List.hd results in
  print_string
    (Table.render
       ~headers:[ "nodes"; "tests"; "wall (s)"; "tests/s"; "speedup"; "utilization" ]
       ~rows:
         (List.map
            (fun (r : Simulation.result) ->
              [
                string_of_int r.Simulation.nodes;
                string_of_int r.Simulation.tests_executed;
                Printf.sprintf "%.1f" (r.Simulation.wall_ms /. 1000.0);
                Printf.sprintf "%.1f" r.Simulation.throughput_per_s;
                Printf.sprintf "%.2fx" (Simulation.speedup ~baseline r);
                Printf.sprintf "%.0f%%" (100.0 *. r.Simulation.utilization);
              ])
            results)
       ());
  note "";
  note "Paper: throughput scales linearly up to 14 EC2 nodes with no overhead;";
  note "the explorer alone generates ~8,500 tests/second (see the `micro` bench)."

(* ------------------------------------------------------------------ *)
(* Parallel pool: real multicore execution vs the §7.7 prediction      *)
(* ------------------------------------------------------------------ *)

let pool ?(iterations = 2000) ?(jobs_list = [ 1; 2; 4 ]) () =
  section "Parallel pool: real Domain-based speedup vs the \u{00A7}7.7 prediction";
  let cores = Domain.recommended_domain_count () in
  note "host: %d hardware threads available (speedup saturates there)" cores;
  let target = Mysql.target () in
  let sub = Mysql.space () in
  let base = Afex.Executor.of_target target in
  (* The simulated injector answers in microseconds where a real target
     costs milliseconds of wall-clock per test, so dispatch overhead would
     swamp any measurement. Charge a calibrated CPU spin per test to model
     realistic per-test work. *)
  let spin () =
    let acc = ref 0.0 in
    for i = 1 to 60_000 do
      acc := !acc +. sqrt (float_of_int i)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let executor =
    Afex.Executor.of_scenario_fn ~total_blocks:base.Afex.Executor.total_blocks
      ~description:"mysql 5.1.44 (+calibrated spin)" (fun s ->
        spin ();
        base.Afex.Executor.run_scenario s)
  in
  let config = Config.fitness_guided ~seed:4242 () in
  let history (r : Session.result) =
    List.map
      (fun (c : Test_case.t) -> Afex_faultspace.Point.key c.Test_case.point)
      r.Session.executed
  in
  let runs =
    List.map
      (fun jobs ->
        let result, stats =
          Pool.run ~jobs ~iterations config sub (Pool.Pure executor)
        in
        (jobs, result, stats))
      jobs_list
  in
  let _, r1, s1 = List.hd runs in
  let baseline_wall = s1.Pool.wall_ms in
  print_string
    (Table.render
       ~headers:
         [ "jobs"; "wall (s)"; "tests/s"; "speedup"; "cache hits"; "history = jobs 1" ]
       ~rows:
         (List.map
            (fun (jobs, (r : Session.result), (s : Pool.stats)) ->
              [
                string_of_int jobs;
                Printf.sprintf "%.2f" (s.Pool.wall_ms /. 1000.0);
                Printf.sprintf "%.0f"
                  (1000.0 *. float_of_int r.Session.iterations /. s.Pool.wall_ms);
                Printf.sprintf "%.2fx" (baseline_wall /. s.Pool.wall_ms);
                string_of_int s.Pool.cache_hits;
                (if history r = history r1 then "yes" else "NO");
              ])
            runs)
       ());
  note "";
  (* The same node counts through the discrete-event model, for the
     predicted ceiling. *)
  let sims =
    Simulation.scaling ~node_counts:jobs_list ~iterations:1000
      (Config.fitness_guided ~seed:4242 ())
      sub base
  in
  let sim_base = List.hd sims in
  note "discrete-event prediction (\u{00A7}7.7 model) for the same node counts:";
  List.iter
    (fun (s : Simulation.result) ->
      note "  %2d nodes -> %.2fx predicted speedup" s.Simulation.nodes
        (Simulation.speedup ~baseline:sim_base s))
    sims;
  note "";
  note "Paper: tests/second scales linearly in the number of nodes (\u{00A7}7.7).";
  note "Measured speedup tracks the prediction up to the host's %d hardware" cores;
  note "threads; on a single-core host the pool degrades gracefully to ~1x.";
  note "The explored-point history must read `yes` on every row: the search";
  note "is replayable at any parallelism (same seed => same campaign)."

(* ------------------------------------------------------------------ *)
(* Remote dispatch over the wire protocol (§6.1)                       *)
(* ------------------------------------------------------------------ *)

let remote ?(iterations = 1500) () =
  section "Remote dispatch: the Fig. 2 wire protocol vs in-process workers";
  let target = Mysql.target () in
  let sub = Mysql.space () in
  let base = Afex.Executor.of_target target in
  (* Same calibrated spin as the `pool` experiment: the simulated injector
     answers in microseconds, so without it the framing/syscall cost of
     the wire would swamp the comparison. *)
  let spin () =
    let acc = ref 0.0 in
    for i = 1 to 60_000 do
      acc := !acc +. sqrt (float_of_int i)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let executor =
    Afex.Executor.of_scenario_fn ~total_blocks:base.Afex.Executor.total_blocks
      ~description:"mysql 5.1.44 (+calibrated spin)" (fun s ->
        spin ();
        base.Afex.Executor.run_scenario s)
  in
  let config () = Config.fitness_guided ~seed:4242 () in
  let history (r : Session.result) =
    List.map
      (fun (c : Test_case.t) -> Afex_faultspace.Point.key c.Test_case.point)
      r.Session.executed
  in
  (* Each remote worker is a real server loop on its own domain behind a
     real socketpair — the same code path as TCP minus the network. *)
  let with_loopbacks n f =
    let lbs =
      List.init n (fun i ->
          Remote_manager.Loopback.create
            ~name:(Printf.sprintf "loopback-%d" i)
            ~executor ())
    in
    let specs = List.map Remote_manager.Loopback.spec lbs in
    let result = f specs in
    List.iter Remote_manager.Loopback.shutdown lbs;
    result
  in
  let measure name ~jobs ~managers =
    let (result : Session.result), (stats : Pool.stats) =
      with_loopbacks managers (fun specs ->
          Pool.run ~remotes:specs ~jobs ~iterations (config ()) sub
            (Pool.Pure executor))
    in
    (name, jobs, managers, result, stats)
  in
  let runs =
    [
      measure "local only" ~jobs:2 ~managers:0;
      measure "remote only" ~jobs:0 ~managers:2;
      measure "mixed" ~jobs:1 ~managers:1;
    ]
  in
  let _, _, _, r_local, s_local = List.hd runs in
  print_string
    (Table.render
       ~headers:
         [
           "workers";
           "jobs";
           "managers";
           "wall (s)";
           "tests/s";
           "wire runs";
           "fallbacks";
           "history = local";
         ]
       ~rows:
         (List.map
            (fun (name, jobs, managers, (r : Session.result), (s : Pool.stats)) ->
              [
                name;
                string_of_int jobs;
                string_of_int managers;
                Printf.sprintf "%.2f" (s.Pool.wall_ms /. 1000.0);
                Printf.sprintf "%.0f"
                  (1000.0 *. float_of_int r.Session.iterations /. s.Pool.wall_ms);
                string_of_int s.Pool.remote_runs;
                string_of_int s.Pool.remote_fallbacks;
                (if history r = history r_local then "yes" else "NO");
              ])
            runs)
       ());
  note "";
  (* Per-test cost of the wire: remote-only vs local-only at equal worker
     count isolates the encode/frame/syscall/decode round-trip. *)
  (match runs with
  | [ _; (_, _, _, r_remote, s_remote); _ ] ->
      let per_test wall (r : Session.result) =
        1000.0 *. wall /. float_of_int r.Session.iterations
      in
      let overhead =
        per_test s_remote.Pool.wall_ms r_remote -. per_test s_local.Pool.wall_ms r_local
      in
      note "wire dispatch overhead: %+.0f us/test (remote-only vs local-only, 2 workers each)"
        overhead
  | _ -> ());
  let sims =
    Simulation.scaling ~node_counts:[ 1; 2 ] ~iterations:1000 (config ()) sub base
  in
  (match sims with
  | [ one; two ] ->
      note "discrete-event prediction (\u{00A7}7.7 model): 2 nodes -> %.2fx over 1"
        (Simulation.speedup ~baseline:one two)
  | _ -> ());
  note "";
  note "Paper: the explorer ships scenarios to node managers over a text";
  note "protocol (Fig. 2) and merges results centrally; AFEX's search is";
  note "agnostic to where a test physically ran. Every row must read `yes`:";
  note "local domains, remote managers and mixed fleets explore the exact";
  note "same history for a fixed seed."

(* ------------------------------------------------------------------ *)
(* Async executor: overlapping latency-bound tests on one domain       *)
(* ------------------------------------------------------------------ *)

let async ?(iterations = 400) ?(inflight_list = [ 1; 4; 8; 32 ]) () =
  section "Async executor: latency-bound target, one domain, --inflight N";
  let target = Apache.target () in
  let sub = Apache.space () in
  let base = Afex.Executor.of_target target in
  (* Every test gets a deterministic simulated service time with a 2 ms
     mean — the same order as the §7.7 dispatch overhead, and the regime
     where a real fork/exec'd target spends its wall-clock waiting rather
     than computing. The blocking baseline pays each latency in sequence;
     the event loop overlaps up to [inflight] of them. *)
  let dist = Target.Uniform { lo = 1.0; hi = 3.0 } in
  let model = Target.latency_model ~seed:31 dist in
  let mean = Target.mean_latency_ms model in
  note "latency model: %s (mean %.2f ms/test, seeded => replayable)"
    (Target.latency_dist_to_string dist)
    mean;
  let delay_ms scenario =
    Target.latency_ms model (Afex_faultspace.Scenario.to_string scenario)
  in
  let async_exec () = Afex.Executor.delayed ~delay_ms base in
  let config () = Config.fitness_guided ~seed:2718 () in
  let history (r : Session.result) =
    List.map
      (fun (c : Test_case.t) -> Afex_faultspace.Point.key c.Test_case.point)
      r.Session.executed
  in
  let measure name ~inflight pool_exec =
    let pool = Pool.create ~inflight ~jobs:1 pool_exec in
    let result, stats = Pool.session ~iterations pool (config ()) sub in
    let astats = Pool.async_stats pool in
    Pool.shutdown pool;
    (name, inflight, result, stats, astats)
  in
  let blocking =
    measure "blocking worker" ~inflight:1
      (Pool.Pure (Afex.Executor.sync_of_async (async_exec ())))
  in
  let runs =
    blocking
    :: List.map
         (fun inflight ->
           measure
             (Printf.sprintf "inflight %d" inflight)
             ~inflight
             (Pool.Async (async_exec ())))
         inflight_list
  in
  let _, _, r_blocking, s_blocking, _ = blocking in
  print_string
    (Table.render
       ~headers:
         [
           "mode"; "wall (s)"; "tests/s"; "speedup"; "max in flight";
           "history = blocking";
         ]
       ~rows:
         (List.map
            (fun (name, _, (r : Session.result), (s : Pool.stats), astats) ->
              [
                name;
                Printf.sprintf "%.2f" (s.Pool.wall_ms /. 1000.0);
                Printf.sprintf "%.0f"
                  (1000.0 *. float_of_int r.Session.iterations /. s.Pool.wall_ms);
                Printf.sprintf "%.2fx" (s_blocking.Pool.wall_ms /. s.Pool.wall_ms);
                (match astats with
                | Some a -> string_of_int a.Async_executor.max_inflight
                | None -> "-");
                (if history r = history r_blocking then "yes" else "NO");
              ])
            runs)
       ());
  note "";
  (* Per-test event-loop overhead: what the wall clock costs beyond the
     perfectly-overlapped latency floor, vs the 2 ms/test messaging
     overhead the §7.7 discrete-event model charges for dispatch. *)
  List.iter
    (fun (name, inflight, _, (s : Pool.stats), astats) ->
      match astats with
      | None -> ()
      | Some a ->
          let executed = float_of_int s.Pool.executed in
          let floor_ms = executed *. mean /. float_of_int inflight in
          let overhead = (s.Pool.wall_ms -. floor_ms) /. executed in
          note
            "  %-11s: %+.3f ms/test over the latency floor (%d wakeups; \
             \u{00A7}7.7 model charges %.1f ms/test for dispatch)"
            name overhead a.Async_executor.wakeups
            Simulation.default_config.Simulation.dispatch_ms)
    runs;
  note "";
  note "Every history cell must read `yes`: completions merge in submission";
  note "order, so the campaign replays bit-identically at any concurrency.";
  note "Expected shape: speedup approaches the window size while latency";
  note "dominates, then saturates once the overlapped latency floor drops";
  note "under the loop's own bookkeeping; >=3x at inflight 8.";
  note "(Paper \u{00A7}7.7: one explorer saturates ~8,500 tests/s; keeping many";
  note "slow tests in flight per node is how a small cluster reaches it.)"

let ablation ?(iterations = 1000) () =
  section "Ablation: AFEX design choices (Apache httpd, 1,000 iterations)";
  let target = Apache.target () in
  let sub = Apache.space () in
  let executor = Afex.Executor.of_target target in
  let base_params = Afex.Mutator.default_params in
  let run name config =
    let r = Session.run ~iterations config sub executor in
    [ name; string_of_int r.Session.failed; string_of_int r.Session.crashed;
      string_of_int r.Session.distinct_failure_traces ]
  in
  let fg params = { (Config.fitness_guided ~seed:606 ()) with
                    Config.strategy = Config.Fitness_guided params } in
  let rows =
    [
      run "full AFEX (Algorithm 1)" (fg base_params);
      run "uniform axis choice (no sensitivity)"
        (fg { base_params with Afex.Mutator.uniform_axis_choice = true });
      run "uniform value choice (no Gaussian)"
        (fg { base_params with Afex.Mutator.uniform_value_choice = true });
      run "no aging"
        { (fg base_params) with Config.aging_decay = 1.0; retire_threshold = 0.0 };
      run "drop-min eviction"
        { (fg base_params) with Config.eviction = Afex.Pqueue.Drop_min };
      run "dynamic sigma (extension)"
        (fg { base_params with Afex.Mutator.dynamic_sigma = true });
      run "random search" (Config.random_search ~seed:606 ());
    ]
  in
  print_string
    (Table.render
       ~headers:[ "variant"; "# failed"; "# crashes"; "# unique failures" ]
       ~rows ());
  note "";
  note "Each row disables one mechanism of Algorithm 1. The full algorithm";
  note "should clearly beat the mutation ablations (uniform axis/value choice)";
  note "and random search; eviction policy and aging are second-order effects";
  note "whose benefit shows on pathological spaces (outlier peaks, see tests)."

(* ------------------------------------------------------------------ *)
(* Extension: multi-fault scenarios (§6 mentions them; the evaluation  *)
(* is restricted to single faults, so this is the paper's natural      *)
(* follow-on experiment)                                               *)
(* ------------------------------------------------------------------ *)

let multifault ?(iterations = 2500) () =
  section "Extension: multi-fault exploration (Apache httpd)";
  let target = Apache.target () in
  let latent_stack = Apache.latent_bug_stack () in
  (* 1. No single-fault probe can expose the latent log-rotation bug:
     exhaustively fail every write call of every test that reaches it. *)
  let single_hits = ref 0 in
  List.iter
    (fun test_id ->
      List.iter
        (fun call_number ->
          let fault = Fault.make ~test_id ~func:"write" ~call_number () in
          let o = Engine.run target fault in
          if o.Outcome.crash_stack = Some latent_stack then incr single_hits)
        (List.init 12 (fun k -> k + 1)))
    (List.init 58 (fun i -> i));
  note "single-fault exhaustive sweep over write faults: %d latent-bug crashes" !single_hits;
  (* 2. Multi-fault search over the compound space. *)
  let sub = Apache.multi_space () in
  note "compound space |Phi| = %d (testId x (function x callNumber)^2)"
    (Subspace.cardinality sub);
  let executor = Afex.Executor.of_target_multi target in
  let run config = Session.run ~iterations config sub executor in
  (* Redundancy feedback is essential here: without it the guided search
     farms the dense ordinary-crash clusters forever and never pays the
     exploration cost of a compound, rare bug (cf. §7.4). *)
  let fg =
    run { (Config.fitness_guided ~seed:271 ()) with Config.feedback = true }
  in
  let rnd = run (Config.random_search ~seed:271 ()) in
  let latent_hits r =
    List.length
      (List.filter
         (fun (c : Test_case.t) -> c.Test_case.crash_stack = Some latent_stack)
         r.Session.executed)
  in
  let first_latent r =
    let rec scan i = function
      | [] -> "-"
      | (c : Test_case.t) :: rest ->
          if c.Test_case.crash_stack = Some latent_stack then string_of_int i
          else scan (i + 1) rest
    in
    scan 1 r.Session.executed
  in
  print_string
    (Table.render
       ~headers:[ "2-fault scenarios"; "Fitness+feedback"; "Random" ]
       ~rows:
         [
           [ "# failed tests"; string_of_int fg.Session.failed; string_of_int rnd.Session.failed ];
           [ "# crashes"; string_of_int fg.Session.crashed; string_of_int rnd.Session.crashed ];
           [
             "# latent-bug crashes";
             string_of_int (latent_hits fg);
             string_of_int (latent_hits rnd);
           ];
           [ "first latent hit at"; first_latent fg; first_latent rnd ];
         ]
       ());
  note "";
  note "The latent recovery bug (write failure during recovery from an earlier";
  note "fault) is invisible to every single-fault probe (0 hits above) but";
  note "reachable in the compound space. Feedback-guided search both finds";
  note "more of its manifestations and dominates on overall failures and";
  note "crashes; without the feedback loop, plain fitness-guided search farms";
  note "the dense single-fault crash clusters and misses the compound bug";
  note "entirely."


(* ------------------------------------------------------------------ *)
(* Extension: static-analysis seeding (the §4 suggestion)              *)
(* ------------------------------------------------------------------ *)

let seeding ?(iterations = 400) () =
  section "Extension: seeding the search with static-analysis findings (\u{00A7}4)";
  let target = Apache.target () in
  let sub = Apache.space () in
  let executor = Afex.Executor.of_target target in
  let findings = Afex_simtarget.Analyzer.analyze ~recall:0.7 ~precision:0.6 target in
  note "analyzer flagged %d callsites (imperfect on purpose: recall 0.7, precision 0.6)"
    (List.length findings);
  let seeds = Afex.Seeding.points_for sub target findings ~max_seeds:40 in
  note "%d injection seeds derived from the findings" (List.length seeds);
  let first_crash r =
    let rec scan i = function
      | [] -> "-"
      | (c : Test_case.t) :: rest ->
          if Test_case.crashed c then string_of_int i else scan (i + 1) rest
    in
    scan 1 r.Session.executed
  in
  let totals config =
    List.fold_left
      (fun (f, c, firsts) seed ->
        let r = Session.run ~iterations (config seed) sub executor in
        (f + r.Session.failed, c + r.Session.crashed, firsts ^ " " ^ first_crash r))
      (0, 0, "") [ 71; 72; 73 ]
  in
  let plain_f, plain_c, plain_first =
    totals (fun seed -> Config.fitness_guided ~seed ())
  in
  let seeded_f, seeded_c, seeded_first =
    totals (fun seed ->
        { (Config.fitness_guided ~seed ()) with Config.initial_seeds = seeds })
  in
  print_string
    (Table.render
       ~headers:[ Printf.sprintf "totals over 3 seeds x %d iters" iterations;
                  "Black-box"; "Analysis-seeded" ]
       ~rows:
         [
           [ "# failed tests"; string_of_int plain_f; string_of_int seeded_f ];
           [ "# crashes"; string_of_int plain_c; string_of_int seeded_c ];
           [ "first crash at iteration"; plain_first; seeded_first ];
         ]
       ());
  note "";
  note "Seeding should find the first crash sooner and lift the early totals;";
  note "the search then outgrows the (imperfect) analysis rather than being";
  note "limited by it."

(* ------------------------------------------------------------------ *)
(* Extension: performance-impact search over a network fault injector  *)
(* (§2's requests-per-second metric; §6's "top-50 worst faults         *)
(* performance-wise" search target; §3's tool-independence claim)      *)
(* ------------------------------------------------------------------ *)

let perf ?(iterations = 600) () =
  section "Extension: worst faults performance-wise (network packet drops)";
  let server = Afex_simtarget.Netsim.httpd_like () in
  let sub = Afex_injector.Netfault.space server in
  note "drop space |Phi| = %d (workload x connection x packet)" (Subspace.cardinality sub);
  let executor =
    Afex.Executor.of_scenario_fn
      ~total_blocks:(Afex_injector.Netfault.total_request_blocks server)
      ~description:"httpd-net packet drops"
      (Afex_injector.Netfault.run_scenario server)
  in
  let sensor = Afex_injector.Netfault.throughput_loss_sensor server in
  let config sensor_config seed = { (sensor_config ?seed:(Some seed) ()) with Config.sensor } in
  let fg = Session.run ~iterations (config Config.fitness_guided 909) sub executor in
  let rnd = Session.run ~iterations (config Config.random_search 909) sub executor in
  let loss_of (c : Test_case.t) =
    Afex_injector.Netfault.throughput_loss server c.Test_case.fault
  in
  let total_loss r =
    List.fold_left (fun acc c -> acc +. loss_of c) 0.0 r.Session.executed
  in
  let heavy r =
    List.length (List.filter (fun c -> loss_of c > 10.0) r.Session.executed)
  in
  print_string
    (Table.render
       ~headers:[ "packet drops"; "Fitness-guided"; "Random" ]
       ~rows:
         [
           [
             "cumulative throughput loss found";
             Printf.sprintf "%.0f%%-pts" (total_loss fg);
             Printf.sprintf "%.0f%%-pts" (total_loss rnd);
           ];
           [
             "drops costing >10% throughput";
             string_of_int (heavy fg);
             string_of_int (heavy rnd);
           ];
           [
             "requests lost (failed runs)";
             string_of_int fg.Session.failed;
             string_of_int rnd.Session.failed;
           ];
         ]
       ());
  note "";
  note "top 10 worst faults performance-wise (fitness-guided result set):";
  let by_loss =
    List.sort (fun a b -> compare (loss_of b) (loss_of a)) fg.Session.executed
  in
  List.iteri
    (fun i (c : Test_case.t) ->
      if i < 10 then begin
        let d = Afex_injector.Netfault.drop_of_fault c.Test_case.fault in
        note "  %2d. workload %d, connection %2d, packet %3d -> %.1f%% throughput lost"
          (i + 1) d.Afex_simtarget.Netsim.workload d.Afex_simtarget.Netsim.connection
          d.Afex_simtarget.Netsim.packet (loss_of c)
      end)
    by_loss;
  note "";
  (* Burst drops: the same hunt over < lo, hi > sub-interval windows. *)
  let bsub = Afex_injector.Netfault.burst_space server in
  let bexec =
    Afex.Executor.of_scenario_fn
      ~total_blocks:(Afex_injector.Netfault.total_request_blocks server)
      ~description:"httpd-net loss bursts"
      (Afex_injector.Netfault.run_burst_scenario server)
  in
  let bsensor = Afex_injector.Netfault.burst_loss_sensor server in
  let brun strategy =
    Session.run ~iterations
      { (strategy ()) with Config.sensor = bsensor }
      bsub bexec
  in
  let bfg = brun (fun () -> Config.fitness_guided ~seed:911 ()) in
  let brnd = brun (fun () -> Config.random_search ~seed:911 ()) in
  let bloss r =
    List.fold_left
      (fun acc (c : Test_case.t) ->
        acc +. Afex_injector.Netfault.burst_throughput_loss server c.Test_case.fault)
      0.0 r.Session.executed
  in
  note "loss bursts (< lo, hi > sub-interval windows), |Phi| = %d:"
    (Subspace.cardinality bsub);
  print_string
    (Table.render
       ~headers:[ "loss bursts"; "Fitness-guided"; "Random" ]
       ~rows:
         [
           [
             "cumulative throughput loss found";
             Printf.sprintf "%.0f%%-pts" (bloss bfg);
             Printf.sprintf "%.0f%%-pts" (bloss brnd);
           ];
           [
             "runs losing requests";
             string_of_int bfg.Session.failed;
             string_of_int brnd.Session.failed;
           ];
         ]
       ());
  note "";
  note "Same explorer, different injector and impact metric: the guided";
  note "search needs no change to hunt performance bugs instead of crashes,";
  note "and sub-interval axes (loss windows) mutate like any other attribute."

(* ------------------------------------------------------------------ *)
(* Barrierless window on the event loop: unbounded vs every static one *)
(* ------------------------------------------------------------------ *)

let steal ?(smoke = false) ?iterations ?(windows = [ 1; 4; 8; 32; 128 ]) () =
  section
    "Barrierless window (event loop): window=inf vs static windows \
     (BENCH_steal.json)";
  let iterations =
    match iterations with Some n -> n | None -> if smoke then 1200 else 5000
  in
  let target = Apache.target () in
  let sub = Apache.space () in
  let base = Afex.Executor.of_target target in
  (* The barrier pool had to pick a window: too small starves workers,
     too large stalls the merge. The barrierless runtime has no merge
     barrier, so the window only bounds feedback lag — an unbounded
     window (capped by the sync watermarks alone) should saturate every
     latency regime without tuning. Smoke keeps the gate cheap: the fast
     model only. *)
  let models =
    let all =
      [
        ("fast", Target.Fixed 0.1);
        ("slow", Target.Fixed 2.0);
        ("bimodal", Target.Bimodal { fast = 0.3; slow = 8.0; slow_share = 0.15 });
      ]
    in
    if smoke then [ List.hd all ] else all
  in
  let pool_exec dist =
    let model = Target.latency_model ~seed:31 dist in
    Pool.Async
      (Afex.Executor.delayed
         ~delay_ms:(fun scenario ->
           Target.latency_ms model (Afex_faultspace.Scenario.to_string scenario))
         base)
  in
  let config () = Config.fitness_guided ~seed:2718 () in
  let run ?sync_every ~inflight ~batch_size dist =
    let pool = Pool.create ~inflight ~jobs:1 (pool_exec dist) in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.session ?sync_every ~batch_size ~iterations pool (config ()) sub)
  in
  let throughput (s : Pool.stats) n =
    if s.Pool.wall_ms <= 0.0 then 0.0
    else 1000.0 *. float_of_int n /. s.Pool.wall_ms
  in
  let regression = ref false in
  let model_jsons =
    List.map
      (fun (name, dist) ->
        note "--- %s: %s ---" name (Target.latency_dist_to_string dist);
        let statics =
          List.map
            (fun w ->
              let r, s = run ~inflight:w ~batch_size:w dist in
              (w, throughput s r.Session.iterations, s))
            windows
        in
        (* window=inf: no submission bound at all (the CLI spelling is
           --batch 0). No checkpoint is armed, so the sync watermarks buy
           nothing here and are pushed past the campaign — otherwise the
           unbounded window degenerates into a 512-wide barrier every
           sync_every releases. The event loop still needs a concrete
           capacity; give it the widest static window. *)
        let ir, istats =
          run ~sync_every:max_int ~inflight:512 ~batch_size:max_int dist
        in
        let i_tp = throughput istats ir.Session.iterations in
        let best =
          List.fold_left (fun acc (_, tp, _) -> Float.max acc tp) 0.0 statics
        in
        (* "Matches or beats": within measurement noise of the best static
           window, with zero tuning. 5% is well above run-to-run jitter on
           the latency floor and well below any real window mistake. *)
        let ok = i_tp >= 0.95 *. best in
        if not ok then regression := true;
        print_string
          (Table.render
             ~headers:[ "window"; "wall (s)"; "tests/s"; "vs best" ]
             ~rows:
               (List.map
                  (fun (w, tp, (s : Pool.stats)) ->
                    [
                      string_of_int w;
                      Printf.sprintf "%.2f" (s.Pool.wall_ms /. 1000.0);
                      Printf.sprintf "%.0f" tp;
                      Printf.sprintf "%.2fx" (tp /. best);
                    ])
                  statics
                @ [
                    [
                      "inf";
                      Printf.sprintf "%.2f" (istats.Pool.wall_ms /. 1000.0);
                      Printf.sprintf "%.0f" i_tp;
                      Printf.sprintf "%.2fx" (i_tp /. best);
                    ];
                  ])
             ());
        note "  window=inf: %.2fx best static -> %s" (i_tp /. best)
          (if ok then "ok" else "REGRESSION");
        note "";
        let static_json =
          String.concat ", "
            (List.map
               (fun (w, tp, (s : Pool.stats)) ->
                 Printf.sprintf
                   "{\"window\": %d, \"wall_ms\": %.1f, \"throughput\": %.1f}" w
                   s.Pool.wall_ms tp)
               statics)
        in
        Printf.sprintf
          "{\"model\": %S, \"dist\": %S, \"static\": [%s], \"unbounded\": \
           {\"wall_ms\": %.1f, \"throughput\": %.1f, \"vs_best_static\": %.3f, \
           \"ok\": %b}}"
          name
          (Target.latency_dist_to_string dist)
          static_json istats.Pool.wall_ms i_tp (i_tp /. best) ok)
      models
  in
  let json =
    Printf.sprintf "{%s, \"iterations\": %d, \"smoke\": %b, \"models\": [%s]}\n"
      (bench_header ()) iterations smoke
      (String.concat ", " model_jsons)
  in
  let oc = open_out "BENCH_steal.json" in
  output_string oc json;
  close_out oc;
  note "machine-readable results written to BENCH_steal.json";
  note "";
  note "Expected shape: with the merge barrier gone the window only bounds";
  note "feedback lag, so the untuned unbounded window saturates the latency";
  note "floor on every model and matches (>= 0.95x) the best static window.";
  if !regression then begin
    prerr_endline
      "steal: REGRESSION - the unbounded window fell below the best static \
       window; the barrierless runtime is leaving throughput on the table";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Redundancy engine: incremental interned index vs batch reference    *)
(* ------------------------------------------------------------------ *)

(* The seed redundancy feedback, kept verbatim as the reference: a
   string-keyed exact table plus a linear fold of full-DP similarities
   over every distinct trace. *)
module Seed_feedback = struct
  type t = {
    exact : (string, unit) Hashtbl.t;
    mutable traces : string array list;
  }

  let create () = { exact = Hashtbl.create 64; traces = [] }
  let key trace = String.concat "\x00" trace

  let weight t trace =
    if Hashtbl.mem t.exact (key trace) then 0.0
    else begin
      let candidate = Array.of_list trace in
      let best =
        List.fold_left
          (fun acc known ->
            Float.max acc (Afex_quality.Levenshtein.similarity candidate known))
          0.0 t.traces
      in
      1.0 -. best
    end

  let register t trace =
    let k = key trace in
    if not (Hashtbl.mem t.exact k) then begin
      Hashtbl.add t.exact k ();
      t.traces <- Array.of_list trace :: t.traces
    end

  let weigh_fitness t ~trace fitness =
    let w = weight t trace in
    register t trace;
    fitness *. w
end

(* A synthetic crash-trace corpus shaped like a long campaign: a few
   hundred underlying bug sites, each manifesting through a handful of
   near-identical stack variants, sampled with heavy repetition. Distinct
   traces stay bounded while the outcome stream grows, exactly the regime
   where the seed implementation's per-outcome linear scan and end-of-run
   quadratic clustering dominate. *)
let quality_corpus ~seed n =
  let rng = Rng.create seed in
  let fresh_frame () =
    Printf.sprintf "lib%d.so:fn_%d (file_%d.c:%d)" (Rng.int rng 7)
      (Rng.int rng 5000) (Rng.int rng 120) (Rng.int rng 997)
  in
  let n_sites = max 8 (n / 100) in
  let sites =
    Array.init n_sites (fun _ ->
        Array.init (4 + Rng.int rng 28) (fun _ -> fresh_frame ()))
  in
  let variants =
    Array.map
      (fun base ->
        let n_variants = 1 + Rng.int rng 8 in
        Array.init n_variants (fun v ->
            if v = 0 then Array.to_list base
            else begin
              let t = Array.copy base in
              (* 1-2 frame substitutions: same bug, slightly different path *)
              for _ = 1 to 1 + Rng.int rng 2 do
                t.(Rng.int rng (Array.length t)) <- fresh_frame ()
              done;
              Array.to_list t
            end))
      sites
  in
  List.init n (fun _ ->
      let site = variants.(Rng.int rng n_sites) in
      let trace = site.(Rng.int rng (Array.length site)) in
      (trace, 1.0 +. Rng.float rng 9.0))

(* Canonical partition view: each item mapped to the first item of its
   cluster, plus the representative list. Comparing these compares
   assignments and representatives without depending on hash order. *)
let batch_assignment traces =
  let items = List.mapi (fun i tr -> (i, tr)) traces in
  let clusters = Afex_quality.Clustering.cluster ~trace:snd items in
  let assign = Array.make (List.length traces) (-1) in
  List.iter
    (fun c ->
      let rep = fst c.Afex_quality.Clustering.representative in
      List.iter
        (fun (i, _) -> assign.(i) <- rep)
        c.Afex_quality.Clustering.members)
    clusters;
  (assign, List.map (fun c -> fst c.Afex_quality.Clustering.representative) clusters)

let index_assignment index n =
  let clusters = Afex_quality.Index.clusters index in
  let assign = Array.make n (-1) in
  List.iter
    (fun members ->
      let rep = List.hd members in
      List.iter (fun i -> assign.(i) <- rep) members)
    clusters;
  (assign, List.map List.hd clusters)

let quality ?(smoke = false) () =
  section
    "Redundancy engine: interned incremental index vs batch reference \
     (BENCH_quality.json)";
  let sizes = if smoke then [ 300; 1_000 ] else [ 1_000; 10_000; 50_000 ] in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, 1000.0 *. (Unix.gettimeofday () -. t0))
  in
  let corpus_jsons =
    List.map
      (fun n ->
        let corpus = quality_corpus ~seed:(4242 + n) n in
        let traces = List.map fst corpus in
        (* Reference: seed feedback per outcome, batch clustering at the
           end — what Session.summarize used to re-run from scratch. *)
        let (ref_weights, (ref_assign, ref_reps)), ref_ms =
          time (fun () ->
              let fb = Seed_feedback.create () in
              let weights =
                List.map
                  (fun (trace, fitness) ->
                    Seed_feedback.weigh_fitness fb ~trace fitness)
                  corpus
              in
              (weights, batch_assignment traces))
        in
        (* Fast path: shared intern table, filtered bounded-distance
           feedback, incremental cluster index. *)
        let (fast_weights, (fast_assign, fast_reps), distinct, clusters), fast_ms =
          time (fun () ->
              let intern = Afex_quality.Trace_intern.create () in
              let fb = Afex_quality.Feedback.create ~intern () in
              let index = Afex_quality.Index.create ~intern () in
              let weights =
                List.map
                  (fun (trace, fitness) ->
                    let w =
                      Afex_quality.Feedback.weigh_fitness fb ~trace:(Some trace)
                        fitness
                    in
                    Afex_quality.Index.observe index trace;
                    w)
                  corpus
              in
              ( weights,
                index_assignment index n,
                Afex_quality.Index.distinct index,
                Afex_quality.Index.cluster_count index ))
        in
        let weights_identical =
          List.for_all2
            (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
            ref_weights fast_weights
        in
        let clusters_identical =
          (* Same partition, same representative per cluster. The batch
             pass lists equal-sized clusters in hash order, so the rep
             {e sets} are compared rather than their ordering. *)
          ref_assign = fast_assign
          && List.sort compare ref_reps = List.sort compare fast_reps
        in
        if not (weights_identical && clusters_identical) then begin
          note
            "!! divergence on the %d-trace corpus (weights %b, assignment %b, \
             reps %b)"
            n weights_identical
            (ref_assign = fast_assign)
            (List.sort compare ref_reps = List.sort compare fast_reps);
          exit 1
        end;
        let speedup = if fast_ms > 0.0 then ref_ms /. fast_ms else infinity in
        note
          "%6d traces (%4d distinct, %3d clusters): reference %8.1f ms, \
           incremental %7.1f ms -> %5.1fx, results identical"
          n distinct clusters ref_ms fast_ms speedup;
        Printf.sprintf
          "{\"traces\": %d, \"distinct\": %d, \"clusters\": %d, \
           \"reference_ms\": %.1f, \"incremental_ms\": %.1f, \"speedup\": %.1f, \
           \"weights_identical\": %b, \"clusters_identical\": %b}"
          n distinct clusters ref_ms fast_ms speedup weights_identical
          clusters_identical)
      sizes
  in
  let json =
    Printf.sprintf "{%s, \"smoke\": %b, \"corpora\": [%s]}\n"
      (bench_header ()) smoke
      (String.concat ", " corpus_jsons)
  in
  let oc = open_out "BENCH_quality.json" in
  output_string oc json;
  close_out oc;
  note "";
  note "machine-readable results written to BENCH_quality.json";
  note "";
  note "Expected shape: the incremental engine wins by >=10x on the 10k";
  note "corpus (interning makes exact repeats one hash probe; the bag and";
  note "length filters reject cross-bug pairs before any DP; the k-bounded";
  note "kernel exits early on the rest) while weights, assignments and";
  note "representatives stay bit-identical to the seed implementation."

(* ------------------------------------------------------------------ *)
(* Workload: replicated consensus recovery under churn                 *)
(* ------------------------------------------------------------------ *)

module Replsim = Afex_simtarget.Replsim
module Replfault = Afex_injector.Replfault

let replsim_exec cluster =
  Afex.Executor.of_scenario_fn
    ~total_blocks:(Replsim.total_blocks cluster)
    ~description:(Replfault.description cluster)
    (Replfault.run_scenario cluster)

let replsim_deep (c : Test_case.t) =
  match c.Test_case.crash_stack with
  | None -> false
  | Some frames ->
      List.exists
        (fun inv -> List.mem ("invariant:" ^ inv) frames)
        Replsim.deep_invariants

let replsim ?(smoke = false) () =
  section
    "New workload: replicated consensus recovery under churn \
     (BENCH_replsim.json)";
  let n = if smoke then 12 else 120 in
  let rounds = if smoke then 300 else 1200 in
  let cap = if smoke then 12_000 else 25_000 in
  let jobs = max 1 (min 8 (Domain.recommended_domain_count () - 1)) in
  let cluster = Replsim.make ~n ~rounds ~seed:11 () in
  note "%s" (Format.asprintf "%a" Replsim.pp_summary cluster);
  let sub = Replfault.multi_space ~arms:2 cluster in
  let analysis_seeds = Replfault.seed_points ~arms:2 cluster in
  note
    "2-arm compound space over (round, replica, kind, peer): %d scenarios; \
     search cap %d tests, %d worker domains (history is jobs-independent)"
    (Subspace.cardinality sub) cap jobs;
  note
    "guided search is seeded with %d candidate scenarios derived from the \
     churn schedule and baseline leader trace (the §4 seeding idea); random \
     search samples the compound space uniformly"
    (List.length analysis_seeds);
  note "";
  let executor = replsim_exec cluster in
  (* Time to the first planted deep bug: a violation only a correlated
     two-fault scenario can reach (kill the leader while a replica
     recovers from a fault-stale backup, or kill a replica whose catch-up
     stream an ack-drop fault has severed). *)
  let stop = { Session.matches = replsim_deep; count = 1 } in
  let campaign config =
    let result, stats =
      Pool.run ~jobs ~stop ~iterations:cap config sub (Pool.Pure executor)
    in
    let found = List.find_opt replsim_deep result.Session.executed in
    let invariant =
      match found with
      | Some { Test_case.crash_stack = Some frames; _ } ->
          List.fold_left
            (fun acc f ->
              match String.index_opt f ':' with
              | Some i when String.sub f 0 i = "invariant" ->
                  String.sub f (i + 1) (String.length f - i - 1)
              | _ -> acc)
            "-" frames
      | _ -> "-"
    in
    (result, stats, found, invariant)
  in
  let cell (result : Session.result) =
    match result.Session.stop_iteration with
    | Some i -> string_of_int i
    | None -> Printf.sprintf ">%d" result.Session.iterations
  in
  let seeds = if smoke then [ 901 ] else [ 901; 902; 903 ] in
  let guided_found = ref 0 in
  let run_jsons = ref [] in
  let rows =
    List.map
      (fun seed ->
        let g, gs, gf, ginv =
          campaign
            {
              (Config.fitness_guided ~seed ()) with
              Config.initial_seeds = analysis_seeds;
            }
        in
        let r, rs, _, rinv = campaign (Config.random_search ~seed ()) in
        if gf <> None then incr guided_found;
        let scenario =
          match gf with
          | Some c -> Format.asprintf "%a" Afex_injector.Fault.pp c.Test_case.fault
          | None -> "-"
        in
        List.iter
          (fun (strategy, (res : Session.result), (st : Pool.stats), inv) ->
            run_jsons :=
              Printf.sprintf
                "{\"strategy\": \"%s\", \"seed\": %d, \"found\": %b, \
                 \"stop_iteration\": %s, \"invariant\": \"%s\", \"tests\": %d, \
                 \"wall_ms\": %.0f}"
                strategy seed
                (res.Session.stop_iteration <> None)
                (match res.Session.stop_iteration with
                | Some i -> string_of_int i
                | None -> "null")
                inv res.Session.iterations st.Pool.wall_ms
              :: !run_jsons)
          [ ("fitness", g, gs, ginv); ("random", r, rs, rinv) ];
        [
          string_of_int seed;
          cell g;
          Printf.sprintf "%.1f" (gs.Pool.wall_ms /. 1000.0);
          ginv;
          cell r;
          Printf.sprintf "%.1f" (rs.Pool.wall_ms /. 1000.0);
          (if scenario = "-" then "-" else scenario);
        ])
      seeds
  in
  print_string
    (Table.render
       ~headers:
         [
           "seed";
           "guided TTFV";
           "wall (s)";
           "invariant";
           "random TTFV";
           "wall (s)";
           "guided scenario";
         ]
       ~rows ());
  note "";
  note
    "(TTFV = tests executed until the first deep violation; >cap means the \
     strategy never reached one)";
  note "";
  (* Replica-count scaling: how the guided time-to-first deep violation
     grows with the cluster size, everything else fixed. *)
  let sweep_ns = if smoke then [ 6; 12 ] else [ 30; 60; 120 ] in
  let sweep_cap = if smoke then 12_000 else 25_000 in
  let sweep_jsons =
    List.map
      (fun sn ->
        let c = Replsim.make ~n:sn ~rounds ~seed:11 () in
        let sub = Replfault.multi_space ~arms:2 c in
        let result, stats =
          Pool.run ~jobs ~stop ~iterations:sweep_cap
            {
              (Config.fitness_guided ~seed:905 ()) with
              Config.initial_seeds = Replfault.seed_points ~arms:2 c;
            }
            sub
            (Pool.Pure (replsim_exec c))
        in
        note "  n = %3d -> guided TTFV %s (%.1f s wall, %.1f%% coverage)" sn
          (cell result)
          (stats.Pool.wall_ms /. 1000.0)
          result.Session.coverage_percent;
        Printf.sprintf
          "{\"n\": %d, \"found\": %b, \"stop_iteration\": %s, \"wall_ms\": \
           %.0f, \"coverage_percent\": %.2f}"
          sn
          (result.Session.stop_iteration <> None)
          (match result.Session.stop_iteration with
          | Some i -> string_of_int i
          | None -> "null")
          stats.Pool.wall_ms result.Session.coverage_percent)
      sweep_ns
  in
  let json =
    Printf.sprintf
      "{%s, \"smoke\": %b, \"n\": %d, \"rounds\": %d, \"cap\": %d, \"arms\": \
       2, \"jobs\": %d, \"analysis_seeds\": %d, \"runs\": [%s], \"sweep\": \
       [%s]}\n"
      (bench_header ()) smoke n rounds cap jobs
      (List.length analysis_seeds)
      (String.concat ", " (List.rev !run_jsons))
      (String.concat ", " sweep_jsons)
  in
  let oc = open_out "BENCH_replsim.json" in
  output_string oc json;
  close_out oc;
  note "";
  note "machine-readable results written to BENCH_replsim.json";
  note "";
  note "Expected shape: seeded with churn-window candidates, the guided";
  note "search reaches a planted correlated-fault bug within its first few";
  note "tests and the recovery-path blocks (overlap -> stale-backup /";
  note "blocked-catchup -> deep violation) grade the rest of the campaign;";
  note "uniform random sampling of the compound space never reaches one";
  note "within the cap.";
  if !guided_found = 0 then begin
    note "!! guided search found no deep violation on any seed";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Rarity-guided search: TTFV of planted deep bugs (BENCH_rarity.json) *)
(* ------------------------------------------------------------------ *)

(* Time-to-first-violation race: the same fitness-guided search run
   three ways — the paper's fitness pipeline, fitness plus the rarity
   bonus, and rarity plus FairFuzz mutation masking — against one
   planted deep bug per target.  TTFV is the number of tests executed
   until the bug's stop predicate first matches; a run that never
   matches is censored at the cap (so medians never flatter a variant
   that simply gave up).  Medians are taken across seeds. *)

let rarity_variants =
  [
    ("paper", fun c -> c);
    ("rarity", fun c -> Config.with_rarity c);
    ("rarity+mask", fun c -> Config.with_rarity ~mask:true c);
  ]

let rarity_median xs =
  let a = Array.of_list (List.sort compare xs) in
  a.(Array.length a / 2)

let rarity ?(smoke = false) () =
  section
    "Rarity-guided search: time to first planted deep bug \
     (BENCH_rarity.json)";
  (* First-hit times are heavy-tailed (one lucky early draw settles the
     race), so single-seed comparisons are noise: the verdict is the
     median over a fixed 10-seed panel, identical in smoke and full mode
     — smoke only shrinks the censoring caps. *)
  let seeds = [ 701; 702; 703; 704; 705; 801; 802; 803; 804; 805 ] in
  (* replsim: a deep invariant violation only a correlated two-fault
     scenario reaches.  The churn-schedule seeding of the replsim
     experiment is deliberately absent here: seeds land on the bug in a
     handful of tests and every variant ties, so the race would measure
     nothing.  Unseeded, the search must walk there through the rare
     recovery blocks — exactly what the rarity bonus rewards.  The
     cluster is sized so that sliver stays reachable within the cap; on
     much larger clusters the base search's first-hit variance swamps
     any guidance signal. *)
  let replsim_target =
    let cluster = Replsim.make ~n:12 ~rounds:300 ~seed:11 () in
    ( "replsim",
      Replfault.multi_space ~arms:2 cluster,
      replsim_exec cluster,
      replsim_deep,
      (if smoke then 3_000 else 8_000),
      fun seed -> Config.fitness_guided ~seed () )
  in
  (* netsim: the planted bug is the first lost request — a drop that
     aborts a fragile (no-retry-budget) connection.  Most drops only
     cost latency; the failing ones live on the few fragile
     connections, i.e. rarely covered request blocks. *)
  let netsim_target =
    let server = Afex_simtarget.Netsim.httpd_like () in
    let sensor = Afex_injector.Netfault.throughput_loss_sensor server in
    ( "netsim",
      Afex_injector.Netfault.space server,
      Afex.Executor.of_scenario_fn
        ~total_blocks:(Afex_injector.Netfault.total_request_blocks server)
        ~description:"httpd-net packet drops"
        (Afex_injector.Netfault.run_scenario server),
      (fun (c : Test_case.t) -> c.Test_case.status = Outcome.Test_failed),
      (if smoke then 400 else 1_500),
      fun seed -> { (Config.fitness_guided ~seed ()) with Config.sensor } )
  in
  (* mysql: the two planted real-world bugs (#53268 double unlock,
     #25097 errmsg.sys read) crash with known stacks; the race is to
     the first crash matching either. *)
  let mysql_target =
    let stacks =
      List.filter_map
        (fun (_, s) -> if s = [] then None else Some s)
        (Mysql.known_bug_stacks ())
    in
    ( "mysql",
      Mysql.space (),
      Afex.Executor.of_target (Mysql.target ()),
      (fun (c : Test_case.t) ->
        match c.Test_case.crash_stack with
        | Some s -> List.mem s stacks
        | None -> false),
      (if smoke then 1_500 else 6_000),
      fun seed -> Config.fitness_guided ~seed () )
  in
  let target_jsons = ref [] in
  let wins = ref 0 and gate = ref None in
  List.iter
    (fun (name, sub, executor, matches, cap, base) ->
      let stop = { Session.matches; count = 1 } in
      let ttfv (r : Session.result) =
        match r.Session.stop_iteration with Some i -> i | None -> cap
      in
      let run_jsons = ref [] in
      let medians =
        List.map
          (fun (variant, wrap) ->
            let ts =
              List.map
                (fun seed ->
                  let r =
                    Session.run ~stop ~iterations:cap (wrap (base seed)) sub
                      executor
                  in
                  let t = ttfv r in
                  run_jsons :=
                    Printf.sprintf
                      "{\"variant\": \"%s\", \"seed\": %d, \"found\": %b, \
                       \"ttfv\": %d, \"masked_accepts\": %d, \
                       \"masked_rejects\": %d}"
                      variant seed
                      (r.Session.stop_iteration <> None)
                      t r.Session.mutator.Afex.Mutator.masked
                      r.Session.mutator.Afex.Mutator.masked_rejects
                    :: !run_jsons;
                  t)
                seeds
            in
            (variant, rarity_median ts))
          rarity_variants
      in
      let m v = List.assoc v medians in
      let paper = m "paper" and mask = m "rarity+mask" in
      if mask <= paper then incr wins;
      if name = "replsim" then gate := Some (mask <= paper);
      let cell t = if t >= cap then Printf.sprintf ">%d" cap else string_of_int t in
      print_string
        (Table.render
           ~headers:[ name; "median TTFV"; "vs paper" ]
           ~rows:
             (List.map
                (fun (variant, t) ->
                  [
                    variant;
                    cell t;
                    (if variant = "paper" then "-"
                     else Printf.sprintf "%+d" (t - paper));
                  ])
                medians)
           ());
      note "";
      target_jsons :=
        Printf.sprintf
          "{\"target\": \"%s\", \"cap\": %d, \"median\": {%s}, \"runs\": [%s]}"
          name cap
          (String.concat ", "
             (List.map
                (fun (v, t) -> Printf.sprintf "\"%s\": %d" v t)
                medians))
          (String.concat ", " (List.rev !run_jsons))
        :: !target_jsons)
    [ replsim_target; netsim_target; mysql_target ];
  let json =
    Printf.sprintf
      "{%s, \"smoke\": %b, \"seeds\": %d, \"weight\": %g, \"cutoff\": %g, \
       \"targets\": [%s]}\n"
      (bench_header ()) smoke (List.length seeds)
      Config.default_rarity.Config.weight Config.default_rarity.Config.cutoff
      (String.concat ", " (List.rev !target_jsons))
  in
  let oc = open_out "BENCH_rarity.json" in
  output_string oc json;
  close_out oc;
  note "machine-readable results written to BENCH_rarity.json";
  note "";
  note
    "(TTFV censored at the cap; rarity+mask at or below paper on %d/3 targets)"
    !wins;
  if smoke then
    match !gate with
    | Some true -> ()
    | _ ->
        note "!! smoke gate: rarity+mask TTFV exceeded paper fitness on replsim";
        exit 1
