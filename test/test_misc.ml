(* Odds and ends: small API surfaces not covered by the focused suites
   (pretty-printers, convenience wrappers, alignment options). *)

module Rng = Afex_stats.Rng
module Dist = Afex_stats.Dist
module Summary = Afex_stats.Summary
module Table = Afex_report.Table
module Figure = Afex_report.Figure
module Session = Afex.Session
module Test_case = Afex.Test_case
module Config = Afex.Config
module Apache = Afex_simtarget.Apache
module Behavior = Afex_simtarget.Behavior
module Fault = Afex_injector.Fault

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let fmt_to_string pp v = Format.asprintf "%a" pp v

let test_rng_shuffled_list () =
  let rng = Rng.create 1 in
  let l = List.init 30 (fun i -> i) in
  let s = Rng.shuffled_list rng l in
  checki "same length" 30 (List.length s);
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s);
  checkb "actually shuffled" true (s <> l)

let test_dist_sample_weighted_shortcut () =
  let rng = Rng.create 2 in
  for _ = 1 to 50 do
    checki "all mass on index 1" 1 (Dist.sample_weighted rng [| 0.0; 5.0; 0.0 |])
  done

let test_summary_pp () =
  let s = fmt_to_string Summary.pp (Summary.of_list [ 1.0; 3.0 ]) in
  checkb "mentions n" true (contains s "n=2");
  checkb "mentions mean" true (contains s "mean=2.0")

let test_behavior_pp () =
  checks "crash-in-recovery" "crash-in-recovery"
    (fmt_to_string Behavior.pp_reaction (Behavior.Crash { in_recovery = true }));
  checks "crash-if-recovering" "crash-if-recovering"
    (fmt_to_string Behavior.pp_reaction Behavior.Crash_if_recovering)

let test_fault_pp () =
  let f = Fault.make ~test_id:3 ~func:"read" ~call_number:2 () in
  checkb "readable" true (contains (fmt_to_string Fault.pp f) "read call #2")

let test_table_custom_aligns () =
  let s =
    Table.render
      ~aligns:[ Table.Right; Table.Left ]
      ~headers:[ "n"; "name" ]
      ~rows:[ [ "1"; "x" ]; [ "22"; "yy" ] ]
      ()
  in
  let lines = String.split_on_char '\n' s in
  checks "right-aligned first column" " 1  x" (List.nth lines 2)

let test_figure_single_point_series () =
  let s = Figure.line_chart ~series:[ ("one", [| 5.0 |]) ] () in
  checkb "renders" true (contains s "*")

let test_session_found_matching () =
  let executor = Afex.Executor.of_target (Apache.target ()) in
  let r =
    Session.run ~iterations:100 (Config.fitness_guided ~seed:21 ()) (Apache.space ())
      executor
  in
  checki "found_matching counts failures" r.Session.failed
    (Session.found_matching r Test_case.failed);
  checki "nothing matches the impossible" 0
    (Session.found_matching r (fun _ -> false))

let test_session_pp_space_summary () =
  let description = "alpha testId : [ 0, 10 ] function : { read } callNumber : [ 1, 2 ] ;" in
  let space = Result.get_ok (Afex_faultspace.Fsdl.space_of_string description) in
  let executor = Afex.Executor.of_target (Apache.target ()) in
  let sr = Session.run_space ~iterations:20 (Config.random_search ~seed:1 ()) space executor in
  let rendered = fmt_to_string Session.pp_space_summary sr in
  checkb "mentions union" true (contains rendered "union of 1 subspaces");
  checkb "mentions label" true (contains rendered "alpha")

let test_multifault_pp () =
  let mf = Afex_injector.Multifault.make ~test_id:4 ~arms:[ ("read", 1); ("malloc", 7) ] in
  let s = fmt_to_string Afex_injector.Multifault.pp mf in
  checkb "lists arms" true (contains s "[read #1" && contains s "[malloc #7")

let test_outcome_pp () =
  let o = Afex_injector.Engine.baseline (Apache.target ()) 0 in
  let s = fmt_to_string Afex_injector.Outcome.pp o in
  checkb "shows status" true (contains s "passed");
  checkb "notes non-trigger" true (contains s "not triggered")

let test_pqueue_capacity_accessor () =
  let q = Afex.Pqueue.create ~capacity:7 in
  checki "capacity" 7 (Afex.Pqueue.capacity q)

let test_explorer_accessors () =
  let sub = Apache.space () in
  let executor = Afex.Executor.of_target (Apache.target ()) in
  let e = Afex.Explorer.create (Config.fitness_guided ~seed:31 ()) sub executor in
  (match Afex.Explorer.next e with
  | Some p -> ignore (Afex.Explorer.execute e p)
  | None -> Alcotest.fail "no candidate");
  checkb "subspace exposed" true (Afex.Explorer.subspace e == sub);
  checki "one iteration" 1 (Afex.Explorer.iterations e);
  checki "queue grew" 1 (List.length (Afex.Explorer.queue_snapshot e));
  checks "strategy recorded" "fitness-guided"
    (Config.strategy_name (Afex.Explorer.config e).Config.strategy)

let test_tracer_fig4_shape () =
  (* The per-function profile of a tiny target follows the Fig. 4 shape:
     one subspace per (function, errno) case, each with 4 parameters. *)
  let target = Afex_simtarget.Coreutils.ls_target () in
  let ast = Afex_simtarget.Tracer.describe target in
  checkb "non-empty" true (ast <> []);
  List.iter
    (fun decl -> checki "4 parameters per declaration" 4 (List.length decl))
    ast

let test_describe_quotes_config_cutoff () =
  (* The rarity hint `afex describe` prints on stderr quotes the cutoff
     default the code uses, not a copy of it. The CLI is a test dep. *)
  let cli =
    Filename.concat (Filename.concat Filename.parent_dir_name "bin") "afex_cli.exe"
  in
  let err_file = Filename.temp_file "describe" ".err" in
  let cmd =
    Filename.quote_command cli ~stdout:Filename.null ~stderr:err_file
      [ "describe"; "--target"; "mysql" ]
  in
  checki "describe exits 0" 0 (Sys.command cmd);
  let err = In_channel.with_open_bin err_file In_channel.input_all in
  Sys.remove err_file;
  let want = Printf.sprintf "the default %g keeps" Config.default_rarity.Config.cutoff in
  checkb (Printf.sprintf "stderr quotes %S" want) true (contains err want)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("rng shuffled_list", test_rng_shuffled_list);
      ("dist sample_weighted shortcut", test_dist_sample_weighted_shortcut);
      ("summary pp", test_summary_pp);
      ("behavior pp", test_behavior_pp);
      ("fault pp", test_fault_pp);
      ("table custom aligns", test_table_custom_aligns);
      ("figure single-point series", test_figure_single_point_series);
      ("session found_matching", test_session_found_matching);
      ("session pp_space_summary", test_session_pp_space_summary);
      ("multifault pp", test_multifault_pp);
      ("outcome pp", test_outcome_pp);
      ("pqueue capacity accessor", test_pqueue_capacity_accessor);
      ("explorer accessors", test_explorer_accessors);
      ("tracer fig4 shape", test_tracer_fig4_shape);
      ("describe quotes the Config rarity cutoff", test_describe_quotes_config_cutoff);
    ]
