(* Tests for afex_report: tables, figures, replay scripts, session reports. *)

module Table = Afex_report.Table
module Figure = Afex_report.Figure
module Replay = Afex_report.Replay
module Session_report = Afex_report.Session_report
module Config = Afex.Config
module Session = Afex.Session
module Apache = Afex_simtarget.Apache

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

(* --- Table --- *)

let test_table_render () =
  let s =
    Table.render ~headers:[ "name"; "count" ]
      ~rows:[ [ "alpha"; "1" ]; [ "b"; "22" ] ]
      ()
  in
  let lines = String.split_on_char '\n' s in
  checki "header + rule + 2 rows + trailing" 5 (List.length lines);
  checks "header" "name   count" (List.nth lines 0);
  checks "right-aligned number" "alpha      1" (List.nth lines 2);
  checks "second row" "b         22" (List.nth lines 3)

let test_table_ragged_rows () =
  let s = Table.render ~headers:[ "a"; "b"; "c" ] ~rows:[ [ "x" ] ] () in
  checkb "missing cells tolerated" true (contains s "x")

let test_table_formatters () =
  checks "float" "3.14" (Table.fmt_float ~decimals:2 3.14159);
  checks "percent" "54.1%" (Table.fmt_percent 0.5412);
  checks "ratio" "2.50x" (Table.fmt_ratio 5.0 2.0);
  checks "ratio div by zero" "-" (Table.fmt_ratio 5.0 0.0)

(* --- Figure --- *)

let test_figure_matrix () =
  let s =
    Figure.impact_matrix ~col_labels:[ "read"; "close" ] ~row_labels:[ "t1"; "t2" ]
      ~cell:(fun ~row ~col ->
        if row = 0 && col = 0 then Some true
        else if row = 1 && col = 1 then None
        else Some false)
  in
  checkb "has failure glyph" true (contains s "#");
  checkb "has benign glyph" true (contains s ".");
  checkb "legend" true (contains s "test failure");
  checkb "row label" true (contains s "t1")

let test_figure_line_chart () =
  let s =
    Figure.line_chart
      ~series:[ ("up", [| 0.0; 5.0; 10.0 |]); ("flat", [| 1.0; 1.0; 1.0 |]) ]
      ()
  in
  checkb "glyph for first series" true (contains s "*");
  checkb "glyph for second series" true (contains s "o");
  checkb "legend names" true (contains s "up" && contains s "flat");
  checkb "axis" true (contains s "10.0")

let test_figure_line_chart_empty () =
  checks "empty data message" "(no data)\n" (Figure.line_chart ~series:[ ("x", [||]) ] ())

let test_figure_bar_chart () =
  let s = Figure.bar_chart ~items:[ ("big", 10.0); ("small", 1.0) ] () in
  checkb "bars drawn" true (contains s "#");
  checkb "values printed" true (contains s "10");
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  checki "one line per item" 2 (List.length lines)

(* --- Replay / session report (need a real session) --- *)

let session_result =
  lazy
    (Session.run ~iterations:300
       (Config.fitness_guided ~seed:33 ())
       (Apache.space ())
       (Afex.Executor.of_target (Apache.target ())))

let test_replay_script () =
  let r = Lazy.force session_result in
  match Session.top_faults r ~n:1 with
  | [ top ] ->
      let script = Replay.script ~target:"apache" top in
      checkb "shebang" true (contains script "#!/bin/sh";);
      checkb "mentions target" true (contains script "--target apache");
      checkb "mentions function" true
        (contains script ("--function " ^ top.Afex.Test_case.fault.Afex_injector.Fault.func));
      checkb "checks status" true (contains script "if [ \"$status\"")
  | _ -> Alcotest.fail "expected a top fault"

let test_replay_suite () =
  let r = Lazy.force session_result in
  let reps = Session.crash_cluster_representatives r in
  let script = Replay.suite ~target:"apache" reps in
  checkb "counts failures" true (contains script "failures=0");
  checkb "exit with failures" true (contains script "exit $failures")

let test_session_report_sections () =
  let r = Lazy.force session_result in
  let report = Session_report.render ~target:"apache" r in
  List.iter
    (fun needle -> checkb ("report contains " ^ needle) true (contains report needle))
    [
      "AFEX session report";
      "strategy";
      "fitness-guided";
      "failed tests";
      "top 10 faults by impact";
      "crash redundancy clusters";
      "code coverage";
    ]

let test_operational_summary () =
  let r = Lazy.force session_result in
  let s = Session_report.operational_summary r in
  checkb "tests explored line" true
    (contains s "tests explored    : 300 (cache hits included)")

(* --- golden replay regression --- *)

let test_golden_apache_export () =
  (* Re-run the campaign the committed golden file was generated from
     (afex explore --target apache --seed 7 -n 60 --batch 8 --jobs 1)
     and byte-diff the JSON export. Any change to the mutator, the
     pqueue, the RNG stream, the pool's merge order or the export format
     shows up here as a one-line diff against a file under version
     control — regenerate it deliberately, never silently. *)
  let golden_path = "golden/apache_seed7_n60_b8.json" in
  let golden =
    let ic = open_in_bin golden_path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let result, _ =
    Afex_cluster.Pool.run ~batch_size:8 ~jobs:1 ~iterations:60
      (Config.fitness_guided ~seed:7 ())
      (Apache.space ())
      (Afex_cluster.Pool.Pure (Afex.Executor.of_target (Apache.target ())))
  in
  let fresh = Afex_report.Export.summary_to_json ~target:"apache" result in
  if fresh <> golden then begin
    let first_diff =
      let n = min (String.length fresh) (String.length golden) in
      let rec go i = if i < n && fresh.[i] = golden.[i] then go (i + 1) else i in
      go 0
    in
    Alcotest.failf
      "explored history drifted from the golden export (first diff at byte %d): %s"
      first_diff
      (String.sub fresh
         (max 0 (first_diff - 20))
         (min 60 (String.length fresh - max 0 (first_diff - 20))))
  end

let test_golden_saturated_digest () =
  (* The saturated counterpart of the golden above: rarity with masking
     over 12000 tests reaches the masked mutations, the full-queue
     eviction path and the attempt-budget fallback that 60 tests never
     do. The committed MD5 is that of the CSV export of
     afex explore --target apache -n 12000 --seed 1 --rarity --mask
     --jobs 1 (default --batch 32). *)
  let expected =
    let ic = open_in_bin "golden/apache_rarity_mask_seed1_n12000.md5" in
    let line = input_line ic in
    close_in ic;
    String.trim line
  in
  let result, _ =
    Afex_cluster.Pool.run ~batch_size:32 ~jobs:1 ~iterations:12000
      (Config.with_rarity ~mask:true (Config.fitness_guided ~seed:1 ()))
      (Apache.space ())
      (Afex_cluster.Pool.Pure (Afex.Executor.of_target (Apache.target ())))
  in
  checks "CSV export digest" expected
    (Digest.to_hex (Digest.string (Afex_report.Export.records_to_csv result)))

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("table render", test_table_render);
      ("table ragged rows", test_table_ragged_rows);
      ("table formatters", test_table_formatters);
      ("figure matrix", test_figure_matrix);
      ("figure line chart", test_figure_line_chart);
      ("figure line chart empty", test_figure_line_chart_empty);
      ("figure bar chart", test_figure_bar_chart);
      ("replay script", test_replay_script);
      ("replay suite", test_replay_suite);
      ("session report sections", test_session_report_sections);
      ("operational summary", test_operational_summary);
      ("golden apache export", test_golden_apache_export);
      ("golden saturated apache digest", test_golden_saturated_digest);
    ]
