module Session = Afex.Session
module Test_case = Afex.Test_case
module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome

let operational_summary (r : Session.result) =
  String.concat "\n"
    [
      Printf.sprintf "strategy          : %s" r.Session.strategy;
      (* Every merged test: a pooled run serves repeats from its cache. *)
      Printf.sprintf "tests explored    : %d (cache hits included)"
        r.Session.iterations;
      Printf.sprintf "faults triggered  : %d" r.Session.triggered;
      Printf.sprintf "simulated time    : %.1f s" (r.Session.simulated_ms /. 1000.0);
      Printf.sprintf "code coverage     : %.2f%% (%d/%d blocks)" r.Session.coverage_percent
        r.Session.covered_blocks r.Session.total_blocks;
    ]

let render ?(top = 10) ~target (r : Session.result) =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "=== AFEX session report: %s ===" target;
  Buffer.add_string buf (operational_summary r);
  line "";
  line "failed tests      : %d" r.Session.failed;
  line "crashes           : %d" r.Session.crashed;
  line "hangs             : %d" r.Session.hung;
  line "unique failures   : %d distinct injection stacks, %d redundancy clusters"
    r.Session.distinct_failure_traces r.Session.failure_clusters;
  line "unique crashes    : %d distinct crash stacks, %d redundancy clusters"
    r.Session.distinct_crash_traces r.Session.crash_clusters;
  line "";
  line "--- top %d faults by impact ---" top;
  List.iteri
    (fun i case ->
      line "%2d. impact %7.2f  [%s]  %s" (i + 1) case.Test_case.impact
        (Outcome.status_to_string case.Test_case.status)
        (Fault.to_string case.Test_case.fault))
    (Session.top_faults r ~n:top);
  line "";
  line "--- crash redundancy clusters ---";
  let reps = Session.crash_cluster_representatives r in
  if reps = [] then line "(no crashes)"
  else
    List.iteri
      (fun i case ->
        line "cluster %d: %s" (i + 1) (Fault.to_string case.Test_case.fault);
        (match case.Test_case.crash_stack with
        | Some stack -> List.iter (fun frame -> line "    %s" frame) stack
        | None -> ()))
      reps;
  Buffer.contents buf
