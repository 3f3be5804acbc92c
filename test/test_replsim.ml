(* The replicated consensus target and its injector adapter: baseline
   and churn behaviour, the planted correlated-fault deep bugs (and that
   no single fault reaches them), the ⟨round, replica, kind, peer⟩
   codecs, churn-schedule seeding, and bit-identical histories across
   the pool, the event loop, and a checkpoint/resume crash. *)

module Replsim = Afex_simtarget.Replsim
module Replfault = Afex_injector.Replfault
module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome
module Subspace = Afex_faultspace.Subspace
module Point = Afex_faultspace.Point
module Value = Afex_faultspace.Value
module Config = Afex.Config
module Session = Afex.Session
module Test_case = Afex.Test_case
module Pool = Afex_cluster.Pool
module Checkpoint = Afex_cluster.Checkpoint
module Export = Afex_report.Export
module Bitset = Afex_stats.Bitset

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* One small, fast cluster shared by most tests. *)
let cluster = Replsim.make ~n:7 ~rounds:160 ~seed:5 ()
let cfg = Replsim.config cluster

let executor c =
  Afex.Executor.of_scenario_fn ~total_blocks:(Replsim.total_blocks c)
    ~description:(Replfault.description c)
    (Replfault.run_scenario c)

let deep_case (c : Test_case.t) =
  match c.Test_case.crash_stack with
  | None -> false
  | Some frames ->
      List.exists
        (fun inv -> List.mem ("invariant:" ^ inv) frames)
        Replsim.deep_invariants

(* --- construction and baseline ---------------------------------------- *)

let test_make_validation () =
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> true
    | (_ : Replsim.cluster) -> false
  in
  checkb "n < 3" true (rejects (fun () -> Replsim.make ~n:2 ()));
  checkb "rounds < 1" true (rejects (fun () -> Replsim.make ~rounds:0 ~n:5 ()));
  checkb "bad period" true
    (rejects (fun () -> Replsim.make ~churn_period:0 ~n:5 ()));
  checkb "quorum-starving churn" true
    (rejects (fun () -> Replsim.make ~churn_period:3 ~recovery_rounds:6 ~n:5 ()))

let test_baseline_sane () =
  let b = Replsim.baseline cluster in
  checkb "no violation under churn alone" true (b.Replsim.violation = None);
  checkb "not triggered without faults" false b.Replsim.triggered;
  checki "all rounds run" cfg.Replsim.rounds b.Replsim.rounds_run;
  checkb "commits track rounds" true
    (b.Replsim.commits > cfg.Replsim.rounds / 2
    && b.Replsim.commits <= cfg.Replsim.rounds);
  checkb "churn causes recoveries" true (b.Replsim.recoveries > 0);
  checkb "leader present most rounds" true
    (Array.to_list b.Replsim.leader_trace
    |> List.filter (fun l -> l >= 0)
    |> List.length > cfg.Replsim.rounds / 2)

let test_baseline_deterministic () =
  let c2 = Replsim.make ~n:7 ~rounds:160 ~seed:5 () in
  let b1 = Replsim.baseline cluster and b2 = Replsim.baseline c2 in
  checki "same commits" b1.Replsim.commits b2.Replsim.commits;
  checki "same elections" b1.Replsim.elections b2.Replsim.elections;
  checkb "same leader trace" true (b1.Replsim.leader_trace = b2.Replsim.leader_trace);
  checkb "same churn schedule" true
    (Replsim.churn_schedule cluster = Replsim.churn_schedule c2)

let test_churn_schedule_shape () =
  let events = Replsim.churn_schedule cluster in
  checkb "non-empty" true (events <> []);
  List.iter
    (fun (t, r) ->
      checkb "round multiple of period" true (t mod cfg.Replsim.churn_period = 0);
      checkb "replica in range" true (0 <= r && r < cfg.Replsim.n))
    events;
  checkb "chronological" true
    (List.sort (fun (a, _) (b, _) -> compare a b) events = events)

let test_out_of_range_faults_rejected () =
  let rejects f =
    match Replsim.run cluster ~faults:[ f ] with
    | exception Invalid_argument _ -> true
    | (_ : Replsim.run_result) -> false
  in
  checkb "round" true
    (rejects { Replsim.round = cfg.Replsim.rounds; replica = 0; kind = Kill; peer = 0 });
  checkb "replica" true
    (rejects { Replsim.round = 0; replica = cfg.Replsim.n; kind = Kill; peer = 0 });
  checkb "peer" true
    (rejects { Replsim.round = 0; replica = 0; kind = Kill; peer = -1 })

let test_kill_leader_forces_election () =
  let b = Replsim.baseline cluster in
  (* Pick a round with a settled leader and kill it. *)
  let t = 40 in
  let l = b.Replsim.leader_trace.(t - 1) in
  checkb "baseline has a leader at the probe round" true (l >= 0);
  let r =
    Replsim.run cluster
      ~faults:[ { Replsim.round = t; replica = l; kind = Kill; peer = 0 } ]
  in
  checkb "fault triggered" true r.Replsim.triggered;
  checkb "extra election held" true (r.Replsim.elections > b.Replsim.elections);
  checkb "single kill violates nothing" true (r.Replsim.violation = None)

(* --- the planted deep bugs -------------------------------------------- *)

(* Candidate correlated scenarios from the cluster's own structure, the
   same recipe the seeder uses; the tests then assert the bug fires for
   some candidate and that either arm alone is harmless. *)
let find_deep invariant recipes =
  let b = Replsim.baseline cluster in
  let leader_entering t =
    if t >= 1 && t < cfg.Replsim.rounds then b.Replsim.leader_trace.(t - 1) else -1
  in
  let candidates =
    List.concat_map
      (fun (t_c, r) ->
        List.concat_map
          (fun dt ->
            let t_k = t_c + dt in
            let t_stale = t_c - (2 * cfg.Replsim.backup_period) in
            if t_stale < 1 || t_k >= cfg.Replsim.rounds then []
            else
              let l = leader_entering t_k in
              if l < 0 || l = r || leader_entering (t_c + 1) <> l then []
              else recipes ~t_c ~t_k ~t_stale ~r ~l)
          [ 1; 2; 3; 4 ])
      (Replsim.churn_schedule cluster)
  in
  List.find_opt
    (fun faults ->
      match (Replsim.run cluster ~faults).Replsim.violation with
      | Some v -> v.Replsim.invariant = invariant
      | None -> false)
    candidates

let bug1_recipes ~t_c:_ ~t_k ~t_stale ~r ~l =
  [
    [
      { Replsim.round = t_stale; replica = r; kind = Stale_backup; peer = 0 };
      { Replsim.round = t_k; replica = l; kind = Kill; peer = 0 };
    ];
  ]

let bug2_recipes ~t_c ~t_k ~t_stale:_ ~r ~l =
  [
    [
      { Replsim.round = t_c + 1; replica = r; kind = Drop_acks; peer = l };
      { Replsim.round = t_k; replica = r; kind = Kill; peer = 0 };
    ];
  ]

let check_deep_bug name invariant site recipes =
  match find_deep invariant recipes with
  | None -> Alcotest.failf "%s: no candidate scenario violated %s" name invariant
  | Some faults -> (
      let r = Replsim.run cluster ~faults in
      match r.Replsim.violation with
      | None -> assert false
      | Some v ->
          checkb (name ^ " is deep") true (Replsim.is_deep v);
          checkb (name ^ " stable site") true (v.Replsim.site = site);
          checkb (name ^ " site has no coordinates") true
            (not
               (contains
                  (String.concat " " v.Replsim.site)
                  (Printf.sprintf "round %d" v.Replsim.v_round)));
          (* Either arm alone must be harmless: the bug needs the
             correlation, not just one strong fault. *)
          List.iter
            (fun f ->
              match (Replsim.run cluster ~faults:[ f ]).Replsim.violation with
              | Some v ->
                  Alcotest.failf "%s: single arm alone violated %s" name
                    v.Replsim.invariant
              | None -> ())
            faults)

let test_deep_bug_stale_revote () =
  check_deep_bug "stale-revote" "leader-uniqueness"
    [
      "recovery@replsim/election.c:88";
      "replsim:request_vote";
      "replsim:recover_rejoin";
      "invariant:leader-uniqueness";
    ]
    bug1_recipes

let test_deep_bug_recovery_crash () =
  check_deep_bug "recovery-crash" "recovery-crash"
    [
      "recovery@replsim/catchup.c:214";
      "replsim:catchup_abort";
      "replsim:recover_rejoin";
      "invariant:recovery-crash";
    ]
    bug2_recipes

let test_no_single_fault_reaches_deep () =
  (* Exhaustive over the whole single-arm space of a small cluster: every
     atomic fault, on every round, against every peer. *)
  let c = Replsim.make ~n:5 ~rounds:60 ~seed:3 () in
  let k = Replsim.config c in
  for round = 0 to k.Replsim.rounds - 1 do
    for replica = 0 to k.Replsim.n - 1 do
      List.iter
        (fun kind ->
          for peer = 0 to k.Replsim.n - 1 do
            match
              (Replsim.run c ~faults:[ { Replsim.round; replica; kind; peer } ])
                .Replsim.violation
            with
            | Some v when Replsim.is_deep v ->
                Alcotest.failf "single %s fault at (%d, %d, %d) violated %s"
                  (Replsim.kind_to_string kind)
                  round replica peer v.Replsim.invariant
            | _ -> ()
          done)
        Replsim.all_kinds
    done
  done

(* --- coverage blocks --------------------------------------------------- *)

let test_coverage_blocks_grade_the_search () =
  let b = Replsim.baseline cluster in
  let covered result rep block =
    Bitset.mem result.Replsim.coverage ((rep * Replsim.blocks_per_replica) + block)
  in
  (* Baseline covers the normal path and recovery entry/exit, but none of
     the fault-only blocks (indices from the documented layout). *)
  let b_recovery_overlap = 4 and b_kill_mid_recovery = 5 in
  checkb "baseline covers follower ack" true (covered b 1 0);
  checkb "baseline covers no overlap block" true
    (List.for_all
       (fun rep -> not (covered b rep b_recovery_overlap))
       (List.init cfg.Replsim.n (fun i -> i)));
  (* A kill inside a recovery window covers the overlap and mid-kill
     blocks — the gradient toward the correlated bugs. *)
  let t_c, rep = List.nth (Replsim.churn_schedule cluster) 2 in
  let r =
    Replsim.run cluster
      ~faults:[ { Replsim.round = t_c + 1; replica = rep; kind = Kill; peer = 0 } ]
  in
  checkb "kill-mid-recovery block covered" true (covered r rep b_kill_mid_recovery);
  checkb "overlap block covered" true (covered r rep b_recovery_overlap);
  checkb "strictly more blocks than baseline" true
    (Bitset.count r.Replsim.coverage > Bitset.count b.Replsim.coverage)

(* --- codecs ------------------------------------------------------------ *)

let arb_rfault =
  Prop.map
    ~show:(fun (rf : Replsim.fault) ->
      Printf.sprintf "{round=%d; replica=%d; kind=%s; peer=%d}" rf.Replsim.round
        rf.Replsim.replica
        (Replsim.kind_to_string rf.Replsim.kind)
        rf.Replsim.peer)
    (fun ((round, replica), (kind, peer)) -> { Replsim.round; replica; kind; peer })
    (Prop.pair
       (Prop.pair
          (Prop.int_range 0 (cfg.Replsim.rounds - 1))
          (Prop.int_range 0 (cfg.Replsim.n - 1)))
       (Prop.pair (Prop.choose Replsim.all_kinds) (Prop.int_range 0 (cfg.Replsim.n - 1))))

let test_prop_fault_embedding_roundtrip () =
  Prop.check ~count:200 "rfault_of_fault inverts fault_of_rfault" arb_rfault
    (fun rf -> Replfault.rfault_of_fault (Replfault.fault_of_rfault rf) = Ok rf)

let test_prop_scenario_codec_roundtrip () =
  Prop.check ~count:200 "faults_of_scenario inverts scenario_of_faults"
    (Prop.map
       ~show:(fun l -> string_of_int (List.length l) ^ " arms")
       (fun (a, l) -> a :: l)
       (Prop.pair arb_rfault (Prop.list ~max_length:3 arb_rfault)))
    (fun faults ->
      Replfault.faults_of_scenario (Replfault.scenario_of_faults faults) = Ok faults)

let test_kind_strings_roundtrip () =
  List.iter
    (fun k ->
      checkb (Replsim.kind_to_string k) true
        (Replsim.kind_of_string (Replsim.kind_to_string k) = Ok k))
    Replsim.all_kinds;
  checkb "unknown kind rejected" true
    (Result.is_error (Replsim.kind_of_string "reboot"))

let test_faults_of_scenario_errors () =
  let err s =
    match Replfault.faults_of_scenario s with
    | Error e -> e
    | Ok _ -> Alcotest.fail "expected decode error"
  in
  checks "empty scenario" "no fault arms" (err []);
  checks "attribute before any arm" "replica before any round"
    (err [ ("replica", Value.Int 1) ]);
  checks "suffixed attribute before any arm" "peer2 before any round"
    (err [ ("peer2", Value.Int 1) ]);
  checks "missing kind" "arm missing kind" (err [ ("round", Value.Int 3) ]);
  checks "unknown kind symbol" "unknown fault kind \"reboot\""
    (err [ ("round", Value.Int 3); ("kind", Value.Sym "reboot") ]);
  checks "unexpected attribute" "unexpected attribute errno"
    (err [ ("round", Value.Int 3); ("errno", Value.Sym "EIO") ]);
  checks "ill-typed round is unexpected" "unexpected attribute round"
    (err [ ("round", Value.Sym "three") ])

let test_rfault_of_fault_rejects_foreign () =
  let f = Fault.make ~test_id:0 ~func:"tcp_drop" ~call_number:1 ~errno:"EDROP" () in
  checkb "netfault encoding rejected" true
    (Result.is_error (Replfault.rfault_of_fault f));
  let g = Fault.make ~test_id:0 ~func:"repl_reboot" ~call_number:1 () in
  checkb "unknown kind rejected" true (Result.is_error (Replfault.rfault_of_fault g))

(* --- outcome mapping --------------------------------------------------- *)

let test_outcome_passed_on_harmless_fault () =
  (* A self-drop matches no real message: nothing triggers, nothing lost. *)
  let o =
    Replfault.run_scenario cluster
      (Replfault.scenario_of_faults
         [ { Replsim.round = 10; replica = 2; kind = Drop_acks; peer = 2 } ])
  in
  checkb "passes" true (o.Outcome.status = Outcome.Passed);
  checkb "not triggered" false o.Outcome.triggered;
  checkb "no crash stack" true (o.Outcome.crash_stack = None);
  checkb "not deep" false (Replfault.deep_outcome o)

let test_outcome_crashed_on_deep_violation () =
  match find_deep "leader-uniqueness" bug1_recipes with
  | None -> Alcotest.fail "no stale-revote candidate found"
  | Some faults ->
      let o = Replfault.run_scenario cluster (Replfault.scenario_of_faults faults) in
      checkb "crashed" true (o.Outcome.status = Outcome.Crashed);
      checkb "deep outcome" true (Replfault.deep_outcome o);
      checkb "crash stack is the violation site" true
        (match o.Outcome.crash_stack with
        | Some frames -> List.mem "invariant:leader-uniqueness" frames
        | None -> false);
      (* The attributed fault is the second (window) arm of the pair. *)
      let second =
        List.fold_left
          (fun best (rf : Replsim.fault) ->
            match best with
            | Some (b : Replsim.fault) when b.Replsim.round >= rf.Replsim.round ->
                best
            | _ -> Some rf)
          None faults
      in
      checkb "outcome fault is the window arm" true
        (Replfault.rfault_of_fault o.Outcome.fault = Ok (Option.get second))

let test_outcome_hung_on_liveness_violation () =
  (* Kill a majority in one round: no quorum, no commits, liveness trips
     before the recoveries return. *)
  let c = Replsim.make ~n:5 ~rounds:80 ~seed:3 ~liveness_k:4 () in
  let faults =
    List.map
      (fun replica -> { Replsim.round = 20; replica; kind = Replsim.Kill; peer = 0 })
      [ 0; 1; 2; 3 ]
  in
  let o = Replfault.run_scenario c (Replfault.scenario_of_faults faults) in
  checkb "hung" true (o.Outcome.status = Outcome.Hung);
  checkb "liveness is not deep" false (Replfault.deep_outcome o)

let test_outcome_test_failed_on_commit_loss () =
  (* An ack-drop storm against the leader across the end of the run: the
     quorum never re-forms in time, the appended tail stays uncommitted,
     and the run ends short of the baseline's commits — a failed test,
     not a violation. *)
  let c = Replsim.make ~n:5 ~rounds:80 ~seed:3 () in
  let b = Replsim.baseline c in
  let l = b.Replsim.leader_trace.(78) in
  let followers = List.filter (fun i -> i <> l) [ 0; 1; 2; 3; 4 ] in
  let faults =
    List.filteri (fun i _ -> i < 3) followers
    |> List.map (fun p ->
           { Replsim.round = 74; replica = l; kind = Replsim.Drop_acks; peer = p })
  in
  let o = Replfault.run_scenario c (Replfault.scenario_of_faults faults) in
  checkb "test failed" true (o.Outcome.status = Outcome.Test_failed);
  checkb "triggered" true o.Outcome.triggered;
  checkb "no crash stack" true (o.Outcome.crash_stack = None)

let test_commit_loss_sensor_values () =
  (* A correct consensus cluster masks any single fault: the same-round
     re-election after a leader kill loses nothing, so single-fault
     commit loss is zero across the board — the sensor's gradient comes
     from coverage and from compound scenarios. *)
  let b = Replsim.baseline cluster in
  let l = b.Replsim.leader_trace.(39) in
  let kill =
    Replfault.fault_of_rfault
      { Replsim.round = 40; replica = l; kind = Replsim.Kill; peer = 0 }
  in
  checkb "a single leader kill is masked" true
    (Replfault.commit_loss cluster kill = 0.0);
  let harmless =
    Replfault.fault_of_rfault
      { Replsim.round = 10; replica = 2; kind = Replsim.Drop_acks; peer = 2 }
  in
  checkb "harmless fault loses nothing" true
    (Replfault.commit_loss cluster harmless = 0.0);
  let foreign = Fault.make ~test_id:0 ~func:"malloc" ~call_number:1 () in
  checkb "foreign fault scores zero" true
    (Replfault.commit_loss cluster foreign = 0.0)

(* --- spaces and seeding ------------------------------------------------ *)

let test_space_shapes () =
  let single = Replfault.space cluster in
  checki "single-arm axes" 4 (Subspace.dim single);
  let multi = Replfault.multi_space ~arms:3 cluster in
  checki "three-arm axes" 12 (Subspace.dim multi);
  checkb "arms < 1 rejected" true
    (match Replfault.multi_space ~arms:0 cluster with
    | exception Invalid_argument _ -> true
    | (_ : Subspace.t) -> false)

let test_seed_points_well_formed () =
  let sub = Replfault.multi_space ~arms:2 cluster in
  let seeds = Replfault.seed_points ~arms:2 cluster in
  checkb "non-empty" true (seeds <> []);
  checkb "bounded" true (List.length seeds <= 400);
  let keys = List.map Point.key seeds in
  checki "deduplicated" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun p ->
      checki "point dim" (Subspace.dim sub) (Point.dim p);
      (* every coordinate decodes: the scenario parses into two arms *)
      match Replfault.faults_of_scenario (Subspace.values sub p) with
      | Ok faults -> checki "two arms" 2 (List.length faults)
      | Error e -> Alcotest.fail e)
    seeds;
  checkb "deterministic" true
    (List.map Point.key (Replfault.seed_points ~arms:2 cluster) = keys)

let test_seeded_guided_search_finds_deep_bug () =
  let sub = Replfault.multi_space ~arms:2 cluster in
  let seeds = Replfault.seed_points ~arms:2 cluster in
  let config =
    { (Config.fitness_guided ~seed:17 ()) with Config.initial_seeds = seeds }
  in
  let stop = { Session.matches = deep_case; count = 1 } in
  let r = Session.run ~stop ~iterations:2_000 config sub (executor cluster) in
  match r.Session.stop_iteration with
  | None -> Alcotest.fail "seeded guided search never reached a deep violation"
  | Some i ->
      checkb
        (Printf.sprintf "deep bug within the seed replay (TTFV %d <= %d)" i
           (List.length seeds))
        true
        (i <= List.length seeds)

(* --- determinism across execution paths (pool, event loop, resume) ----- *)

let history (r : Session.result) =
  List.map
    (fun (c : Test_case.t) ->
      ( Point.key c.Test_case.point,
        Outcome.status_to_string c.Test_case.status,
        c.Test_case.fitness ))
    r.Session.executed

let small = Replsim.make ~n:6 ~rounds:120 ~seed:9 ()

let test_history_identical_across_jobs () =
  let run jobs =
    let r, _ =
      Pool.run ~jobs ~iterations:300
        (Config.fitness_guided ~seed:21 ())
        (Replfault.multi_space ~arms:2 small)
        (Pool.Pure (executor small))
    in
    history r
  in
  let h1 = run 1 in
  checkb "jobs 1 = jobs 4" true (h1 = run 4)

let test_history_identical_across_inflight () =
  let run inflight =
    let r, _ =
      Pool.run ~inflight ~jobs:1 ~iterations:300
        (Config.fitness_guided ~seed:21 ())
        (Replfault.multi_space ~arms:2 small)
        (Pool.Pure (executor small))
    in
    history r
  in
  let h1 = run 1 in
  checkb "inflight 1 = inflight 8" true (h1 = run 8)

exception Crash

let replsim_meta = [ ("format", "1"); ("target", "replsim"); ("seed", "33") ]

let session_exports ?checkpoint () =
  let result, _ =
    Pool.run ?checkpoint ~jobs:1 ~batch_size:8 ~iterations:150
      (Config.fitness_guided ~seed:33 ())
      (Replfault.multi_space ~arms:2 small)
      (Pool.Pure (executor small))
  in
  (Export.summary_to_json ~target:"replsim" result, Export.records_to_csv result)

let test_checkpoint_resume_mid_campaign () =
  let base_json, base_csv = session_exports () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "afex_replsim_ck_%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      (* Crash mid-campaign at the 40th journal append... *)
      let hooks =
        {
          Checkpoint.no_hooks with
          Checkpoint.on_append = (fun n -> if n = 40 then raise Crash);
        }
      in
      (match Checkpoint.start ~hooks ~dir replsim_meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          let crashed =
            match session_exports ~checkpoint:cp () with
            | _ -> false
            | exception Crash -> true
          in
          Checkpoint.close cp;
          checkb "campaign crashed mid-flight" true crashed);
      (* ... resume, and the exports must be byte-identical to an
         uninterrupted campaign. *)
      match Checkpoint.resume ~dir replsim_meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Fun.protect
            ~finally:(fun () -> Checkpoint.close cp)
            (fun () ->
              let json, csv = session_exports ~checkpoint:cp () in
              checks "JSON identical after resume" base_json json;
              checks "CSV identical after resume" base_csv csv))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
  [
    ("make validation", test_make_validation);
    ("baseline sane", test_baseline_sane);
    ("baseline deterministic", test_baseline_deterministic);
    ("churn schedule shape", test_churn_schedule_shape);
    ("out-of-range faults rejected", test_out_of_range_faults_rejected);
    ("kill leader forces election", test_kill_leader_forces_election);
    ("deep bug: stale revote", test_deep_bug_stale_revote);
    ("deep bug: recovery crash", test_deep_bug_recovery_crash);
    ("no single fault reaches deep", test_no_single_fault_reaches_deep);
    ("coverage blocks grade the search", test_coverage_blocks_grade_the_search);
    ("prop fault embedding roundtrip", test_prop_fault_embedding_roundtrip);
    ("prop scenario codec roundtrip", test_prop_scenario_codec_roundtrip);
    ("kind strings roundtrip", test_kind_strings_roundtrip);
    ("faults_of_scenario errors", test_faults_of_scenario_errors);
    ("foreign faults rejected", test_rfault_of_fault_rejects_foreign);
    ("outcome: passed", test_outcome_passed_on_harmless_fault);
    ("outcome: crashed deep", test_outcome_crashed_on_deep_violation);
    ("outcome: hung on liveness", test_outcome_hung_on_liveness_violation);
    ("outcome: failed on commit loss", test_outcome_test_failed_on_commit_loss);
    ("commit-loss sensor values", test_commit_loss_sensor_values);
    ("space shapes", test_space_shapes);
    ("seed points well-formed", test_seed_points_well_formed);
    ("seeded guided search finds deep bug", test_seeded_guided_search_finds_deep_bug);
    ("history identical across jobs", test_history_identical_across_jobs);
    ("history identical across inflight", test_history_identical_across_inflight);
    ("checkpoint/resume mid-campaign", test_checkpoint_resume_mid_campaign);
  ]
