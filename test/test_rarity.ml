(* The rarity layer: histogram properties on the Prop harness (the
   bonus is monotone non-increasing in hit counts), FairFuzz mutation masking (a pinned
   axis is never mutated — swept exhaustively over every mask of a fixed
   subspace and property-checked over random ones), the masked-reject
   attribution that keeps masking from silently degrading the session to
   random search, and end-to-end determinism of rarity+mask campaigns
   across pool shapes and a mid-campaign checkpoint/resume crash. *)

module Rng = Afex_stats.Rng
module Bitset = Afex_stats.Bitset
module Axis = Afex_faultspace.Axis
module Point = Afex_faultspace.Point
module Subspace = Afex_faultspace.Subspace
module Config = Afex.Config
module Session = Afex.Session
module Rarity = Afex.Rarity
module Mutator = Afex.Mutator
module Sensitivity = Afex.Sensitivity
module History = Afex.History
module Pqueue = Afex.Pqueue
module Test_case = Afex.Test_case
module Outcome = Afex_injector.Outcome
module Replsim = Afex_simtarget.Replsim
module Replfault = Afex_injector.Replfault
module Pool = Afex_cluster.Pool
module Checkpoint = Afex_cluster.Checkpoint
module Export = Afex_report.Export

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- histogram properties ---------------------------------------------- *)

let bitset blocks ids =
  let b = Bitset.create blocks in
  List.iter (fun i -> Bitset.set b (i mod blocks)) ids;
  b

(* A random histogram state: a block count and a sequence of coverage
   sets (block ids folded into range). *)
let arb_observations =
  Prop.(
    pair (int_range 1 24)
      (list ~max_length:12 (list ~max_length:8 (int_range 0 23))))

let test_prop_bonus_monotone () =
  Prop.check ~count:200 "bonus monotone non-increasing in hit counts"
    (Prop.pair arb_observations
       (Prop.list ~max_length:6 (Prop.int_range 0 23)))
    (fun ((blocks, obs), probe) ->
      let probe = if probe = [] then [ 0 ] else probe in
      let hist = Rarity.create ~blocks in
      let probe_bs = bitset blocks probe in
      (* Nothing observed yet: the probe's rarest block is unhit, so the
         bonus starts at its maximum of 1. Every further observation can
         only raise hit counts, so the probe's bonus may never rise. *)
      let prev = ref (Rarity.bonus hist probe_bs) in
      !prev = 1.0
      && List.for_all
           (fun ids ->
             Rarity.observe hist (bitset blocks ids);
             let b = Rarity.bonus hist probe_bs in
             let ok = b <= !prev && 0.0 < b && b <= 1.0 in
             prev := b;
             ok)
           obs)

let test_empty_coverage_earns_nothing () =
  let hist = Rarity.create ~blocks:8 in
  checkb "no bonus on empty coverage" true
    (Rarity.bonus hist (Bitset.create 8) = 0.0);
  checkb "no rarest block" true
    (Rarity.rarest_block hist (Bitset.create 8) = None)

(* --- mutation masking --------------------------------------------------- *)

let case ?(fitness = 1.0) point =
  {
    Test_case.point;
    fault = Afex_injector.Fault.make ~test_id:0 ~func:"read" ~call_number:1 ();
    status = Outcome.Passed;
    triggered = true;
    impact = fitness;
    fitness;
    birth = 0;
    mutated_axis = None;
    injection_stack = None;
    crash_stack = None;
    new_blocks = 0;
    duration_ms = 0.1;
  }

let subspace_of_cards cards =
  Subspace.make
    (List.mapi
       (fun i card -> Axis.range (Printf.sprintf "a%d" i) ~lo:0 ~hi:(card - 1))
       cards)

let pinned_untouched sub mask parent offspring axis =
  (not mask.(axis))
  && Subspace.mem sub offspring
  && List.for_all
       (fun i ->
         (not mask.(i))
         || Point.get offspring i = Point.get parent.Test_case.point i)
       (List.init (Subspace.dim sub) (fun i -> i))

(* Random (cardinality, pinned) axis lists with a seed for the draws; a
   mask that pins everything is repaired by freeing its first axis. *)
let arb_mask_setup =
  Prop.(
    pair
      (list ~max_length:5 (pair (int_range 1 9) bool))
      (int_range 0 9_999))

let test_prop_mask_never_mutates_pinned () =
  Prop.check ~count:200 "masked mutation never touches a pinned axis"
    arb_mask_setup (fun (axes, seed) ->
      let axes = if axes = [] then [ (3, true); (4, false) ] else axes in
      let axes =
        if List.exists (fun (_, pinned) -> not pinned) axes then axes
        else
          let card, _ = List.hd axes in
          (card, false) :: List.tl axes
      in
      let cards = List.map fst axes in
      let mask = Array.of_list (List.map snd axes) in
      let sub = subspace_of_cards cards in
      let rng = Rng.create seed in
      let sens = Sensitivity.create ~dims:(Subspace.dim sub) () in
      let parent = case (Subspace.random_point rng sub) in
      let cache = Mutator.create_cache ~dims:(Subspace.dim sub) in
      let ok = ref true in
      for _ = 1 to 20 do
        let offspring, axis =
          Mutator.mutate ~mask ~cache Mutator.default_params rng sub sens ~parent
        in
        ok := !ok && pinned_untouched sub mask parent offspring axis
      done;
      !ok)

let test_exhaustive_masks_on_fixed_subspace () =
  (* Every valid mask over a 4-axis subspace — all 2^4 - 1 that leave a
     free axis — with repeated draws under each. *)
  let sub = subspace_of_cards [ 2; 3; 4; 5 ] in
  let dims = Subspace.dim sub in
  let rng = Rng.create 42 in
  let sens = Sensitivity.create ~dims () in
  let parent = case (Subspace.random_point rng sub) in
  let cache = Mutator.create_cache ~dims in
  for m = 0 to (1 lsl dims) - 2 do
    let mask = Array.init dims (fun i -> m land (1 lsl i) <> 0) in
    for _ = 1 to 25 do
      let offspring, axis =
        Mutator.mutate ~mask ~cache Mutator.default_params rng sub sens ~parent
      in
      checkb
        (Printf.sprintf "mask %d respects pins" m)
        true
        (pinned_untouched sub mask parent offspring axis)
    done
  done

let test_mask_validation () =
  let sub = subspace_of_cards [ 3; 3 ] in
  let rng = Rng.create 1 in
  let sens = Sensitivity.create ~dims:2 () in
  let parent = case (Subspace.random_point rng sub) in
  let cache = Mutator.create_cache ~dims:2 in
  let raises mask =
    match Mutator.mutate ~mask ~cache Mutator.default_params rng sub sens ~parent with
    | exception Invalid_argument _ -> true
    | (_ : Point.t * int) -> false
  in
  checkb "length mismatch rejected" true (raises [| true |]);
  checkb "all-pinned mask rejected" true (raises [| true; true |])

let test_sensitivity_mask_pins_above_uniform () =
  let sens = Sensitivity.create ~dims:4 () in
  checkb "uniform sensitivity pins nothing" true
    (Array.for_all not (Sensitivity.mask sens));
  (* Reward one axis until it rises above the uniform share; only that
     axis may be pinned, so a free axis always remains. *)
  for _ = 1 to 10 do
    Sensitivity.record sens ~axis:2 ~fitness:5.0
  done;
  let mask = Sensitivity.mask sens in
  checkb "hot axis pinned" true mask.(2);
  checkb "a free axis remains" true (Array.exists not mask)

(* --- masked rejects are attributed, not silent ------------------------- *)

let test_masked_rejects_attributed () =
  (* Pin the only axis with alternatives: every masked attempt
     regenerates the parent (the free axis is unary), gets rejected as a
     duplicate, and the attempt budget falls back to a random point. The
     stats must attribute the whole budget to masked rejects — this is
     the counter that makes a mask-degraded session visible. *)
  let sub = subspace_of_cards [ 4; 1 ] in
  let rng = Rng.create 7 in
  let sens = Sensitivity.create ~dims:2 () in
  let parent = case (Point.of_list [ 1; 0 ]) in
  let queue = Pqueue.create ~capacity:4 in
  ignore (Pqueue.insert rng queue parent);
  let history = History.create () in
  History.add history parent.Test_case.point;
  let stats = Mutator.create_stats () in
  let proposal =
    Mutator.next ~stats
      ~mask:(fun _ -> Some [| true; false |])
      ~cache:(Mutator.create_cache ~dims:2)
      Mutator.default_params rng sub sens ~queue ~history
      ~is_pending:(fun _ -> false)
  in
  checkb "fallback proposal is random" true
    (proposal.Mutator.mutated_axis = None);
  checki "one proposal" 1 stats.Mutator.proposals;
  checki "every attempt was a masked reject"
    Mutator.default_params.Mutator.max_attempts stats.Mutator.masked_rejects;
  checki "no unmasked rejects" 0 stats.Mutator.rejects;
  checki "no masked accepts" 0 stats.Mutator.masked;
  checki "one random fallback" 1 stats.Mutator.random_fallbacks

let test_unmasked_stats_unchanged_draws () =
  (* Supplying stats must not change the draw sequence: the same seed
     with and without stats yields the same proposal. *)
  let sub = subspace_of_cards [ 5; 5; 5 ] in
  let sens = Sensitivity.create ~dims:3 () in
  let run with_stats =
    let rng = Rng.create 99 in
    let queue = Pqueue.create ~capacity:4 in
    ignore (Pqueue.insert rng queue (case (Point.of_list [ 2; 2; 2 ])));
    let history = History.create () in
    let stats = if with_stats then Some (Mutator.create_stats ()) else None in
    (Mutator.next ?stats ~cache:(Mutator.create_cache ~dims:3)
       Mutator.default_params rng sub sens ~queue ~history
       ~is_pending:(fun _ -> false))
      .Mutator.point
  in
  checks "same proposal" (Point.key (run false)) (Point.key (run true))

(* --- end-to-end determinism with rarity + masking ----------------------- *)

let small = Replsim.make ~n:6 ~rounds:120 ~seed:9 ()

let executor c =
  Afex.Executor.of_scenario_fn ~total_blocks:(Replsim.total_blocks c)
    ~description:(Replfault.description c)
    (Replfault.run_scenario c)

let rarity_config seed =
  Config.with_rarity ~weight:2.0 ~cutoff:0.1 ~mask:true
    (Config.fitness_guided ~seed ())

let history (r : Session.result) =
  List.map
    (fun (c : Test_case.t) ->
      ( Point.key c.Test_case.point,
        Outcome.status_to_string c.Test_case.status,
        c.Test_case.fitness ))
    r.Session.executed

let test_history_identical_across_jobs () =
  let run jobs =
    let r, _ =
      Pool.run ~jobs ~iterations:300 (rarity_config 21)
        (Replfault.multi_space ~arms:2 small)
        (Pool.Pure (executor small))
    in
    history r
  in
  let h1 = run 1 in
  checkb "jobs 1 = jobs 4 under rarity+mask" true (h1 = run 4)

let test_history_identical_across_inflight () =
  let run inflight =
    let r, _ =
      Pool.run ~inflight ~jobs:1 ~iterations:300 (rarity_config 21)
        (Replfault.multi_space ~arms:2 small)
        (Pool.Pure (executor small))
    in
    history r
  in
  let h1 = run 1 in
  checkb "inflight 1 = inflight 8 under rarity+mask" true (h1 = run 8)

let test_session_reports_rarity () =
  let sub = Replfault.multi_space ~arms:2 small in
  let r = Session.run ~iterations:150 (rarity_config 5) sub (executor small) in
  checkb "rare-block count reported" true (r.Session.rare_blocks <> None);
  checkb "mutator proposals tallied" true (r.Session.mutator.Mutator.proposals > 0);
  let paper =
    Session.run ~iterations:50 (Config.fitness_guided ~seed:5 ()) sub
      (executor small)
  in
  checkb "no rare-block count without rarity" true
    (paper.Session.rare_blocks = None)

exception Crash

let rarity_meta =
  [
    ("format", "1");
    ("target", "replsim");
    ("seed", "33");
    ("rarity", "true");
    ("mask", "true");
  ]

let session_exports ?checkpoint () =
  let result, _ =
    Pool.run ?checkpoint ~jobs:1 ~batch_size:8 ~iterations:150
      (rarity_config 33)
      (Replfault.multi_space ~arms:2 small)
      (Pool.Pure (executor small))
  in
  (Export.summary_to_json ~target:"replsim" result, Export.records_to_csv result)

let test_checkpoint_resume_mid_campaign () =
  let base_json, base_csv = session_exports () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "afex_rarity_ck_%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      (* Crash mid-campaign at the 40th journal append; the resumed
         campaign rebuilds the rarity histogram, the rare-block map and
         the mutator tallies by replaying the journal, so its exports
         must be byte-identical to an uninterrupted run. *)
      let hooks =
        {
          Checkpoint.no_hooks with
          Checkpoint.on_append = (fun n -> if n = 40 then raise Crash);
        }
      in
      (match Checkpoint.start ~hooks ~dir rarity_meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          let crashed =
            match session_exports ~checkpoint:cp () with
            | _ -> false
            | exception Crash -> true
          in
          Checkpoint.close cp;
          checkb "campaign crashed mid-flight" true crashed);
      match Checkpoint.resume ~dir rarity_meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Fun.protect
            ~finally:(fun () -> Checkpoint.close cp)
            (fun () ->
              let json, csv = session_exports ~checkpoint:cp () in
              checks "JSON identical after resume" base_json json;
              checks "CSV identical after resume" base_csv csv))

(* A checkpoint is bound to its configuration: a campaign checkpointed
   with rarity cannot be resumed without it, nor the reverse, even when
   the metadata (which the CLI derives from the flags) is made to agree.
   The replay regenerates other candidates or reaches another
   fingerprint, and the resume is refused. *)
let test_snapshot_rejects_rarity_mismatch () =
  let sub = Replfault.multi_space ~arms:2 small in
  let run ?checkpoint config =
    ignore
      (Pool.run ?checkpoint ~jobs:1 ~batch_size:8 ~sync_every:16
         ~iterations:40 config sub (Pool.Pure (executor small)))
  in
  let refused ~taken ~resumed =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "afex_rarity_mm_%d_%d" (Unix.getpid ()) (Random.bits ()))
    in
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
        Unix.rmdir dir)
      (fun () ->
        (match Checkpoint.start ~dir rarity_meta with
        | Error e -> Alcotest.fail e
        | Ok cp ->
            run ~checkpoint:cp taken;
            Checkpoint.close cp);
        match Checkpoint.resume ~dir rarity_meta with
        | Error e -> Alcotest.fail e
        | Ok cp -> (
            Fun.protect
              ~finally:(fun () -> Checkpoint.close cp)
              (fun () ->
                match run ~checkpoint:cp resumed with
                | () -> false
                | exception Checkpoint.Cannot_resume _ -> true)))
  in
  let plain = Config.fitness_guided ~seed:3 () in
  checkb "histogram under a rarity-free config rejected" true
    (refused ~taken:(rarity_config 3) ~resumed:plain);
  checkb "missing histogram under a rarity config rejected" true
    (refused ~taken:plain ~resumed:(rarity_config 3));
  checkb "matching configs resume" false
    (refused ~taken:(rarity_config 3) ~resumed:(rarity_config 3))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("prop bonus monotone", test_prop_bonus_monotone);
      ("empty coverage earns nothing", test_empty_coverage_earns_nothing);
      ("prop mask never mutates pinned", test_prop_mask_never_mutates_pinned);
      ("exhaustive masks respect pins", test_exhaustive_masks_on_fixed_subspace);
      ("mask validation", test_mask_validation);
      ("sensitivity mask pins above uniform", test_sensitivity_mask_pins_above_uniform);
      ("masked rejects attributed", test_masked_rejects_attributed);
      ("stats do not change draws", test_unmasked_stats_unchanged_draws);
      ("history identical across jobs", test_history_identical_across_jobs);
      ("history identical across inflight", test_history_identical_across_inflight);
      ("session reports rarity", test_session_reports_rarity);
      ("checkpoint/resume mid-campaign", test_checkpoint_resume_mid_campaign);
      ("snapshot rejects rarity mismatch", test_snapshot_rejects_rarity_mismatch);
    ]
