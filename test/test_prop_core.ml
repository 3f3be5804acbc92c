(* Property-test sweep over the search core, on the Prop harness: the
   Gaussian mutator never leaves the axis domains, Q_priority's bounded
   invariants hold under arbitrary op sequences, History membership is
   insensitive to insertion order, and the pool's submission-order merge
   explores exactly the sequential history for random seeds and
   windows. Failures shrink to a minimal seed/window/op-list. *)

module Rng = Afex_stats.Rng
module Axis = Afex_faultspace.Axis
module Point = Afex_faultspace.Point
module Subspace = Afex_faultspace.Subspace
module Pqueue = Afex.Pqueue
module History = Afex.History
module Mutator = Afex.Mutator
module Sensitivity = Afex.Sensitivity
module Test_case = Afex.Test_case
module Session = Afex.Session
module Config = Afex.Config
module Pool = Afex_cluster.Pool
module Outcome = Afex_injector.Outcome
module Apache = Afex_simtarget.Apache

let checkb = Alcotest.(check bool)

let case ?(fitness = 1.0) point =
  {
    Test_case.point;
    fault = Afex_injector.Fault.make ~test_id:0 ~func:"read" ~call_number:1 ();
    status = Afex_injector.Outcome.Passed;
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

(* --- Gaussian mutation stays inside the axis domains ---------------- *)

(* A random subspace described by its axis cardinalities (mixing ranges,
   symbol alphabets and subintervals), a parent inside it, and a seed for
   the mutation draw itself. *)
let arb_mutation_setup =
  let arb_cards = Prop.list ~max_length:5 (Prop.int_range 1 12) in
  Prop.(
    map
      ~shrink:(fun (cards, seed) ->
        List.map (fun cards' -> (cards', seed)) (arb_cards.shrink cards)
        @ List.map (fun seed' -> (cards, seed')) (shrink_int ~towards:0 seed))
      ~show:(fun (cards, seed) ->
        Printf.sprintf "cards=[%s] seed=%d"
          (String.concat ";" (List.map string_of_int cards))
          seed)
      (fun (cards, seed) -> (cards, seed))
      (pair arb_cards (int_range 0 10_000)))

let subspace_of_cards cards =
  let axis i card =
    match i mod 3 with
    | 0 -> Axis.range (Printf.sprintf "r%d" i) ~lo:0 ~hi:(card - 1)
    | 1 ->
        Axis.symbols
          (Printf.sprintf "s%d" i)
          (List.init card (Printf.sprintf "sym%d"))
    | _ -> Axis.subinterval (Printf.sprintf "i%d" i) ~lo:1 ~hi:card
  in
  Subspace.make (List.mapi axis cards)

let test_mutation_stays_in_bounds () =
  Prop.check ~count:150 "gaussian mutation respects axis domains"
    arb_mutation_setup (fun (cards, seed) ->
      let cards = if cards = [] then [ 3 ] else cards in
      let sub = subspace_of_cards cards in
      let rng = Rng.create seed in
      let sens = Sensitivity.create ~dims:(Subspace.dim sub) () in
      let parent = case (Subspace.random_point rng sub) in
      let cache = Mutator.create_cache ~dims:(Subspace.dim sub) in
      let ok = ref true in
      for _ = 1 to 20 do
        let offspring, axis =
          Mutator.mutate ~cache Mutator.default_params rng sub sens ~parent
        in
        ok :=
          !ok && Subspace.mem sub offspring && 0 <= axis
          && axis < Subspace.dim sub
      done;
      !ok)

(* --- Q_priority invariants under arbitrary op sequences ------------- *)

(* Ops are encoded as small ints so the harness can shrink a failing
   sequence: n mod 4 picks the operation, n / 4 its argument. *)
let arb_pqueue_ops =
  Prop.(pair (int_range 1 8) (list ~max_length:40 (int_range 0 399)))

let test_pqueue_invariants () =
  Prop.check ~count:150 "pqueue bounded invariants" arb_pqueue_ops
    (fun (capacity, ops) ->
      let q = Pqueue.create ~capacity in
      let rng = Rng.create 7 in
      let invariant () =
        Pqueue.size q <= Pqueue.capacity q
        && Pqueue.size q = List.length (Pqueue.elements q)
        && Pqueue.is_empty q = (Pqueue.size q = 0)
        && (Pqueue.is_empty q || Pqueue.mean_fitness q >= 0.0)
      in
      List.for_all
        (fun n ->
          let arg = n / 4 in
          (match n mod 4 with
          | 0 ->
              let fitness = float_of_int arg /. 10.0 in
              let size_before = Pqueue.size q in
              let victim =
                Pqueue.insert rng q
                  (case ~fitness (Point.of_list [ arg; 0; 0 ]))
              in
              (* an eviction happens exactly when the queue was full *)
              if size_before < capacity then assert (victim = None)
              else assert (victim <> None)
          | 1 ->
              let c =
                case ~fitness:(float_of_int arg) (Point.of_list [ arg; 1; 0 ])
              in
              ignore (Pqueue.insert ~policy:Pqueue.Drop_min rng q c)
          | 2 -> (
              match Pqueue.sample rng q with
              | None -> assert (Pqueue.is_empty q)
              | Some _ -> assert (not (Pqueue.is_empty q)))
          | _ ->
              let retired = Pqueue.age q ~decay:0.5 ~retire_below:0.2 in
              List.iter
                (fun (c : Test_case.t) -> assert (c.fitness < 0.2))
                retired);
          invariant ())
        ops)

(* --- Q_priority draws equal the weight-array reference --------------- *)

(* Fitness values the sampler must survive: zero, negative, tiny (below
   the 1e-6 sampling floor) and ordinary. *)
let arb_fitness_list =
  Prop.list ~max_length:12
    (Prop.map ~show:string_of_float
       (fun (special, x) ->
         if special < 5 then [| 0.0; -2.5; 1e-9; 1e-6; 3e-7 |].(special) else x)
       (Prop.pair (Prop.int_range 0 9) (Prop.float_range (-5.0) 100.0)))

(* The pre-scan implementation: materialise the floored weights, build a
   [Dist.weighted] and binary-search it, then walk to the index. *)
let reference_pick rng entries weight =
  let w =
    Array.of_list
      (List.map (fun c -> Float.max 1e-6 (weight c.Test_case.fitness)) entries)
  in
  Afex_stats.Dist.sample rng (Afex_stats.Dist.of_weights w)

let test_pqueue_sample_matches_reference () =
  Prop.check ~count:300 "pqueue sample/evict = Dist.of_weights reference"
    (Prop.pair (Prop.int_range 0 10_000) arb_fitness_list)
    (fun (seed, fitnesses) ->
      let entries =
        List.mapi
          (fun i fitness -> case ~fitness (Point.of_list [ i; 0; 0 ]))
          fitnesses
      in
      let n = List.length entries in
      let q = Result.get_ok (Pqueue.load ~capacity:(max 1 n) entries) in
      let rng = Rng.create seed and ref_rng = Rng.create seed in
      let samples_agree =
        List.for_all
          (fun _ ->
            match (Pqueue.sample rng q, entries) with
            | None, [] -> true
            | Some c, _ :: _ ->
                c == List.nth entries (reference_pick ref_rng entries Fun.id)
            | _ -> false)
          (List.init 8 Fun.id)
      in
      (* Inverse-fitness eviction on the full queue: same victim. *)
      let evict_agrees =
        n = 0
        ||
        let newcomer = case ~fitness:1.0 (Point.of_list [ n; 1; 0 ]) in
        let victim = Pqueue.insert rng q newcomer in
        let expected =
          List.nth entries
            (reference_pick ref_rng entries (fun f -> 1.0 /. Float.max 1e-6 f))
        in
        match victim with Some v -> v == expected | None -> false
      in
      samples_agree && evict_agrees && Rng.state rng = Rng.state ref_rng)

(* --- Cached sensitivity equals a fresh recomputation ---------------- *)

(* Ops: axis [n mod dims] records fitness [(n / dims) - 20] (negative,
   zero and positive payoffs); 0 = round-trip through dump/load. *)
let test_sensitivity_cache_matches_fresh () =
  Prop.check ~count:200 "cached probabilities/mask = fresh recomputation"
    (Prop.pair (Prop.int_range 1 5)
       (Prop.list ~max_length:40 (Prop.int_range 0 199)))
    (fun (dims, ops) ->
      let window = 4 in
      let fresh s =
        Result.get_ok (Sensitivity.load ~window ~dims (Sensitivity.dump s))
      in
      let agrees s =
        let f = fresh s in
        (* Read the cache before the fresh copy so a stale entry shows. *)
        let p = Sensitivity.probabilities s and m = Sensitivity.mask s in
        p = Sensitivity.probabilities f && m = Sensitivity.mask f
        && p == Sensitivity.probabilities s
      in
      let s = ref (Sensitivity.create ~window ~dims ()) in
      agrees !s
      && List.for_all
           (fun n ->
             if n = 0 then s := fresh !s
             else
               Sensitivity.record !s ~axis:(n mod dims)
                 ~fitness:(float_of_int ((n / dims) - 20));
             agrees !s)
           ops)

(* --- History is insertion-order insensitive ------------------------- *)

let arb_points =
  Prop.list ~max_length:25
    (Prop.map
       ~show:(fun p -> Point.key p)
       (fun (a, (b, c)) -> Point.of_list [ a; b; c ])
       (Prop.pair (Prop.int_range 0 5)
          (Prop.pair (Prop.int_range 0 5) (Prop.int_range 0 5))))

let test_history_order_insensitive () =
  Prop.check ~count:150 "history membership ignores insertion order"
    arb_points (fun points ->
      let build order =
        let h = History.create () in
        List.iter (History.add h) order;
        h
      in
      let forward = build points and backward = build (List.rev points) in
      History.size forward = History.size backward
      && List.for_all
           (fun p -> History.mem forward p && History.mem backward p)
           points)

(* --- pool merge order equals sequential exploration ----------------- *)

let history (r : Session.result) =
  List.map
    (fun (c : Test_case.t) ->
      (Point.key c.Test_case.point, Outcome.status_to_string c.Test_case.status,
       c.Test_case.fitness))
    r.Session.executed

let arb_seed_window = Prop.(pair (int_range 0 9999) (int_range 1 24))

let test_pool_merge_matches_sequential () =
  (* The pool's submission-order merge means the explored history is a
     function of (seed, window) alone — never of jobs. Spot-checked
     across the whole (seed, window) plane rather than at hand-picked
     values; a failure shrinks towards window 1, where the pool's
     schedule degenerates to Session.run's. *)
  Prop.check ~count:12 "pool history independent of jobs" arb_seed_window
    (fun (seed, window) ->
      let run jobs =
        let config = Config.fitness_guided ~seed () in
        let r, _ =
          Pool.run ~batch_size:window ~jobs ~iterations:60 config
            (Apache.space ())
            (Pool.Pure (Afex.Executor.of_target (Apache.target ())))
        in
        history r
      in
      run 1 = run 2)

let test_pool_window_one_is_sequential () =
  Prop.check ~count:8 "window 1 equals Session.run" (Prop.int_range 0 9999)
    (fun seed ->
      let config = Config.fitness_guided ~seed () in
      let sequential =
        Session.run ~iterations:50 config (Apache.space ())
          (Afex.Executor.of_target (Apache.target ()))
      in
      let pooled, _ =
        Pool.run ~batch_size:1 ~jobs:1 ~iterations:50 config (Apache.space ())
          (Pool.Pure (Afex.Executor.of_target (Apache.target ())))
      in
      history sequential = history pooled)

let test_shrinking_reports_minimal_ops () =
  (* Meta-check that a genuinely broken property over the op encoding
     shrinks to the smallest violating sequence, so pqueue regressions
     surface as one-op reproducers rather than 40-op dumps. *)
  match
    Prop.find_counterexample ~count:100 arb_pqueue_ops (fun (_, ops) ->
        List.for_all (fun n -> n mod 4 <> 3) ops)
  with
  | None -> Alcotest.fail "expected a counterexample"
  | Some f ->
      let _, ops = f.Prop.shrunk in
      checkb "shrunk to a single offending op" true
        (List.length ops = 1 && List.for_all (fun n -> n mod 4 = 3) ops)

let suite =
  [
    Alcotest.test_case "mutation stays in bounds" `Quick
      test_mutation_stays_in_bounds;
    Alcotest.test_case "pqueue invariants" `Quick test_pqueue_invariants;
    Alcotest.test_case "history order insensitive" `Quick
      test_history_order_insensitive;
    Alcotest.test_case "pool merge matches sequential" `Slow
      test_pool_merge_matches_sequential;
    Alcotest.test_case "window 1 is sequential" `Slow
      test_pool_window_one_is_sequential;
    Alcotest.test_case "op shrinking is minimal" `Quick
      test_shrinking_reports_minimal_ops;
    Alcotest.test_case "pqueue draws match weight-array reference" `Quick
      test_pqueue_sample_matches_reference;
    Alcotest.test_case "sensitivity cache matches fresh recomputation" `Quick
      test_sensitivity_cache_matches_fresh;
  ]
