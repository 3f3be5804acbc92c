(* Tests for afex_stats: PRNG, distributions, summaries, bitsets. *)

module Rng = Afex_stats.Rng
module Dist = Afex_stats.Dist
module Summary = Afex_stats.Summary
module Bitset = Afex_stats.Bitset

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  checkb "different seeds diverge" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* Advancing one does not affect the other. *)
  let _ = Rng.bits64 a in
  let a' = Rng.bits64 a and b' = Rng.bits64 b in
  checkb "streams now independent" true (a' <> b')

let test_rng_split () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  checkb "split streams differ" true (xa <> xb)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    checkb "in [0,7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 4 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    let v = Rng.int_in rng (-3) 3 in
    checkb "in [-3,3]" true (v >= -3 && v <= 3);
    Hashtbl.replace seen v ()
  done;
  checki "all 7 values reachable" 7 (Hashtbl.length seen)

let test_rng_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    checkb "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 6 in
  for _ = 1 to 100 do
    checkb "p=0 never true" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    checkb "p=1 always true" true (Rng.bernoulli rng 1.0)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 8 in
  let n = 20_000 in
  let samples = List.init n (fun _ -> Rng.gaussian rng ~mu:5.0 ~sigma:2.0) in
  let s = Summary.of_list samples in
  checkb "mean near 5" true (Float.abs (Summary.mean s -. 5.0) < 0.1);
  checkb "stddev near 2" true (Float.abs (Summary.stddev s -. 2.0) < 0.1)

let test_rng_permutation () =
  let rng = Rng.create 10 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick_singleton () =
  let rng = Rng.create 11 in
  checki "singleton pick" 99 (Rng.pick rng [| 99 |]);
  Alcotest.check_raises "empty pick rejected"
    (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng ([||] : int array)))

(* --- Dist --- *)

let test_dist_uniform_support () =
  let d = Dist.uniform 4 in
  checki "support" 4 (Dist.support d);
  Array.iter (fun p -> checkf "uniform prob" 0.25 p) (Dist.weights d)

let test_dist_weighted_normalization () =
  let d = Dist.of_weights [| 1.0; 3.0 |] in
  let w = Dist.weights d in
  checkf "first" 0.25 w.(0);
  checkf "second" 0.75 w.(1)

let test_dist_zero_weights_uniform () =
  let d = Dist.of_weights [| 0.0; 0.0; 0.0 |] in
  Array.iter (fun p -> checkf "fallback uniform" (1.0 /. 3.0) p) (Dist.weights d)

let test_dist_negative_rejected () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Dist.of_weights: negative or NaN weight") (fun () ->
      ignore (Dist.of_weights [| 1.0; -1.0 |]))

let test_dist_sampling_frequencies () =
  let rng = Rng.create 21 in
  let d = Dist.of_weights [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let i = Dist.sample rng d in
    counts.(i) <- counts.(i) + 1
  done;
  checki "zero-weight index never drawn" 0 counts.(1);
  let f0 = float_of_int counts.(0) /. float_of_int n in
  checkb "frequency near 0.25" true (Float.abs (f0 -. 0.25) < 0.02)

(* Draw frequencies of [sample_gaussian_excluding] around [center]. The
   centre itself is never drawn, so its being the mode shows as
   neighbours getting lighter with distance from it. *)
let gaussian_frequencies ~seed ~sigma ~n ~center =
  let rng = Rng.create seed in
  let g = Dist.gaussian ~sigma ~n in
  let counts = Array.make n 0 in
  let draws = 40_000 in
  for _ = 1 to draws do
    let i = Dist.sample_gaussian_excluding rng g ~center in
    counts.(i) <- counts.(i) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int draws) counts

let test_gaussian_center_heaviest () =
  let f = gaussian_frequencies ~seed:24 ~sigma:2.0 ~n:11 ~center:5 in
  for k = 1 to 4 do
    checkb "lighter away from center (left)" true (f.(5 - k) > f.(5 - k - 1));
    checkb "lighter away from center (right)" true (f.(5 + k) > f.(5 + k + 1))
  done

let test_gaussian_symmetric () =
  let f = gaussian_frequencies ~seed:25 ~sigma:1.5 ~n:11 ~center:5 in
  for k = 1 to 5 do
    checkb "symmetric around center" true (Float.abs (f.(5 - k) -. f.(5 + k)) < 0.01)
  done

let test_gaussian_excluding_center () =
  let rng = Rng.create 22 in
  let g = Dist.gaussian ~sigma:1.0 ~n:8 in
  for _ = 1 to 500 do
    let v = Dist.sample_gaussian_excluding rng g ~center:3 in
    checkb "never center" true (v <> 3);
    checkb "in range" true (v >= 0 && v < 8)
  done

let test_gaussian_excluding_tiny_sigma () =
  (* Pathologically narrow sigma: the fallback must still move. *)
  let rng = Rng.create 23 in
  let g = Dist.gaussian ~sigma:1e-12 ~n:5 in
  for _ = 1 to 100 do
    let v = Dist.sample_gaussian_excluding rng g ~center:0 in
    checkb "moved off center" true (v <> 0)
  done

let test_dist_inverse () =
  let inv = Dist.inverse [| 2.0; 4.0; 0.0 |] in
  checkf "1/2" 0.5 inv.(0);
  checkf "1/4" 0.25 inv.(1);
  checkb "zero gets largest inverse" true (inv.(2) > inv.(0))

(* --- Summary --- *)

let test_summary_basic () =
  let s = Summary.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  checkf "mean" 2.5 (Summary.mean s);
  checkf "variance" (5.0 /. 3.0) (Summary.variance s);
  checkf "min" 1.0 (Summary.min_value s);
  checkf "max" 4.0 (Summary.max_value s);
  checkf "median" 2.5 (Summary.median s);
  checkf "total" 10.0 (Summary.total s)

let test_summary_empty () =
  let s = Summary.of_list [] in
  checki "count" 0 (Summary.count s);
  checkf "mean" 0.0 (Summary.mean s);
  checkf "variance" 0.0 (Summary.variance s)

let test_summary_singleton () =
  let s = Summary.of_list [ 7.0 ] in
  checkf "mean" 7.0 (Summary.mean s);
  checkf "variance" 0.0 (Summary.variance s);
  checkf "median" 7.0 (Summary.median s)

let test_summary_quantiles () =
  let s = Summary.of_list [ 0.0; 10.0 ] in
  checkf "q0" 0.0 (Summary.quantile s 0.0);
  checkf "q1" 10.0 (Summary.quantile s 1.0);
  checkf "q0.5 interpolates" 5.0 (Summary.quantile s 0.5);
  checkf "clamped" 10.0 (Summary.quantile s 2.0)

let test_summary_online_matches_offline () =
  let rng = Rng.create 31 in
  let values = List.init 500 (fun _ -> Rng.float rng 100.0) in
  let acc = Summary.Online.create () in
  List.iter (Summary.Online.add acc) values;
  let offline = Summary.of_list values in
  checkb "mean matches" true
    (Float.abs (Summary.Online.mean acc -. Summary.mean offline) < 1e-6);
  checkb "variance matches" true
    (Float.abs (Summary.Online.variance acc -. Summary.variance offline) < 1e-6);
  let s = Summary.Online.to_summary acc in
  checkf "round-trip median" (Summary.median offline) (Summary.median s)

(* --- Bitset --- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  checki "empty" 0 (Bitset.count b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  Bitset.set b 99;
  checki "count after sets" 3 (Bitset.count b);
  checkb "mem 63" true (Bitset.mem b 63);
  checkb "not mem 50" false (Bitset.mem b 50);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: index 100 out of range [0,100)") (fun () ->
      Bitset.set b 100)

let test_bitset_union_diff () =
  let a = Bitset.create 64 and b = Bitset.create 64 in
  Bitset.set a 1;
  Bitset.set a 2;
  Bitset.set b 2;
  Bitset.set b 3;
  checki "diff a-b" 1 (Bitset.diff_count a b);
  checki "diff b-a" 1 (Bitset.diff_count b a);
  Bitset.union_into ~dst:a b;
  checki "union count" 3 (Bitset.count a);
  checkb "b unchanged" true (Bitset.count b = 2)

let test_bitset_copy_independent () =
  let a = Bitset.create 16 in
  Bitset.set a 3;
  let b = Bitset.copy a in
  Bitset.set b 4;
  checkb "copy diverges" false (Bitset.mem a 4);
  checkb "copy kept bit" true (Bitset.mem b 3)

let test_bitset_to_list_iter () =
  let a = Bitset.create 20 in
  List.iter (Bitset.set a) [ 19; 0; 7 ];
  Alcotest.(check (list int)) "sorted list" [ 0; 7; 19 ] (Bitset.to_list a);
  let acc = ref 0 in
  Bitset.iter (fun i -> acc := !acc + i) a;
  checki "iter sum" 26 !acc

(* --- qcheck properties --- *)

(* The Gaussian mutation draw as it was before the offset table: [n]
   exponentials and a fresh [Dist.weighted] per call, binary-searched per
   draw. The table-based sampler must match it draw for draw. *)
let reference_gaussian_excluding rng ~center ~sigma ~n =
  let w =
    if sigma <= 0.0 then Array.init n (fun i -> if i = center then 1.0 else 0.0)
    else
      Array.init n (fun i ->
          let d = float_of_int (i - center) /. sigma in
          exp (-0.5 *. d *. d))
  in
  let d = Dist.of_weights w in
  let rec draw attempts =
    let i = Dist.sample rng d in
    if i <> center then i
    else if attempts > 64 then
      let j = Rng.int rng (n - 1) in
      if j >= center then j + 1 else j
    else draw (attempts + 1)
  in
  draw 0

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"bitset iter = ascending mem scan"
      Gen.(pair (int_bound 100) (list_size (int_bound 40) (int_bound 1000)))
      (fun (capacity, picks) ->
        let b = Bitset.create capacity in
        if capacity > 0 then
          List.iter (fun i -> Bitset.set b (i mod capacity)) picks;
        let visited = ref [] in
        Bitset.iter (fun i -> visited := i :: !visited) b;
        let scanned = List.filter (Bitset.mem b) (List.init capacity Fun.id) in
        List.rev !visited = scanned && Bitset.to_list b = scanned);
    Test.make ~name:"dist sample_weighted = sample of of_weights"
      Gen.(
        pair small_int
          (list_size (int_range 1 20)
             (oneof [ pure 0.0; pure 1e-300; float_bound_inclusive 10.0 ])))
      (fun (seed, weights) ->
        let w = Array.of_list weights in
        let a = Rng.create seed and b = Rng.create seed in
        List.for_all
          (fun _ -> Dist.sample_weighted a w = Dist.sample b (Dist.of_weights w))
          (List.init 10 Fun.id)
        && Rng.state a = Rng.state b);
    Test.make ~name:"gaussian table sampler = per-call reference"
      Gen.(
        quad small_int (int_range 2 80) (int_bound 1_000_000)
          (oneof [ pure 1e-12; pure 0.0; float_range 0.05 40.0 ]))
      (fun (seed, n, c, sigma) ->
        let center = c mod n in
        let g = Dist.gaussian ~sigma ~n in
        let a = Rng.create seed and b = Rng.create seed in
        List.for_all
          (fun _ ->
            Dist.sample_gaussian_excluding a g ~center
            = reference_gaussian_excluding b ~center ~sigma ~n)
          (List.init 10 Fun.id)
        && Rng.state a = Rng.state b);
    Test.make ~name:"bitset count equals distinct sets"
      Gen.(list_size (int_bound 50) (int_bound 199))
      (fun indices ->
        let b = Bitset.create 200 in
        List.iter (Bitset.set b) indices;
        Bitset.count b = List.length (List.sort_uniq compare indices));
    Test.make ~name:"summary mean within min/max"
      Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.0))
      (fun values ->
        let s = Summary.of_list values in
        Summary.mean s >= Summary.min_value s -. 1e-9
        && Summary.mean s <= Summary.max_value s +. 1e-9);
    Test.make ~name:"rng int stays in bounds"
      Gen.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    Test.make ~name:"dist sample index within support"
      Gen.(pair small_int (list_size (int_range 1 20) (float_bound_inclusive 10.0)))
      (fun (seed, weights) ->
        let rng = Rng.create seed in
        let d = Dist.of_weights (Array.of_list weights) in
        let i = Dist.sample rng d in
        i >= 0 && i < List.length weights);
  ]

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("rng determinism", test_rng_determinism);
      ("rng seeds differ", test_rng_seeds_differ);
      ("rng copy independent", test_rng_copy_independent);
      ("rng split", test_rng_split);
      ("rng int bounds", test_rng_int_bounds);
      ("rng int_in range", test_rng_int_in);
      ("rng float bounds", test_rng_float_bounds);
      ("rng bernoulli extremes", test_rng_bernoulli_extremes);
      ("rng gaussian moments", test_rng_gaussian_moments);
      ("rng permutation", test_rng_permutation);
      ("rng pick", test_rng_pick_singleton);
      ("dist uniform", test_dist_uniform_support);
      ("dist normalization", test_dist_weighted_normalization);
      ("dist zero weights", test_dist_zero_weights_uniform);
      ("dist negative rejected", test_dist_negative_rejected);
      ("dist sampling frequencies", test_dist_sampling_frequencies);
      ("gaussian center heaviest", test_gaussian_center_heaviest);
      ("gaussian symmetric", test_gaussian_symmetric);
      ("gaussian excluding center", test_gaussian_excluding_center);
      ("gaussian excluding tiny sigma", test_gaussian_excluding_tiny_sigma);
      ("dist inverse", test_dist_inverse);
      ("summary basic", test_summary_basic);
      ("summary empty", test_summary_empty);
      ("summary singleton", test_summary_singleton);
      ("summary quantiles", test_summary_quantiles);
      ("summary online matches offline", test_summary_online_matches_offline);
      ("bitset basic", test_bitset_basic);
      ("bitset union/diff", test_bitset_union_diff);
      ("bitset copy independent", test_bitset_copy_independent);
      ("bitset to_list/iter", test_bitset_to_list_iter);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
