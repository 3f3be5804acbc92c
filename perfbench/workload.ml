(* The benchmark's workloads: which target each campaign explores, under
   which search configuration, for how many tests, and how its planted
   bug is recognised. *)

module Config = Afex.Config
module Test_case = Afex.Test_case
module Apache = Afex_simtarget.Apache
module Replsim = Afex_simtarget.Replsim
module Replfault = Afex_injector.Replfault

(* [Inline]: [Pool.create ~jobs:1], the runtime's inline backend. [Fleet]:
   one [Remote_manager.Loopback] connection, wire v2, event loop at
   [inflight] 8, [jobs] 0, checkpoint armed at the default cadence. *)
type execution = Inline | Fleet

type built = {
  sub : Afex_faultspace.Subspace.t;
  executor : Afex.Executor.t;
  config : int -> Config.t;  (* explorer seed -> configuration *)
  planted : Test_case.t -> bool;  (* the planted-bug violation *)
}

(* [cluster_target] is K: [clusters_s] is the wall time until the
   crash-cluster count reaches it. [build] builds the target model. *)
type t = {
  name : string;
  iterations : int;
  cluster_target : int;
  execution : execution;
  build : unit -> built;
}

let crashed_with known =
  let stacks =
    List.filter_map (fun (_, s) -> if s = [] then None else Some s) known
  in
  fun (c : Test_case.t) ->
    match c.Test_case.crash_stack with
    | Some s -> List.mem s stacks
    | None -> false

let apache_saturated () =
  {
    sub = Apache.space ();
    executor = Afex.Executor.of_target (Apache.target ());
    config =
      (fun seed ->
        Config.with_rarity ~mask:true (Config.fitness_guided ~seed ()));
    planted = crashed_with (Apache.known_bug_stacks ());
  }

let replsim_fleet () =
  let cluster = Replsim.make ~n:12 ~rounds:300 ~seed:11 () in
  {
    sub = Replfault.multi_space ~arms:2 cluster;
    executor =
      Afex.Executor.of_scenario_fn
        ~total_blocks:(Replsim.total_blocks cluster)
        ~description:(Replfault.description cluster)
        (Replfault.run_scenario cluster);
    config = (fun seed -> Config.fitness_guided ~seed ());
    planted =
      (fun c ->
        match c.Test_case.crash_stack with
        | Some frames -> List.mem "invariant:leader-uniqueness" frames
        | None -> false);
  }

let all =
  [
    {
      name = "apache-saturated";
      iterations = 12_000;
      cluster_target = 8;
      execution = Inline;
      build = apache_saturated;
    };
    {
      name = "replsim-fleet";
      iterations = 4_000;
      cluster_target = 1;
      execution = Fleet;
      build = replsim_fleet;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
