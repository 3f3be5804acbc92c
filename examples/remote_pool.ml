(* Distributed dispatch: the same campaign on in-process workers and on a
   mixed fleet of local domains plus remote node managers reached over
   the wire protocol — with bit-identical explored history.

   The "remote" managers here are loopback servers (real server loop,
   real socketpair framing, own domain), so the example runs on one
   machine; `afex serve` exposes the identical server loop over TCP.

   Run with: dune exec examples/remote_pool.exe *)

module Pool = Afex_cluster.Pool
module RM = Afex_cluster.Remote_manager
module Transport = Afex_cluster.Transport
module Config = Afex.Config
module Session = Afex.Session
module Test_case = Afex.Test_case

let history (r : Session.result) =
  List.map
    (fun (c : Test_case.t) -> Afex_faultspace.Point.key c.Test_case.point)
    r.Session.executed

let () =
  let target = Afex_simtarget.Apache.target () in
  let sub = Afex_simtarget.Apache.space () in
  let executor = Afex.Executor.of_target target in
  let config = Config.fitness_guided ~seed:42 () in
  let iterations = 800 in

  let local, _ =
    Pool.run ~jobs:1 ~iterations config sub (Pool.Pure executor)
  in

  (* Two managers behind the wire, one local domain alongside them. *)
  let lb1 = RM.Loopback.create ~name:"manager-1" ~executor () in
  let lb2 = RM.Loopback.create ~name:"manager-2" ~executor () in
  let mixed, stats =
    Pool.run
      ~remotes:[ RM.Loopback.spec lb1; RM.Loopback.spec lb2 ]
      ~jobs:1 ~iterations config sub (Pool.Pure executor)
  in
  RM.Loopback.shutdown lb1;
  RM.Loopback.shutdown lb2;

  (* A hostile wire: frames dropped, duplicated and bit-flipped. The
     proxy re-runs every failed or timed-out test locally, redials after
     a backoff, and writes the manager off after 8 consecutive failures
     — outcomes and history must be untouched. *)
  let chaos =
    { Transport.drop = 0.2; duplicate = 0.1; truncate = 0.05; bitflip = 0.1; garbage = 0.1 }
  in
  let lb3 =
    RM.Loopback.create ~name:"chaotic" ~chaos_to_server:chaos
      ~chaos_to_client:chaos ~chaos_seed:7 ~recv_timeout_ms:40 ~executor ()
  in
  let chaotic, chaos_stats =
    Pool.run
      ~remotes:[ RM.Loopback.spec ~max_attempts:8 ~backoff_ms:0.2 lb3 ]
      ~request_timeout_ms:200 ~jobs:1 ~iterations config sub
      (Pool.Pure executor)
  in
  RM.Loopback.shutdown lb3;

  Format.printf "in-process : %a@." Session.pp_summary local;
  Format.printf "mixed fleet: %a@." Session.pp_summary mixed;
  Format.printf "  %d of %d runs went over the wire, %d fallbacks@."
    stats.Pool.remote_runs stats.Pool.executed stats.Pool.remote_fallbacks;
  Format.printf "chaotic    : %a@." Session.pp_summary chaotic;
  Format.printf "  %d wire runs, %d local fallbacks under transport faults@."
    chaos_stats.Pool.remote_runs chaos_stats.Pool.remote_fallbacks;
  let ok_mixed = history mixed = history local in
  let ok_chaos = history chaotic = history local in
  Format.printf "mixed history identical:   %b@." ok_mixed;
  Format.printf "chaotic history identical: %b@." ok_chaos;
  if not (ok_mixed && ok_chaos) then exit 1
