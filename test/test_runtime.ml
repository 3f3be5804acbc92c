(* The runtime's reorder buffer in isolation, the Domains backend's
   shared run queue under contention, plus the cross-executor
   determinism matrix the whole design exists for: the same campaign
   exported byte-identically from the inline, Domains, event-loop and
   loopback-remote backends, a kill at a reorder-buffer sync watermark
   resumed to the same bytes. *)

module Runtime = Afex_cluster.Runtime
module Pool = Afex_cluster.Pool
module Checkpoint = Afex_cluster.Checkpoint
module RM = Afex_cluster.Remote_manager
module Config = Afex.Config
module Session = Afex.Session
module Export = Afex_report.Export
module Rng = Afex_stats.Rng
module Apache = Afex_simtarget.Apache
module Mysql = Afex_simtarget.Mysql
module Netsim = Afex_simtarget.Netsim
module Netfault = Afex_injector.Netfault
module Replsim = Afex_simtarget.Replsim
module Replfault = Afex_injector.Replfault

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- the reorder buffer ------------------------------------------------ *)

(* A random permutation of 0..n-1: the completion order of n submitted
   tasks, as adversarial as a scheduler can make it. *)
let arb_perm =
  Prop.make
    ~show:(fun l -> "[" ^ String.concat ";" (List.map string_of_int l) ^ "]")
    (fun rng ->
      let n = Rng.int rng 26 in
      let a = Array.init n (fun i -> i) in
      for i = n - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      Array.to_list a)

let test_prop_reorder_release_order () =
  Prop.check ~count:300 "release order = submission order" arb_perm (fun perm ->
      let n = List.length perm in
      let rb = Runtime.Reorder.create () in
      let released = ref [] in
      let ok = ref true in
      List.iter
        (fun seq ->
          Runtime.Reorder.offer rb ~seq seq;
          let rec drain () =
            let w = Runtime.Reorder.watermark rb in
            match Runtime.Reorder.pop rb with
            | Some v ->
                (* each pop releases exactly the watermark and advances
                   it by exactly one *)
                if v <> w then ok := false;
                if Runtime.Reorder.watermark rb <> w + 1 then ok := false;
                released := v :: !released;
                drain ()
            | None -> ()
          in
          drain ())
        perm;
      !ok
      && List.rev !released = List.init n (fun i -> i)
      && Runtime.Reorder.buffered rb = 0
      && Runtime.Reorder.watermark rb = n)

let test_prop_reorder_rejects_dup_and_stale () =
  Prop.check ~count:300 "duplicate and stale offers raise" arb_perm (fun perm ->
      match perm with
      | [] -> true
      | _ ->
          let rb = Runtime.Reorder.create () in
          let dup_ok = ref true in
          List.iter
            (fun seq ->
              Runtime.Reorder.offer rb ~seq seq;
              match Runtime.Reorder.offer rb ~seq seq with
              | () -> dup_ok := false
              | exception Invalid_argument _ -> ())
            perm;
          let rec drain () =
            match Runtime.Reorder.pop rb with Some _ -> drain () | None -> ()
          in
          drain ();
          let stale_ok =
            match Runtime.Reorder.offer rb ~seq:0 0 with
            | () -> false
            | exception Invalid_argument _ -> true
          in
          !dup_ok && stale_ok)

let test_reorder_head_of_line_gap () =
  let rb = Runtime.Reorder.create () in
  Runtime.Reorder.offer rb ~seq:1 11;
  Runtime.Reorder.offer rb ~seq:3 33;
  checkb "pop blocked on the gap" true (Runtime.Reorder.pop rb = None);
  checkb "peek blocked on the gap" true (Runtime.Reorder.peek rb = None);
  checki "backlog counts buffered" 2 (Runtime.Reorder.buffered rb);
  checki "watermark unmoved" 0 (Runtime.Reorder.watermark rb);
  Runtime.Reorder.offer rb ~seq:0 0;
  checkb "gap filled releases the head" true (Runtime.Reorder.pop rb = Some 0);
  checkb "then the buffered successor" true (Runtime.Reorder.pop rb = Some 11);
  checkb "next gap blocks again" true (Runtime.Reorder.pop rb = None);
  Runtime.Reorder.offer rb ~seq:2 22;
  checkb "late middle releases" true (Runtime.Reorder.pop rb = Some 22);
  checkb "tail releases" true (Runtime.Reorder.pop rb = Some 33);
  checki "drained" 0 (Runtime.Reorder.buffered rb)

let test_reorder_peek_does_not_advance () =
  let rb = Runtime.Reorder.create () in
  Runtime.Reorder.offer rb ~seq:0 7;
  checkb "peek sees the head" true (Runtime.Reorder.peek rb = Some 7);
  checkb "peek again sees the same head" true (Runtime.Reorder.peek rb = Some 7);
  checki "watermark unmoved by peek" 0 (Runtime.Reorder.watermark rb);
  checkb "pop still releases it" true (Runtime.Reorder.pop rb = Some 7);
  checki "watermark moved by pop" 1 (Runtime.Reorder.watermark rb)

let test_reorder_custom_base () =
  (* A resumed campaign creates its buffer at the snapshot's iteration
     count, not zero. *)
  let rb = Runtime.Reorder.create ~next:100 () in
  Runtime.Reorder.offer rb ~seq:102 2;
  Runtime.Reorder.offer rb ~seq:100 0;
  Runtime.Reorder.offer rb ~seq:101 1;
  checkb "releases from the base" true (Runtime.Reorder.pop rb = Some 0);
  checkb "in order" true (Runtime.Reorder.pop rb = Some 1);
  checkb "to the tail" true (Runtime.Reorder.pop rb = Some 2);
  checki "watermark counts from the base" 103 (Runtime.Reorder.watermark rb);
  checkb "seq below the base is stale" true
    (match Runtime.Reorder.offer rb ~seq:99 9 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- the Domains run queue ---------------------------------------------- *)

let test_domains_every_task_once () =
  (* Three workers race on the one shared queue while the explorer keeps
     submitting and polling: every task must complete exactly once, with
     its own outcome, and tasks still queued at shutdown must run. *)
  let exec = Afex.Executor.of_target (Apache.target ()) in
  let template =
    let explorer =
      Afex.Explorer.create (Config.random_search ~seed:3 ()) (Apache.space ()) exec
    in
    let p = Option.get (Afex.Explorer.next explorer) in
    exec.Afex.Executor.run_scenario (Afex.Explorer.scenario_for explorer p)
  in
  let outcome seq =
    { template with Afex_injector.Outcome.duration_ms = float_of_int seq }
  in
  let runtime =
    Runtime.domains ~total_blocks:exec.Afex.Executor.total_blocks ~jobs:3 ()
  in
  let ran = Atomic.make 0 in
  let task seq =
    {
      Runtime.seq;
      scenario = None;
      run =
        (fun () ->
          Atomic.incr ran;
          outcome seq);
      start = (fun () -> assert false);
    }
  in
  let n = 2000 in
  let seen = Array.make n 0 and mismatched = ref 0 in
  let absorb =
    List.iter (fun (seq, r) ->
        seen.(seq) <- seen.(seq) + 1;
        match r with
        | Ok o when o = outcome seq -> ()
        | Ok _ | Error _ -> incr mismatched)
  in
  for seq = 0 to n - 1 do
    Runtime.submit runtime (task seq);
    if seq mod 7 = 0 then absorb (Runtime.poll runtime ~block:false)
  done;
  absorb (Runtime.drain runtime);
  checki "nothing outstanding" 0 (Runtime.outstanding runtime);
  checkb "every task completed exactly once" true (Array.for_all (( = ) 1) seen);
  checki "each completion carries its own outcome" 0 !mismatched;
  for seq = 0 to 99 do
    Runtime.submit runtime (task seq)
  done;
  Runtime.shutdown runtime;
  checki "queued tasks still ran at shutdown" (n + 100) (Atomic.get ran)

(* --- the cross-executor determinism matrix ----------------------------- *)

(* One campaign per target family, exported from every backend the
   runtime unifies — inline (jobs 1), Domains (jobs 4),
   the async event loop (inflight 8) and a loopback remote manager
   behind a proxy domain — and byte-diffed pairwise. This is the
   tentpole's contract: parallelism placement may change throughput,
   never a byte of the explored history. *)
let matrix_exports ~tag ~iterations ~seed space mk_exec =
  let leg ?remotes ?inflight ~jobs () =
    let result, _ =
      Pool.run ?remotes ?inflight ~batch_size:8 ~jobs ~iterations
        (Config.fitness_guided ~seed ())
        space
        (Pool.Pure (mk_exec ()))
    in
    (Export.summary_to_json ~target:tag result, Export.records_to_csv result)
  in
  let base = leg ~jobs:1 () in
  let legs =
    [ ("jobs=4", leg ~jobs:4 ()); ("inflight=8", leg ~inflight:8 ~jobs:1 ()) ]
  in
  let lb = RM.Loopback.create ~executor:(mk_exec ()) () in
  let remote = leg ~remotes:[ RM.Loopback.spec lb ] ~jobs:1 () in
  RM.Loopback.shutdown lb;
  List.iter
    (fun (name, (json, csv)) ->
      checks (tag ^ " " ^ name ^ " JSON") (fst base) json;
      checks (tag ^ " " ^ name ^ " CSV") (snd base) csv)
    (legs @ [ ("loopback-remote", remote) ])

let test_matrix_mysql () =
  matrix_exports ~tag:"mysql" ~iterations:150 ~seed:41 (Mysql.space ())
    (fun () -> Afex.Executor.of_target (Mysql.target ()))

let test_matrix_netsim () =
  let server = Netsim.httpd_like () in
  matrix_exports ~tag:"netsim" ~iterations:120 ~seed:41 (Netfault.space server)
    (fun () ->
      Afex.Executor.of_scenario_fn
        ~total_blocks:(Netfault.total_request_blocks server)
        ~description:"netsim" (Netfault.run_scenario server))

let replsim_cluster = Replsim.make ~n:6 ~rounds:120 ~seed:9 ()

let test_matrix_replsim () =
  matrix_exports ~tag:"replsim" ~iterations:150 ~seed:21
    (Replfault.multi_space ~arms:2 replsim_cluster)
    (fun () ->
      Afex.Executor.of_scenario_fn
        ~total_blocks:(Replsim.total_blocks replsim_cluster)
        ~description:(Replfault.description replsim_cluster)
        (Replfault.run_scenario replsim_cluster))

let test_sequential_leg_matches_session_run () =
  (* With a window of one the pool's schedule degenerates to exactly the
     core sequential session — the determinism baseline every other
     matrix leg is transitively compared against. *)
  let config = Config.fitness_guided ~seed:41 () in
  let sequential =
    Session.run ~iterations:150 config (Mysql.space ())
      (Afex.Executor.of_target (Mysql.target ()))
  in
  let pooled, _ =
    Pool.run ~batch_size:1 ~jobs:1 ~iterations:150 config (Mysql.space ())
      (Pool.Pure (Afex.Executor.of_target (Mysql.target ())))
  in
  checks "sequential leg JSON"
    (Export.summary_to_json ~target:"mysql" sequential)
    (Export.summary_to_json ~target:"mysql" pooled)

(* --- kill -9 at a reorder-buffer sync watermark ------------------------ *)

exception Crash

let test_kill_and_resume_at_watermark () =
  (* sync_every 32 < iterations 150: the campaign hits real mid-flight
     watermarks and writes a watermark snapshot at the first one
     (release 32, where nothing is in flight). Crash at the 40th journal
     append — past that snapshot — and the resume must replay the whole
     journal (all 40 appends: the hook fires after the write), check the rebuilt
     state at watermark 32 against the snapshot, and still reproduce
     the uninterrupted exports byte-for-byte. *)
  let meta = [ ("format", "1"); ("target", "apache"); ("seed", "7") ] in
  let exports ?checkpoint () =
    let result, _ =
      Pool.run ?checkpoint ~jobs:1 ~batch_size:8 ~sync_every:32 ~iterations:150
        (Config.fitness_guided ~seed:7 ())
        (Apache.space ())
        (Pool.Pure (Afex.Executor.of_target (Apache.target ())))
    in
    (Export.summary_to_json ~target:"apache" result, Export.records_to_csv result)
  in
  let base_json, base_csv = exports () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "afex_runtime_wm_%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let hooks =
        {
          Checkpoint.no_hooks with
          Checkpoint.on_append = (fun n -> if n = 40 then raise Crash);
        }
      in
      (match Checkpoint.start ~hooks ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          let crashed =
            match exports ~checkpoint:cp () with
            | _ -> false
            | exception Crash -> true
          in
          let s = Checkpoint.stats cp in
          Checkpoint.close cp;
          checkb "campaign crashed mid-flight" true crashed;
          checkb "a watermark snapshot was written before the crash" true
            (s.Checkpoint.snapshots_written >= 2));
      match Checkpoint.resume ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Fun.protect
            ~finally:(fun () -> Checkpoint.close cp)
            (fun () ->
              let json, csv = exports ~checkpoint:cp () in
              let s = Checkpoint.stats cp in
              let snap = Option.get (Checkpoint.loaded_snapshot cp) in
              Alcotest.(check int)
                "resumed from the watermark snapshot, not the base" 32
                snap.Checkpoint.Snapshot.explorer.Afex.Explorer.Snapshot.iterations;
              Alcotest.(check int) "the whole journal replayed" 40
                s.Checkpoint.replayed_records;
              checks "JSON identical after watermark resume" base_json json;
              checks "CSV identical after watermark resume" base_csv csv))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("prop: reorder release order", test_prop_reorder_release_order);
      ("prop: reorder rejects dup and stale", test_prop_reorder_rejects_dup_and_stale);
      ("reorder head-of-line gap", test_reorder_head_of_line_gap);
      ("reorder peek does not advance", test_reorder_peek_does_not_advance);
      ("reorder custom base sequence", test_reorder_custom_base);
      ("domains run queue: every task exactly once", test_domains_every_task_once);
      ("matrix: mysql", test_matrix_mysql);
      ("matrix: netsim", test_matrix_netsim);
      ("matrix: replsim", test_matrix_replsim);
      ("matrix: sequential leg", test_sequential_leg_matches_session_run);
      ("kill and resume at a watermark", test_kill_and_resume_at_watermark);
    ]
