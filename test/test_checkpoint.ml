(* Crash-safe checkpoint/resume: the watermark codec (round trips,
   truncation and bit flips rejected), journal bytes pinned to the
   message codec, replay-from-zero reproducing the explorer's
   fingerprint, refusals (short journal, unreachable fingerprint,
   corrupt journal), and deterministic crash-point sweeps over every
   journal append on an inline and a loopback-remote pool — the
   in-process copy of what the CI kill -9 harness proves on the real
   binary. *)

module Checkpoint = Afex_cluster.Checkpoint
module Message = Afex_cluster.Message
module Pool = Afex_cluster.Pool
module Loopback = Afex_cluster.Remote_manager.Loopback
module Config = Afex.Config
module Explorer = Afex.Explorer
module Export = Afex_report.Export
module Outcome = Afex_injector.Outcome
module Point = Afex_faultspace.Point
module Rng = Afex_stats.Rng
module Bitset = Afex_stats.Bitset
module Apache = Afex_simtarget.Apache

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0
let executor () = Afex.Executor.of_target (Apache.target ())
let space () = Apache.space ()

let temp_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "afex_ck_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Deliberately awkward metadata: escaping must survive the round trip. *)
let meta =
  [
    ("format", "1");
    ("target", "apache");
    ("seed", "7");
    ("no te", "sp ace\tand\npercent % and \\ backslash");
  ]

(* ---- snapshot codec properties --------------------------------------- *)

(* A random mid-campaign explorer: random strategy, seed, feedback flag
   and progress point, captured when nothing is pending. *)
let arb_snapshot =
  Prop.make
    ~show:(fun (s : Checkpoint.Snapshot.t) ->
      Printf.sprintf "<snapshot: %d iterations, %d batches>"
        s.Checkpoint.Snapshot.explorer.Explorer.Snapshot.iterations
        s.Checkpoint.Snapshot.batches)
    (fun rng ->
      let seed = Rng.int rng 10_000 in
      let steps = Rng.int rng 61 in
      let config =
        match Rng.int rng 3 with
        | 0 -> Config.fitness_guided ~seed ()
        | 1 -> Config.random_search ~seed ()
        | _ -> Config.exhaustive ~seed ()
      in
      let config = { config with Config.feedback = Rng.bernoulli rng 0.5 } in
      let ex = Explorer.create config (space ()) (executor ()) in
      for _ = 1 to steps do
        match Explorer.next ex with
        | Some p -> ignore (Explorer.execute ex p)
        | None -> ()
      done;
      {
        Checkpoint.Snapshot.meta;
        batches = Rng.int rng 50;
        master_state = Rng.state (Rng.create (Rng.int rng 10_000));
        scheduler = None;
        explorer = Explorer.capture ex;
      })

let test_codec_roundtrip () =
  Prop.check ~count:25 "snapshot encode/decode/encode is bit-identical"
    arb_snapshot (fun snap ->
      let bytes = Checkpoint.Snapshot.encode snap in
      match Checkpoint.Snapshot.decode bytes with
      | Error _ -> false
      | Ok snap' -> String.equal (Checkpoint.Snapshot.encode snap') bytes)

(* One representative encoded snapshot for the corruption sweeps. *)
let sample_bytes =
  lazy
    (let rng = Rng.create 42 in
     Checkpoint.Snapshot.encode (arb_snapshot.Prop.gen rng))

let test_truncation_rejected () =
  let bytes = Lazy.force sample_bytes in
  Prop.check ~count:80 "truncated snapshot is a clean Error"
    (Prop.int_range 0 (String.length bytes - 1))
    (fun cut ->
      match Checkpoint.Snapshot.decode (String.sub bytes 0 cut) with
      | Error _ -> true
      | Ok _ -> false)

let test_bitflip_rejected () =
  let bytes = Lazy.force sample_bytes in
  Prop.check ~count:80 "bit-flipped snapshot is a clean Error"
    (Prop.int_range 0 ((String.length bytes * 8) - 1))
    (fun bit ->
      let b = Bytes.of_string bytes in
      let i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
      match Checkpoint.Snapshot.decode (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> false)

let test_scheduler_line_rejected () =
  (* A well-formed, correctly checksummed snapshot that carries the state
     line of the deleted adaptive window controller is refused, and the
     refusal says why. *)
  let bytes = Lazy.force sample_bytes in
  let trailer = String.rindex_from bytes (String.length bytes - 2) '\n' in
  let body =
    String.concat "\n"
      (List.concat_map
         (fun l ->
           if String.length l > 1 && String.sub l 0 2 = "g " then
             [ l; "S adaptive 32 4 - up 1 0 1a2b -" ]
           else [ l ])
         (String.split_on_char '\n' (String.sub bytes 0 (trailer + 1))))
  in
  let doctored =
    body ^ Printf.sprintf "k %08x\n" (Afex_cluster.Transport.checksum body)
  in
  match Checkpoint.Snapshot.decode doctored with
  | Ok _ -> Alcotest.fail "a snapshot with a scheduler line must be refused"
  | Error m ->
      checkb (Printf.sprintf "error %S names the adaptive controller" m) true
        (contains m "adaptive window controller")

let test_format3_refused () =
  (* A well-formed, correctly checksummed snapshot of the previous
     format — a full explorer image whose journal was truncated behind
     it — is refused, and the refusal says why. *)
  let body = "afex-checkpoint 3\ng 0 1\n" in
  let v3 = body ^ Printf.sprintf "k %08x\n" (Afex_cluster.Transport.checksum body) in
  match Checkpoint.Snapshot.decode v3 with
  | Ok _ -> Alcotest.fail "a format 3 snapshot must be refused"
  | Error m ->
      checkb (Printf.sprintf "error %S names format 3" m) true
        (contains m "format 3")

(* ---- journal bytes ---------------------------------------------------- *)

(* Real apache outcomes, plus copies with awkward stacks (spaces, commas,
   percent signs, newlines, non-ASCII, empty frames, an empty stack) and
   coverage shapes (none, one block, runs and gaps). *)
let sample_outcomes () =
  let ex = Explorer.create (Config.fitness_guided ~seed:3 ()) (space ()) (executor ()) in
  let exec = executor () in
  let real =
    List.filter_map
      (fun _ ->
        Option.map
          (fun p ->
            let o = exec.Afex.Executor.run_scenario (Explorer.scenario_for ex p) in
            ignore (Explorer.report ex p o);
            (Point.key p.Afex.Mutator.point, o))
          (Explorer.next ex))
      (List.init 30 Fun.id)
  in
  let _, o = List.hd real in
  let blocks = Bitset.capacity o.Outcome.coverage in
  let cov ids =
    let b = Bitset.create blocks in
    List.iter (Bitset.set b) ids;
    b
  in
  let odd =
    [
      { o with Outcome.injection_stack = Some [ "a b"; "c,d"; "50%"; ""; "\xc3\xa9\n" ] };
      { o with Outcome.crash_stack = Some []; status = Outcome.Crashed };
      { o with Outcome.coverage = cov []; status = Outcome.Hung; triggered = false };
      { o with Outcome.coverage = cov [ 0 ]; status = Outcome.Test_failed };
      { o with Outcome.coverage = cov [ 0; 1; 2; 5; 7; 8; blocks - 1 ] };
      { o with Outcome.duration_ms = 0.1 +. 0.2 };
    ]
  in
  real @ List.map (fun o -> ("1,2 %3", o)) odd

let test_journal_line_pinned () =
  with_dir (fun dir ->
      let outcomes = sample_outcomes () in
      (match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          List.iteri
            (fun i (point_key, o) ->
              Checkpoint.append_outcome cp ~point_key ~seq:(i + 1) o)
            outcomes;
          Checkpoint.close cp);
      let expected =
        String.concat ""
          (List.mapi
             (fun i (point_key, o) ->
               let payload =
                 "o " ^ Message.escape point_key ^ " "
                 ^ Message.encode_from_manager
                     (Message.Scenario_result
                        (Message.report_of_outcome ~seq:(i + 1) o))
               in
               Printf.sprintf "%08x %s\n"
                 (Afex_cluster.Transport.checksum payload)
                 payload)
             outcomes)
      in
      checks "journal = checksummed encode_from_manager lines" expected
        (read_file (Filename.concat dir "wal.log")));
  let plain = "apache:1,2,3" ^ "-plain" in
  let plain = String.map (fun c -> if c = ',' then '_' else c) plain in
  checkb "escape returns a string with nothing to escape as is" true
    (Message.escape plain == plain);
  checks "escape still escapes" "a%20b%2C%25%0A%C3%A9"
    (Message.escape "a b,%\n\xc3\xa9")

(* ---- replay rebuilds the explorer ------------------------------------ *)

(* Feed a fresh explorer the outcomes another one received: it must
   regenerate every candidate, reach the same fingerprint, and continue
   exactly as the original — for every strategy (exhaustive exercises
   the cursor). This is the invariant resume-by-replay rests on. *)
let test_replay_rebuilds_fingerprint () =
  List.iter
    (fun config ->
      let exec = executor () in
      let original = Explorer.create config (space ()) exec in
      let fed =
        List.filter_map
          (fun _ ->
            Option.map
              (fun p ->
                let o = exec.Afex.Executor.run_scenario (Explorer.scenario_for original p) in
                ignore (Explorer.report original p o);
                (p, o))
              (Explorer.next original))
          (List.init 40 Fun.id)
      in
      let replayed = Explorer.create config (space ()) exec in
      List.iter
        (fun ((p : Afex.Mutator.proposal), o) ->
          match Explorer.next replayed with
          | None -> Alcotest.fail "replay ran out of candidates"
          | Some q ->
              checks "regenerated candidate" (Point.key p.Afex.Mutator.point)
                (Point.key q.Afex.Mutator.point);
              ignore (Explorer.report replayed q o))
        fed;
      checkb "same fingerprint" true
        (Explorer.capture original = Explorer.capture replayed);
      let drive ex =
        for _ = 1 to 50 do
          match Explorer.next ex with
          | Some p -> ignore (Explorer.execute ex p)
          | None -> ()
        done
      in
      drive original;
      drive replayed;
      let tail ex =
        List.map
          (fun (c : Afex.Test_case.t) ->
            (Point.key c.Afex.Test_case.point, c.Afex.Test_case.status))
          (Explorer.records ex)
      in
      checkb "replayed tail = original tail" true (tail replayed = tail original))
    [
      Config.fitness_guided ~seed:13 ();
      Config.random_search ~seed:13 ();
      Config.exhaustive ~seed:13 ();
    ]

(* ---- checkpoint lifecycle -------------------------------------------- *)

let base_snapshot () =
  {
    Checkpoint.Snapshot.meta;
    batches = 0;
    master_state = 1L;
    scheduler = None;
    explorer =
      Explorer.capture
        (Explorer.create (Config.fitness_guided ~seed:1 ()) (space ()) (executor ()));
  }

let test_start_refuses_existing () =
  with_dir (fun dir ->
      (match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Checkpoint.write_snapshot cp ~iterations:0 (base_snapshot ());
          Checkpoint.close cp);
      match Checkpoint.start ~dir meta with
      | Ok _ -> Alcotest.fail "start over an existing snapshot must be refused"
      | Error e -> checkb "mentions --resume" true (contains e "--resume"))

let test_resume_refuses_empty () =
  with_dir (fun dir ->
      match Checkpoint.resume ~dir meta with
      | Ok _ -> Alcotest.fail "resume of an empty directory must be refused"
      | Error _ -> ())

let test_meta_mismatch_rejected () =
  with_dir (fun dir ->
      (match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Checkpoint.write_snapshot cp ~iterations:0 (base_snapshot ());
          Checkpoint.close cp);
      match Checkpoint.resume ~dir (("seed", "8") :: List.remove_assoc "seed" meta) with
      | Ok _ -> Alcotest.fail "resume under a different seed must be refused"
      | Error e -> checkb "names the mismatched key" true (contains e "seed"))

(* ---- crash-point sweeps over a real pooled campaign ------------------ *)

exception Crash

type backend = Inline | Remote

let iterations = 120

(* sync_every 32 < iterations: watermark snapshots at 32, 64 and 96 as
   well as the base and final ones. *)
let session ?checkpoint ?(backend = Inline) config =
  let server, pool =
    match backend with
    | Inline -> (None, Pool.create ~jobs:1 (Pool.Pure (executor ())))
    | Remote ->
        let server = Loopback.create ~executor:(executor ()) () in
        ( Some server,
          Pool.create ~remotes:[ Loopback.spec server ] ~inflight:4 ~jobs:0
            (Pool.Pure (executor ())) )
  in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown pool;
      Option.iter Loopback.shutdown server)
    (fun () ->
      let result, stats =
        Pool.session ?checkpoint ~batch_size:8 ~sync_every:32 ~iterations pool
          config (space ())
      in
      ( Export.summary_to_json ~target:"apache" result,
        Export.records_to_csv result,
        stats ))

let config = Config.fitness_guided ~seed:7 ()
let baseline = lazy (session config)

let on_append_crash k =
  { Checkpoint.no_hooks with Checkpoint.on_append = (fun n -> if n = k then raise Crash) }

let crash_at ?backend ~dir hooks =
  match Checkpoint.start ~hooks ~dir meta with
  | Error e -> Alcotest.fail e
  | Ok cp ->
      let crashed =
        match session ?backend ~checkpoint:cp config with
        | _ -> false
        | exception Crash -> true
      in
      Checkpoint.close cp;
      crashed

let resume_to_end ?backend ~dir () =
  match Checkpoint.resume ~dir meta with
  | Error e -> Alcotest.fail e
  | Ok cp ->
      Fun.protect
        ~finally:(fun () -> Checkpoint.close cp)
        (fun () ->
          let json, csv, stats = session ?backend ~checkpoint:cp config in
          (json, csv, stats, Checkpoint.stats cp))

let expect_baseline what (json, csv, _, _) =
  let base_json, base_csv, _ = Lazy.force baseline in
  checks (what ^ ": JSON identical") base_json json;
  checks (what ^ ": CSV identical") base_csv csv

(* Crash right after every journal append in turn — the hook fires once
   the line is written — and resume: every export must equal the
   uninterrupted run's. *)
let sweep backend () =
  for k = 1 to iterations do
    with_dir (fun dir ->
        checkb (Printf.sprintf "crashed at append %d" k) true
          (crash_at ~backend ~dir (on_append_crash k));
        let resumed = resume_to_end ~backend ~dir () in
        let _, _, _, st = resumed in
        checki (Printf.sprintf "append %d: whole journal replayed" k) k
          st.Checkpoint.replayed_records;
        expect_baseline (Printf.sprintf "crash at append %d" k) resumed)
  done

let test_finished_resume_executes_nothing () =
  with_dir (fun dir ->
      (match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          ignore (session ~checkpoint:cp config);
          Checkpoint.close cp);
      let (_, _, stats, st) as resumed = resume_to_end ~dir () in
      checki "no executions" 0 stats.Pool.executed;
      checki "every outcome replayed" iterations st.Checkpoint.replayed_records;
      checki "no new journal lines" 0 st.Checkpoint.wal_appends;
      expect_baseline "finished campaign resumed" resumed)

(* A finished campaign resumed with a larger budget replays to its
   final watermark, drains there as the finished run did, checks the
   fingerprint, and goes on: only the new tests are executed. *)
let test_finished_campaign_extends () =
  with_dir (fun dir ->
      (match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          ignore (session ~checkpoint:cp config);
          Checkpoint.close cp);
      match Checkpoint.resume ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Fun.protect
            ~finally:(fun () -> Checkpoint.close cp)
            (fun () ->
              let pool = Pool.create ~jobs:1 (Pool.Pure (executor ())) in
              Fun.protect
                ~finally:(fun () -> Pool.shutdown pool)
                (fun () ->
                  let result, stats =
                    Pool.session ~checkpoint:cp ~batch_size:8 ~sync_every:32
                      ~iterations:(iterations + 50) pool config (space ())
                  in
                  checki "extended to the new budget" (iterations + 50)
                    result.Afex.Session.iterations;
                  checki "only the new tests ran" 50
                    (stats.Pool.executed + stats.Pool.cache_hits);
                  checki "journal extended" 50
                    (Checkpoint.stats cp).Checkpoint.wal_appends)))

(* The crash hits right after a watermark snapshot's rename, before any
   later append: the resume verifies at that watermark and goes on. *)
let test_crash_after_snapshot_rename () =
  with_dir (fun dir ->
      let snapshots = ref 0 in
      let hooks =
        {
          Checkpoint.no_hooks with
          Checkpoint.after_rename =
            (fun () ->
              incr snapshots;
              if !snapshots = 2 then raise Crash);
        }
      in
      checkb "crashed after rename" true (crash_at ~dir hooks);
      expect_baseline "crash after the rename" (resume_to_end ~dir ()))

(* Crash the resumed run too: recovery must compose. *)
let test_double_crash () =
  with_dir (fun dir ->
      checkb "first crash" true (crash_at ~dir (on_append_crash 40));
      (match Checkpoint.resume ~hooks:(on_append_crash 30) ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          (match session ~checkpoint:cp config with
          | _ -> Alcotest.fail "second crash did not fire"
          | exception Crash -> ());
          Checkpoint.close cp);
      expect_baseline "double crash" (resume_to_end ~dir ()))

(* ---- refusals and journal damage ------------------------------------- *)

(* A finished campaign's snapshot claims all [iterations] outcomes; a
   journal cut short of them is refused before anything runs. *)
let test_short_journal_refused () =
  with_dir (fun dir ->
      (match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          ignore (session ~checkpoint:cp config);
          Checkpoint.close cp);
      let wal = Filename.concat dir "wal.log" in
      let lines = String.split_on_char '\n' (read_file wal) in
      write_file wal
        (String.concat "\n" (List.filteri (fun i _ -> i < 100) lines) ^ "\n");
      match Checkpoint.resume ~dir meta with
      | Ok _ -> Alcotest.fail "a journal shorter than the snapshot must be refused"
      | Error e ->
          checkb (Printf.sprintf "%S says the journal is short" e) true
            (contains e "journal holds only 100"))

(* A snapshot whose fingerprint the replay cannot reach (here: one more
   failure than the journal holds) is refused when the replay gets to
   its watermark, never continued. *)
let test_unreachable_fingerprint_refused () =
  with_dir (fun dir ->
      checkb "crashed" true (crash_at ~dir (on_append_crash 50));
      let path = Filename.concat dir "snapshot.afex" in
      let snap = Result.get_ok (Checkpoint.Snapshot.decode (read_file path)) in
      checki "the snapshot is the watermark at 32" 32
        snap.Checkpoint.Snapshot.explorer.Explorer.Snapshot.iterations;
      let x = snap.Checkpoint.Snapshot.explorer in
      let doctored =
        {
          snap with
          Checkpoint.Snapshot.explorer =
            { x with Explorer.Snapshot.failed = x.Explorer.Snapshot.failed + 1 };
        }
      in
      write_file path (Checkpoint.Snapshot.encode doctored);
      match Checkpoint.resume ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp -> (
          Fun.protect
            ~finally:(fun () -> Checkpoint.close cp)
            (fun () ->
              match session ~checkpoint:cp config with
              | _ -> Alcotest.fail "an unreachable fingerprint must be refused"
              | exception Checkpoint.Cannot_resume m ->
                  checkb (Printf.sprintf "%S names the field" m) true
                    (contains m "failed"))))

(* A line whose checksum and iteration check out but whose outcome does
   not decode (only a faulty writer produces one) passes the resume scan
   and is refused when the replay reaches it. *)
let test_undecodable_line_refused () =
  with_dir (fun dir ->
      (match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Checkpoint.write_snapshot cp ~iterations:0 (base_snapshot ());
          Checkpoint.close cp);
      let payload = "o 1,2,3 RESULT 1 P N 0 nonsense" in
      write_file
        (Filename.concat dir "wal.log")
        (Printf.sprintf "%08x %s\n" (Afex_cluster.Transport.checksum payload) payload);
      match Checkpoint.resume ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp -> (
          Fun.protect
            ~finally:(fun () -> Checkpoint.close cp)
            (fun () ->
              match Checkpoint.next_replay cp with
              | _ -> Alcotest.fail "an undecodable journal line must be refused"
              | exception Checkpoint.Cannot_resume m ->
                  checkb (Printf.sprintf "%S names the line" m) true
                    (contains m "journal line 1"))))

let test_torn_wal_tail_tolerated () =
  with_dir (fun dir ->
      checkb "crashed" true (crash_at ~dir (on_append_crash 40));
      (* Tear the final journal line, as a crash mid-write would. *)
      let wal = Filename.concat dir "wal.log" in
      let bytes = read_file wal in
      write_file wal (String.sub bytes 0 (String.length bytes - 7));
      let (_, _, _, st) as resumed = resume_to_end ~dir () in
      checki "one torn line dropped" 1 st.Checkpoint.torn_lines;
      checki "the complete lines replayed" 39 st.Checkpoint.replayed_records;
      expect_baseline "torn tail re-executed" resumed)

let test_corrupt_wal_interior_rejected () =
  with_dir (fun dir ->
      checkb "crashed" true (crash_at ~dir (on_append_crash 40));
      let wal = Filename.concat dir "wal.log" in
      let bytes = Bytes.of_string (read_file wal) in
      (* Flip a byte in the middle of the journal, not on the last line. *)
      Bytes.set bytes (Bytes.length bytes / 3) '\xff';
      write_file wal (Bytes.to_string bytes);
      match Checkpoint.resume ~dir meta with
      | Ok _ -> Alcotest.fail "interior journal corruption must be rejected"
      | Error _ -> ())

let test_stop_incompatible () =
  with_dir (fun dir ->
      match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Fun.protect
            ~finally:(fun () -> Checkpoint.close cp)
            (fun () ->
              let pool = Pool.create ~jobs:1 (Pool.Pure (executor ())) in
              Fun.protect
                ~finally:(fun () -> Pool.shutdown pool)
                (fun () ->
                  Alcotest.check_raises "stop + checkpoint rejected"
                    (Invalid_argument
                       "Pool.session: a checkpoint cannot capture a stop \
                        predicate; bound a checkpointed campaign with \
                        iterations or a time budget")
                    (fun () ->
                      ignore
                        (Pool.session ~checkpoint:cp
                           ~stop:{ Afex.Session.matches = (fun _ -> false); count = 1 }
                           ~batch_size:8 ~iterations:40 pool
                           (Config.fitness_guided ~seed:7 ())
                           (space ()))))))

let suite =
  [
    ("snapshot codec round-trips bit-identically", `Quick, test_codec_roundtrip);
    ("truncated snapshot rejected cleanly", `Quick, test_truncation_rejected);
    ("bit-flipped snapshot rejected cleanly", `Quick, test_bitflip_rejected);
    ("adaptive scheduler line refused", `Quick, test_scheduler_line_rejected);
    ("format 3 snapshot refused", `Quick, test_format3_refused);
    ("replay rebuilds every strategy's fingerprint", `Quick,
      test_replay_rebuilds_fingerprint);
    ("start refuses an existing checkpoint", `Quick, test_start_refuses_existing);
    ("resume refuses an empty directory", `Quick, test_resume_refuses_empty);
    ("resume rejects mismatched campaign metadata", `Quick, test_meta_mismatch_rejected);
    ("kill-point sweep resumes byte-identically", `Quick, sweep Inline);
    ("kill-point sweep over a loopback remote pool", `Quick, sweep Remote);
    ("finished campaign extends to a larger budget", `Quick,
      test_finished_campaign_extends);
    ("crash right after a snapshot rename recovers", `Quick,
      test_crash_after_snapshot_rename);
    ("double crash recovers", `Quick, test_double_crash);
    ("finished campaign resumes without executing", `Quick,
      test_finished_resume_executes_nothing);
    ("journal lines pinned to the message codec", `Quick, test_journal_line_pinned);
    ("resume refuses a journal short of the snapshot", `Quick,
      test_short_journal_refused);
    ("resume refuses an unreachable fingerprint", `Quick,
      test_unreachable_fingerprint_refused);
    ("resume refuses an undecodable journal line", `Quick,
      test_undecodable_line_refused);
    ("torn journal tail is re-executed", `Quick, test_torn_wal_tail_tolerated);
    ("interior journal corruption rejected", `Quick, test_corrupt_wal_interior_rejected);
    ("stop predicates cannot be checkpointed", `Quick, test_stop_incompatible);
  ]
