(* Crash-safe checkpoint/resume: codec round-trips on random explorer
   states, corruption rejection (truncation, bit flips, torn journal
   tails), and deterministic crash-point sweeps — the in-process copy of
   what the CI kill -9 harness proves on the real binary. *)

module Checkpoint = Afex_cluster.Checkpoint
module Pool = Afex_cluster.Pool
module Config = Afex.Config
module Explorer = Afex.Explorer
module Export = Afex_report.Export
module Rng = Afex_stats.Rng
module Apache = Afex_simtarget.Apache

let checkb = Alcotest.(check bool)
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
   and progress point, captured at a batch boundary (nothing pending). *)
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

(* ---- explorer-level capture/restore ---------------------------------- *)

let history (r : Afex.Session.result) =
  List.map
    (fun (c : Afex.Test_case.t) ->
      ( Afex_faultspace.Point.key c.Afex.Test_case.point,
        Afex_injector.Outcome.status_to_string c.Afex.Test_case.status,
        c.Afex.Test_case.fitness ))
    r.Afex.Session.executed

(* Capture mid-campaign, restore, continue: the tail must equal the
   uninterrupted run's, for every strategy (exhaustive exercises the
   cursor_consumed path). *)
let test_capture_restore_continues () =
  List.iter
    (fun config ->
      let drive ex n =
        for _ = 1 to n do
          match Explorer.next ex with
          | Some p -> ignore (Explorer.execute ex p)
          | None -> ()
        done
      in
      let full = Explorer.create config (space ()) (executor ()) in
      drive full 90;
      let half = Explorer.create config (space ()) (executor ()) in
      drive half 40;
      let snap = Explorer.capture half in
      match Explorer.restore config (space ()) (executor ()) snap with
      | Error e -> Alcotest.fail e
      | Ok resumed ->
          drive resumed 50;
          let tail ex =
            List.map
              (fun (c : Afex.Test_case.t) ->
                (Afex_faultspace.Point.key c.Afex.Test_case.point, c.Afex.Test_case.status))
              (Explorer.records ex)
          in
          checkb "restored tail = uninterrupted tail" true (tail resumed = tail full))
    [
      Config.fitness_guided ~seed:13 ();
      Config.random_search ~seed:13 ();
      Config.exhaustive ~seed:13 ();
    ]

(* ---- checkpoint lifecycle -------------------------------------------- *)

let test_start_refuses_existing () =
  with_dir (fun dir ->
      (match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Checkpoint.write_snapshot cp ~iterations:0
            {
              Checkpoint.Snapshot.meta;
              batches = 0;
              master_state = 1L;
              scheduler = None;
              explorer = Explorer.capture (Explorer.create
                (Config.fitness_guided ~seed:1 ()) (space ()) (executor ()));
            };
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
          Checkpoint.write_snapshot cp ~iterations:0
            {
              Checkpoint.Snapshot.meta;
              batches = 0;
              master_state = 1L;
              scheduler = None;
              explorer = Explorer.capture (Explorer.create
                (Config.fitness_guided ~seed:1 ()) (space ()) (executor ()));
            };
          Checkpoint.close cp);
      match Checkpoint.resume ~dir (("seed", "8") :: List.remove_assoc "seed" meta) with
      | Ok _ -> Alcotest.fail "resume under a different seed must be refused"
      | Error e -> checkb "names the mismatched key" true (contains e "seed"))

(* ---- crash-point sweep over a real pooled campaign ------------------- *)

exception Crash

let session_exports ?checkpoint config =
  let pool = Pool.create ~jobs:1 (Pool.Pure (executor ())) in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let result, _ =
        Pool.session ?checkpoint ~batch_size:8 ~iterations:120 pool config (space ())
      in
      ( Export.summary_to_json ~target:"apache" result,
        Export.records_to_csv result ))

let crash_at ~dir ~config hooks =
  match Checkpoint.start ~hooks ~every:25 ~dir meta with
  | Error e -> Alcotest.fail e
  | Ok cp ->
      let crashed =
        match session_exports ~checkpoint:cp config with
        | _ -> false
        | exception Crash -> true
      in
      Checkpoint.close cp;
      crashed

let resume_to_end ~dir ~config =
  match Checkpoint.resume ~every:25 ~dir meta with
  | Error e -> Alcotest.fail e
  | Ok cp ->
      Fun.protect
        ~finally:(fun () -> Checkpoint.close cp)
        (fun () -> session_exports ~checkpoint:cp config)

let test_kill_point_sweep () =
  let config = Config.fitness_guided ~seed:7 () in
  let base_json, base_csv = session_exports config in
  (* Learn the append count of the uninterrupted campaign, then crash at
     early / mid / late appends plus one past the midpoint snapshot. *)
  let total = ref 0 in
  with_dir (fun dir ->
      let hooks = { Checkpoint.no_hooks with Checkpoint.on_append = (fun n -> total := n) } in
      (match Checkpoint.start ~hooks ~every:25 ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          ignore (session_exports ~checkpoint:cp config);
          Checkpoint.close cp));
  let points = [ 1; 5; !total / 2; !total - 1 ] in
  List.iter
    (fun k ->
      with_dir (fun dir ->
          let hooks =
            {
              Checkpoint.no_hooks with
              Checkpoint.on_append = (fun n -> if n = k then raise Crash);
            }
          in
          checkb (Printf.sprintf "crashed at append %d" k) true
            (crash_at ~dir ~config hooks);
          let json, csv = resume_to_end ~dir ~config in
          checks (Printf.sprintf "JSON identical after crash at append %d" k)
            base_json json;
          checks (Printf.sprintf "CSV identical after crash at append %d" k)
            base_csv csv))
    points

(* Crash in the window between the snapshot rename and the journal
   truncation: the journal then still holds entries the snapshot already
   covers, which resume must discard. *)
let test_crash_between_rename_and_truncate () =
  let config = Config.fitness_guided ~seed:7 () in
  let base_json, base_csv = session_exports config in
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
      checkb "crashed after rename" true (crash_at ~dir ~config hooks);
      let json, csv = resume_to_end ~dir ~config in
      checks "JSON identical after rename-window crash" base_json json;
      checks "CSV identical after rename-window crash" base_csv csv)

(* Crash the resumed run too: recovery must compose. *)
let test_double_crash () =
  let config = Config.fitness_guided ~seed:7 () in
  let base_json, base_csv = session_exports config in
  with_dir (fun dir ->
      checkb "first crash" true
        (crash_at ~dir ~config
           {
             Checkpoint.no_hooks with
             Checkpoint.on_append = (fun n -> if n = 40 then raise Crash);
           });
      (match
         Checkpoint.resume ~every:25
           ~hooks:
             {
               Checkpoint.no_hooks with
               Checkpoint.on_append = (fun n -> if n = 30 then raise Crash);
             }
           ~dir meta
       with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          (match session_exports ~checkpoint:cp config with
          | _ -> Alcotest.fail "second crash did not fire"
          | exception Crash -> ());
          Checkpoint.close cp);
      let json, csv = resume_to_end ~dir ~config in
      checks "JSON identical after double crash" base_json json;
      checks "CSV identical after double crash" base_csv csv)

(* ---- journal damage --------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_torn_wal_tail_tolerated () =
  let config = Config.fitness_guided ~seed:7 () in
  let base_json, _ = session_exports config in
  with_dir (fun dir ->
      checkb "crashed" true
        (crash_at ~dir ~config
           {
             Checkpoint.no_hooks with
             Checkpoint.on_append = (fun n -> if n = 40 then raise Crash);
           });
      (* Tear the final journal line, as a crash mid-write would. *)
      let wal = Filename.concat dir "wal.log" in
      let bytes = read_file wal in
      write_file wal (String.sub bytes 0 (String.length bytes - 7));
      let json, _ = resume_to_end ~dir ~config in
      checks "torn tail re-executed, export identical" base_json json)

let test_corrupt_wal_interior_rejected () =
  let config = Config.fitness_guided ~seed:7 () in
  with_dir (fun dir ->
      checkb "crashed" true
        (crash_at ~dir ~config
           {
             Checkpoint.no_hooks with
             Checkpoint.on_append = (fun n -> if n = 40 then raise Crash);
           });
      let wal = Filename.concat dir "wal.log" in
      let bytes = Bytes.of_string (read_file wal) in
      (* Flip a byte in the middle of the journal, not on the last line. *)
      Bytes.set bytes (Bytes.length bytes / 3) '\xff';
      write_file wal (Bytes.to_string bytes);
      match Checkpoint.resume ~every:25 ~dir meta with
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
    ("capture/restore continues every strategy", `Quick, test_capture_restore_continues);
    ("start refuses an existing checkpoint", `Quick, test_start_refuses_existing);
    ("resume refuses an empty directory", `Quick, test_resume_refuses_empty);
    ("resume rejects mismatched campaign metadata", `Quick, test_meta_mismatch_rejected);
    ("kill-point sweep resumes byte-identically", `Quick, test_kill_point_sweep);
    ("crash between rename and truncate recovers", `Quick,
      test_crash_between_rename_and_truncate);
    ("double crash recovers", `Quick, test_double_crash);
    ("torn journal tail is re-executed", `Quick, test_torn_wal_tail_tolerated);
    ("interior journal corruption rejected", `Quick, test_corrupt_wal_interior_rejected);
    ("stop predicates cannot be checkpointed", `Quick, test_stop_incompatible);
  ]
