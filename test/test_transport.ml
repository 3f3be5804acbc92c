(* Tests for the remote-dispatch stack: frame codec, socketpair transport,
   wire message codecs, the remote-manager proxy/server pair, and the
   chaos (transport fault injection) harness — a fault-injection tool's
   own transport gets tested under injected faults. *)

module Transport = Afex_cluster.Transport
module Message = Afex_cluster.Message
module RM = Afex_cluster.Remote_manager
module Node_manager = Afex_cluster.Node_manager
module Pool = Afex_cluster.Pool
module AE = Afex_cluster.Async_executor
module Config = Afex.Config
module Session = Afex.Session
module Test_case = Afex.Test_case
module Point = Afex_faultspace.Point
module Scenario = Afex_faultspace.Scenario
module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome
module Bitset = Afex_stats.Bitset
module Rng = Afex_stats.Rng
module Apache = Afex_simtarget.Apache

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let get_ok label = function
  | Ok v -> v
  | Error _ -> Alcotest.failf "%s: unexpected Error" label

let is_error = function Error _ -> true | Ok _ -> false
let executor () = Afex.Executor.of_target (Apache.target ())

(* Valid scenarios for the apache target, deterministically sampled. *)
let sample_scenarios n =
  let exec = executor () in
  let explorer =
    Afex.Explorer.create (Config.random_search ~seed:99 ()) (Apache.space ()) exec
  in
  List.init n (fun _ ->
      match Afex.Explorer.next explorer with
      | Some p -> Afex.Explorer.scenario_for explorer p
      | None -> Alcotest.fail "sample_scenarios: space exhausted")

let outcome_equal (a : Outcome.t) (b : Outcome.t) =
  Fault.equal a.Outcome.fault b.Outcome.fault
  && a.Outcome.status = b.Outcome.status
  && a.Outcome.triggered = b.Outcome.triggered
  && Bitset.equal a.Outcome.coverage b.Outcome.coverage
  && a.Outcome.injection_stack = b.Outcome.injection_stack
  && a.Outcome.crash_stack = b.Outcome.crash_stack
  && a.Outcome.duration_ms = b.Outcome.duration_ms

let history (r : Session.result) =
  List.map
    (fun (c : Test_case.t) ->
      (Point.key c.Test_case.point, Outcome.status_to_string c.Test_case.status,
       c.Test_case.fitness))
    r.Session.executed

(* --- the frame codec --- *)

let decode_all bytes =
  let d = Transport.Frame.create () in
  Transport.Frame.feed d bytes;
  let rec go acc =
    match Transport.Frame.next d with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error e -> Error e
  in
  go []

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      match decode_all (Transport.Frame.encode payload) with
      | Ok [ p ] -> checks "payload" payload p
      | Ok _ -> Alcotest.fail "expected exactly one frame"
      | Error e -> Alcotest.failf "decode: %s" (Transport.string_of_error e))
    [
      "";
      "x";
      "hello world\n";
      String.init 256 Char.chr;
      String.make 100_000 'A';
    ]

let test_frame_incremental () =
  (* One byte at a time: the decoder must tolerate any stream chunking. *)
  let payload = "RESULT 7 P T 0 0x1p-3 \xc3\xa9" in
  let bytes = Transport.Frame.encode payload in
  let d = Transport.Frame.create () in
  let got = ref None in
  String.iter
    (fun c ->
      Transport.Frame.feed d (String.make 1 c);
      match Transport.Frame.next d with
      | Ok (Some p) -> got := Some p
      | Ok None -> ()
      | Error e -> Alcotest.failf "decode: %s" (Transport.string_of_error e))
    bytes;
  checks "payload survives byte-wise delivery" payload
    (Option.value ~default:"<none>" !got);
  checki "nothing left over" 0 (Transport.Frame.pending d)

let test_frame_multiple_per_feed () =
  let payloads = [ "a"; ""; "third frame"; String.make 999 'z' ] in
  let bytes = String.concat "" (List.map Transport.Frame.encode payloads) in
  match decode_all bytes with
  | Ok got -> checkb "all frames decoded in order" true (got = payloads)
  | Error e -> Alcotest.failf "decode: %s" (Transport.string_of_error e)

let test_frame_bad_magic () =
  (match decode_all "XYZW garbage" with
  | Error (Transport.Corrupt _) -> ()
  | _ -> Alcotest.fail "garbage must be Corrupt");
  (* Right first byte, wrong second: still caught. *)
  let bytes = Transport.Frame.encode "ok" in
  let broken = Bytes.of_string bytes in
  Bytes.set broken 1 'Z';
  match decode_all (Bytes.to_string broken) with
  | Error (Transport.Corrupt _) -> ()
  | _ -> Alcotest.fail "bad second magic byte must be Corrupt"

let test_frame_oversized () =
  (* A garbage length prefix must fail fast, not trigger a huge read. *)
  let b = Buffer.create 16 in
  Buffer.add_string b "AF";
  Buffer.add_string b "\x7f\xff\xff\xff";
  Buffer.add_string b "\x00\x00\x00\x00";
  (match decode_all (Buffer.contents b) with
  | Error (Transport.Frame_too_large _) -> ()
  | _ -> Alcotest.fail "oversized declared length must be Frame_too_large");
  checkb "encode rejects oversized payloads" true
    (try
       ignore (Transport.Frame.encode (String.make (Transport.max_frame + 1) 'x'));
       false
     with Invalid_argument _ -> true);
  let a, b' = Transport.pair () in
  (match a.Transport.send (String.make (Transport.max_frame + 1) 'x') with
  | Error (Transport.Frame_too_large _) -> ()
  | _ -> Alcotest.fail "send of an oversized payload must be a typed error");
  a.Transport.close ();
  b'.Transport.close ()

let test_frame_checksum () =
  let bytes = Bytes.of_string (Transport.Frame.encode "checksummed payload") in
  (* Flip one payload bit. *)
  let i = Bytes.length bytes - 3 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 1));
  match decode_all (Bytes.to_string bytes) with
  | Error (Transport.Corrupt _) -> ()
  | _ -> Alcotest.fail "bit flip must be a checksum mismatch"

(* --- the socketpair transport --- *)

let test_pair_roundtrip () =
  let a, b = Transport.pair () in
  let messages =
    [ "plain"; ""; "newline\nin the middle"; "non-ASCII: r\xc3\xa9seau \xf0\x9f\x90\xab" ]
  in
  List.iter
    (fun m ->
      (match a.Transport.send m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" (Transport.string_of_error e));
      checks "a -> b" m (get_ok "recv" (b.Transport.recv ())))
    messages;
  (match b.Transport.send "the other way" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" (Transport.string_of_error e));
  checks "b -> a" "the other way" (get_ok "recv" (a.Transport.recv ()));
  a.Transport.close ();
  b.Transport.close ()

let test_recv_timeout () =
  let a, b = Transport.pair ~recv_timeout_ms:30 () in
  (match a.Transport.recv () with
  | Error Transport.Timeout -> ()
  | _ -> Alcotest.fail "silent peer must be Timeout, not a hang");
  a.Transport.close ();
  b.Transport.close ()

let test_closed_and_truncated_peer () =
  let a, b = Transport.pair ~recv_timeout_ms:100 () in
  b.Transport.close ();
  (match a.Transport.recv () with
  | Error Transport.Closed -> ()
  | _ -> Alcotest.fail "orderly shutdown must be Closed");
  (match a.Transport.send "into the void" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "send to a closed peer must fail");
  a.Transport.close ();
  (match a.Transport.recv () with
  | Error Transport.Closed -> ()
  | _ -> Alcotest.fail "recv on a closed transport must be Closed");
  (* EOF in the middle of a frame is corruption, not a clean close. *)
  let a, b =
    Transport.pair ~recv_timeout_ms:100
      ~mangle_b:(fun frame -> [ String.sub frame 0 5 ])
      ()
  in
  (match b.Transport.send "will be cut short" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" (Transport.string_of_error e));
  b.Transport.close ();
  (match a.Transport.recv () with
  | Error (Transport.Corrupt _) -> ()
  | _ -> Alcotest.fail "EOF inside a frame must be Corrupt");
  a.Transport.close ()

let test_chaos_mangler_deterministic () =
  let frame = Transport.Frame.encode "some payload" in
  let chaos =
    {
      Transport.drop = 0.2;
      duplicate = 0.3;
      truncate = 0.2;
      bitflip = 0.3;
      garbage = 0.3;
    }
  in
  let stream seed =
    List.init 50 (fun _ ->
        Transport.chaos_mangler ~rng:(Rng.create seed) chaos frame)
    |> List.concat
  in
  checkb "same seed, same corruption" true (stream 7 = stream 7);
  checkb "identity under no_chaos" true
    (Transport.chaos_mangler ~rng:(Rng.create 1) Transport.no_chaos frame
    = [ frame ]);
  checkb "certain drop discards the frame" true
    (Transport.chaos_mangler ~rng:(Rng.create 1)
       { Transport.no_chaos with Transport.drop = 1.0 }
       frame
    = [])

(* --- handshake codec --- *)

let test_handshake_codec () =
  checkb "hello round-trips" true
    (Message.decode_hello (Message.encode_hello ~version:3) = Ok 3);
  checkb "welcome round-trips" true
    (Message.decode_greeting (Message.encode_welcome ~version:1)
    = Ok (Message.Welcome 1));
  (match Message.decode_greeting (Message.encode_reject ~reason:"v2 only\nsorry") with
  | Ok (Message.Reject r) -> checks "reject reason survives" "v2 only\nsorry" r
  | _ -> Alcotest.fail "reject must decode");
  List.iter
    (fun line ->
      checkb (Printf.sprintf "malformed hello %S" line) true
        (is_error (Message.decode_hello line)))
    [ ""; "HELLO"; "HELLO afex"; "HELLO afex x"; "HELLO smtp 1"; "RUN 1 a b" ];
  List.iter
    (fun line ->
      checkb (Printf.sprintf "malformed greeting %S" line) true
        (is_error (Message.decode_greeting line)))
    [ ""; "WELCOME"; "WELCOME afex nope"; "HELLO afex 1" ]

let test_serve_rejects_version_mismatch () =
  (* A future version and the retired text protocol alike: the one
     version a build speaks is the only one it welcomes. *)
  List.iter
    (fun version ->
      let client, server = Transport.pair ~recv_timeout_ms:2000 () in
      let manager = Node_manager.create ~id:0 ~executor:(executor ()) () in
      let d = Domain.spawn (fun () -> RM.serve_connection manager server) in
      (match client.Transport.send (Message.encode_hello ~version) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" (Transport.string_of_error e));
      (match Message.decode_greeting (get_ok "greeting" (client.Transport.recv ())) with
      | Ok (Message.Reject _) -> ()
      | _ -> Alcotest.failf "protocol version %d must be rejected" version);
      client.Transport.close ();
      checkb "server reported the protocol error" true
        (match Domain.join d with Error (RM.Protocol _) -> true | _ -> false))
    [ 999; 1 ]

let test_wire_session_survives_garbage () =
  (* Full exchanges against live server domains sharing one manager: a
     garbage payload is answered on seq -1 and ends that connection (the
     stateful codecs cannot be trusted past it); a fresh dial then gets
     a real scenario served and shuts down cleanly. *)
  let manager = Node_manager.create ~id:0 ~executor:(executor ()) () in
  let open_session () =
    let client, server = Transport.pair ~recv_timeout_ms:2000 () in
    let d = Domain.spawn (fun () -> RM.serve_connection manager server) in
    let send payload =
      match client.Transport.send payload with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" (Transport.string_of_error e)
    in
    send (Message.encode_hello ~version:Message.protocol_version);
    (match Message.decode_greeting (get_ok "greeting" (client.Transport.recv ())) with
    | Ok (Message.Welcome v) -> checki "version" Message.protocol_version v
    | _ -> Alcotest.fail "expected WELCOME");
    let replies () =
      get_ok "reply decode"
        (Message.V2.decode_replies (Message.V2.client_dec ())
           (get_ok "reply" (client.Transport.recv ())))
    in
    (client, d, send, replies)
  in
  let client, d, send, replies = open_session () in
  send "complete nonsense";
  (match replies () with
  | [ Message.Manager_error { seq; _ } ] -> checki "undecodable -> seq -1" (-1) seq
  | _ -> Alcotest.fail "garbage must be answered with a manager error");
  checkb "garbage ends the connection" true
    (match Domain.join d with Error (RM.Protocol _) -> true | _ -> false);
  client.Transport.close ();
  let client, d, send, replies = open_session () in
  let scenario = List.hd (sample_scenarios 1) in
  let b = Buffer.create 128 in
  Message.V2.encode_request (Message.V2.client_enc ()) b ~seq:4 scenario;
  send (Buffer.contents b);
  (match replies () with
  | [ Message.Scenario_result r ] ->
      checki "matching seq" 4 r.Message.seq;
      checki "managers send new_blocks 0" 0 r.Message.new_blocks
  | _ -> Alcotest.fail "expected a scenario result");
  Buffer.clear b;
  Message.V2.encode_shutdown b;
  send (Buffer.contents b);
  checkb "clean server exit" true (Domain.join d = Ok ());
  checki "the manager ran exactly one test" 1 (Node_manager.tests_run manager);
  client.Transport.close ()

(* --- from_manager codec: property round-trip --- *)

let statuses = [| Outcome.Passed; Outcome.Test_failed; Outcome.Crashed; Outcome.Hung |]

let random_report rng =
  let funcs = [| "read"; "write"; "malloc"; "\xc3\xa9crire_r\xc3\xa9seau"; "select" |] in
  let errnos = [| "EIO"; "ENOMEM"; "EINTR" |] in
  let frames =
    [|
      "";
      "main (a.c:1)";
      "frame with spaces";
      "comma,separated,frame";
      "embedded\nnewline";
      "100% r\xc3\xa9seau";
      "tab\there";
    |]
  in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let stack () =
    match Rng.int rng 5 with
    | 0 -> None
    | 1 -> Some []
    | 2 -> Some [ "" ]
    | _ -> Some (List.init (1 + Rng.int rng 4) (fun _ -> pick frames))
  in
  {
    Message.seq = Rng.int rng 100_000;
    status = pick statuses;
    triggered = Rng.bernoulli rng 0.5;
    new_blocks = Rng.int rng 50;
    fault =
      Fault.make ~test_id:(Rng.int rng 50) ~func:(pick funcs)
        ~call_number:(Rng.int rng 6) ~errno:(pick errnos)
        ~retval:(Rng.int rng 3 - 1) ();
    coverage =
      List.sort_uniq compare (List.init (Rng.int rng 12) (fun _ -> Rng.int rng 400));
    injection_stack = stack ();
    crash_stack = stack ();
    duration_ms = (if Rng.bernoulli rng 0.1 then 0.0 else Rng.float rng 500.0);
  }

(* A failing codec bug used to print "case 73 of 200" and the full
   40-field report; the [Prop] harness shrinks to a minimal report (one
   field away from trivial) and prints the seed to replay it. *)
let report_arb =
  let trivial_fault =
    Fault.make ~test_id:0 ~func:"f" ~call_number:0 ~errno:"EIO" ~retval:0 ()
  in
  let shrink_stack r get set =
    match get r with
    | None -> []
    | Some [] -> [ set r None ]
    | Some (_ :: rest) -> [ set r None; set r (Some rest) ]
  in
  let shrink r =
    List.concat
      [
        (if r.Message.seq <> 0 then [ { r with Message.seq = 0 } ] else []);
        (if r.Message.status <> Outcome.Passed then
           [ { r with Message.status = Outcome.Passed } ]
         else []);
        (if r.Message.triggered then [ { r with Message.triggered = false } ]
         else []);
        (if r.Message.new_blocks <> 0 then [ { r with Message.new_blocks = 0 } ]
         else []);
        (if r.Message.duration_ms <> 0.0 then
           [ { r with Message.duration_ms = 0.0 } ]
         else []);
        (match r.Message.coverage with
        | [] -> []
        | _ :: rest ->
            [ { r with Message.coverage = [] }; { r with Message.coverage = rest } ]);
        shrink_stack r
          (fun r -> r.Message.injection_stack)
          (fun r s -> { r with Message.injection_stack = s });
        shrink_stack r
          (fun r -> r.Message.crash_stack)
          (fun r s -> { r with Message.crash_stack = s });
        (if r.Message.fault <> trivial_fault then
           [ { r with Message.fault = trivial_fault } ]
         else []);
      ]
  in
  let show r = Message.encode_from_manager (Message.Scenario_result r) in
  Prop.make ~shrink ~show random_report

let test_from_manager_roundtrip_property () =
  Prop.check ~count:200 ~seed:2026 "from_manager round-trip" report_arb (fun r ->
      let line = Message.encode_from_manager (Message.Scenario_result r) in
      (not (String.contains line '\n'))
      &&
      match Message.decode_from_manager line with
      | Ok (Message.Scenario_result r') -> r' = r
      | Ok (Message.Manager_error _) | Error _ -> false)

let test_manager_error_roundtrip () =
  List.iter
    (fun (seq, message) ->
      let line =
        Message.encode_from_manager (Message.Manager_error { seq; message })
      in
      match Message.decode_from_manager line with
      | Ok (Message.Manager_error { seq = seq'; message = message' }) ->
          checki "seq" seq seq';
          checks "message" message message'
      | _ -> Alcotest.failf "manager error %S did not round-trip" message)
    [
      (1, "plain failure");
      (-1, "could not decode the request");
      (7, "");
      (12, "multi\nline\nerror");
      (3, "r\xc3\xa9seau d\xc3\xa9connect\xc3\xa9 100%");
    ]

let test_from_manager_malformed () =
  List.iter
    (fun line ->
      checkb (Printf.sprintf "reject %S" line) true
        (is_error (Message.decode_from_manager line)))
    [
      "";
      "RESULT";
      "RESULT 1 P";
      "RESULT x P T 0 0x1p1 f @0: @0: @0:";  (* bad seq *)
      "RESULT 1 Q T 0 0x1p1 f @0: @0: @0:";  (* unknown status token *)
      "RESULT 1 P X 0 0x1p1 f @0: @0: @0:";  (* bad triggered flag *)
      "RESULT 1 P T zz 0x1p1 f @0: @0: @0:"; (* bad new_blocks *)
      "RESULT 1 P T 0 fast f @0: @0: @0:";   (* bad duration *)
      "RESULT 1 P T 0 0x1p1 f 3-1 @0: @0:";  (* descending coverage range *)
      "RESULT 1 P T 0 0x1p1 f -3 @0: @0:";   (* negative coverage *)
      "RESULT 1 P T 0 0x1p1 f 0,1 @nope: @0:"; (* bad stack count *)
      "ERROR";
      "ERROR x boom";
      "HELLO afex 1";
      "a perfectly ordinary sentence";
    ]

let test_to_manager_total () =
  (* The request decoder must reject anything malformed: every
     truncation of a request record, unknown tags and modes, and strings
     beyond the length limit. *)
  let decode payload = Message.V2.decode_requests (Message.V2.server_dec ()) payload in
  let scenario = List.hd (sample_scenarios 1) in
  let b = Buffer.create 128 in
  Message.V2.encode_request (Message.V2.client_enc ()) b ~seq:9 scenario;
  let request = Buffer.contents b in
  (match decode request with
  | Ok [ Message.Run_scenario r ] ->
      checki "seq" 9 r.seq;
      checks "scenario" (Scenario.to_string scenario) (Scenario.to_string r.scenario)
  | _ -> Alcotest.fail "a request must round-trip");
  Buffer.clear b;
  Message.V2.encode_shutdown b;
  checkb "shutdown round-trips" true
    (decode (Buffer.contents b) = Ok [ Message.Shutdown ]);
  for len = 1 to String.length request - 1 do
    checkb
      (Printf.sprintf "reject the %d-byte truncation" len)
      true
      (is_error (decode (String.sub request 0 len)))
  done;
  let oversized =
    let b = Buffer.create 16 in
    (* REQ seq 1, gen 1, full scenario of one binding whose name claims
       more than max_line bytes. *)
    Buffer.add_string b "\x01\x01\x01\x00\x01";
    Message.V2.varint_encode b (Message.max_line + 1);
    Buffer.contents b
  in
  List.iter
    (fun payload ->
      checkb (Printf.sprintf "reject %S" payload) true (is_error (decode payload)))
    [ "RUN 1 read 1"; "\x01\x01\x01\x07"; "\x09"; oversized ]

let test_coverage_ranges () =
  let base = random_report (Rng.create 5) in
  List.iter
    (fun coverage ->
      let r = { base with Message.coverage } in
      match Message.decode_from_manager
              (Message.encode_from_manager (Message.Scenario_result r))
      with
      | Ok (Message.Scenario_result r') ->
          checkb "coverage round-trips" true (r'.Message.coverage = coverage)
      | _ -> Alcotest.fail "coverage variant did not decode")
    [
      [];
      [ 0 ];
      [ 399 ];
      [ 0; 1; 2; 3; 4 ];
      [ 7; 9; 11 ];
      [ 0; 1; 2; 50; 51; 52; 53; 400 ];
    ]

let test_outcome_report_roundtrip () =
  let exec = executor () in
  let total_blocks = exec.Afex.Executor.total_blocks in
  List.iter
    (fun scenario ->
      let outcome = exec.Afex.Executor.run_scenario scenario in
      let report = Message.report_of_outcome ~seq:1 outcome in
      match Message.outcome_of_report ~total_blocks report with
      | Ok rebuilt ->
          checkb "outcome rebuilt bit-for-bit" true (outcome_equal outcome rebuilt)
      | Error m -> Alcotest.failf "outcome_of_report: %s" m)
    (sample_scenarios 10);
  (* Coverage indices outside the explorer's bitset must not crash. *)
  let report =
    { (random_report (Rng.create 3)) with Message.coverage = [ 0; 99_999 ] }
  in
  checkb "out-of-range coverage is a typed error" true
    (is_error (Message.outcome_of_report ~total_blocks:100 report))

(* --- the pipelined client over the loopback --- *)

(* Submit every scenario on [conn] (tags = list positions), then drain
   until each has an answer or [timeout_s] passes. *)
let pipelined_run ?(timeout_s = 10.0) conn scenarios =
  List.iteri
    (fun tag s ->
      match RM.Pipelined.submit conn ~tag s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "submit: %s" (RM.string_of_error e))
    scenarios;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let results = ref [] in
  while
    List.length !results < List.length scenarios
    && Unix.gettimeofday () < deadline
  do
    match RM.Pipelined.drain conn with
    | [] -> Unix.sleepf 0.001
    | rs -> results := !results @ rs
  done;
  !results

let test_loopback_outcome_equality () =
  let exec = executor () in
  let lb = RM.Loopback.create ~executor:exec () in
  let conn =
    RM.Pipelined.create (RM.Loopback.spec lb)
      ~total_blocks:exec.Afex.Executor.total_blocks ~credit:32
  in
  let scenarios = Array.of_list (sample_scenarios 20) in
  let results = pipelined_run conn (Array.to_list scenarios) in
  checki "every request answered" 20 (List.length results);
  List.iter
    (fun (tag, r) ->
      let remote = get_ok "pipelined outcome" r in
      let local = exec.Afex.Executor.run_scenario scenarios.(tag) in
      checkb "remote outcome equals local outcome" true (outcome_equal remote local))
    results;
  let s = RM.Pipelined.stats conn in
  checki "20 requests" 20 s.RM.requests;
  checki "no retries on a clean wire" 0 s.RM.retries;
  checki "one dial" 1 s.RM.dials;
  checkb "frames were counted" true (s.RM.frames_out > 0 && s.RM.frames_in > 0);
  checkb "bytes were counted" true (s.RM.bytes_out > 0 && s.RM.bytes_in > 0);
  RM.Pipelined.close conn;
  RM.Loopback.shutdown lb;
  checki "exactly one connection was made" 1 (RM.Loopback.connections lb)

let test_loopback_manager_error_not_retried () =
  let failing =
    Afex.Executor.of_scenario_fn ~total_blocks:10 ~description:"always fails"
      (fun _ -> invalid_arg "executor exploded")
  in
  let lb = RM.Loopback.create ~executor:failing () in
  let conn = RM.Pipelined.create (RM.Loopback.spec lb) ~total_blocks:10 ~credit:1 in
  (match pipelined_run conn (sample_scenarios 1) with
  | [ (0, Error (RM.Manager m)) ] ->
      checkb "the manager's message survives" true (m = "executor exploded")
  | _ -> Alcotest.fail "a manager-side failure must surface as Manager");
  checkb "the connection survives a manager error" true
    (RM.Pipelined.take_orphans conn = [] && not (RM.Pipelined.abandoned conn));
  let s = RM.Pipelined.stats conn in
  checki "manager errors are deterministic: no retry" 0 s.RM.retries;
  checki "counted" 1 s.RM.manager_errors;
  RM.Pipelined.close conn;
  RM.Loopback.shutdown lb

(* --- chaos: the dispatcher under transport fault injection --- *)

let mild_chaos =
  {
    Transport.drop = 0.15;
    duplicate = 0.15;
    truncate = 0.05;
    bitflip = 0.1;
    garbage = 0.1;
  }

(* The remote proxy's own machinery — a one-slot event loop over one
   manager — driven directly: every test comes back, remote or re-run
   locally, and must equal the local outcome. No backoff, so every test
   makes exactly one remote attempt and the run is a function of the
   chaos seed. *)
let run_under_chaos ~chaos_to_server ~chaos_to_client ~seed =
  let exec = executor () in
  let lb =
    RM.Loopback.create ?chaos_to_server ?chaos_to_client ~chaos_seed:seed
      ~recv_timeout_ms:40 ~executor:exec ()
  in
  let proxy =
    AE.create
      ~remotes:[ RM.Loopback.spec ~max_attempts:50 ~backoff_ms:0.0 lb ]
      ~request_timeout_ms:60 ~inflight:1
      ~total_blocks:exec.Afex.Executor.total_blocks ()
  in
  let scenarios = Array.of_list (sample_scenarios 15) in
  let results =
    AE.exec_batch proxy
      (Array.map
         (fun s ->
           {
             AE.scenario = Some s;
             start = (fun () -> Afex.Executor.job_done (exec.Afex.Executor.run_scenario s));
           })
         scenarios)
  in
  Array.iteri
    (fun i r ->
      checkb "chaos never corrupts an accepted outcome" true
        (outcome_equal (get_ok "run under chaos" r)
           (exec.Afex.Executor.run_scenario scenarios.(i))))
    results;
  let a = AE.stats proxy in
  let s = snd (List.hd (AE.remote_stats proxy)) in
  AE.close proxy;
  RM.Loopback.shutdown lb;
  checkb "at most one request per test, each accounted" true
    (a.AE.remote_runs <= s.RM.requests && s.RM.requests <= 15);
  checkb "some outcomes came over the wire" true (a.AE.local_runs < 15);
  checki "every local run is a counted fallback" a.AE.local_runs
    a.AE.remote_fallbacks;
  s

let test_chaos_on_requests () =
  let s =
    run_under_chaos
      ~chaos_to_server:(Some { mild_chaos with Transport.bitflip = 0.2 })
      ~chaos_to_client:None ~seed:11
  in
  checkb "corruption forced retries" true (s.RM.retries > 0);
  checkb "reconnects happened" true (s.RM.dials > 1)

let test_chaos_on_replies () =
  let s =
    run_under_chaos ~chaos_to_server:None
      ~chaos_to_client:(Some mild_chaos) ~seed:23
  in
  checkb "corrupted replies forced retries" true (s.RM.retries > 0)

let test_chaos_blackout_is_bounded () =
  (* A wire that delivers nothing: the client must fail with a typed
     error per dial and write the manager off after its budget — never
     hang, never fake an outcome. *)
  let exec = executor () in
  let lb =
    RM.Loopback.create
      ~chaos_to_server:{ Transport.no_chaos with Transport.drop = 1.0 }
      ~recv_timeout_ms:30 ~executor:exec ()
  in
  let conn =
    RM.Pipelined.create
      (RM.Loopback.spec ~max_attempts:3 ~backoff_ms:0.2 lb)
      ~total_blocks:exec.Afex.Executor.total_blocks ~credit:1
  in
  let scenario = List.hd (sample_scenarios 1) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 3 do
    match RM.Pipelined.submit conn ~tag:0 scenario with
    | Error (RM.Transport _ | RM.Protocol _) -> ()
    | Error e -> Alcotest.failf "expected a dial failure, got %s" (RM.string_of_error e)
    | Ok () -> Alcotest.fail "a dead wire cannot complete a handshake"
  done;
  checkb "written off after the budget" true (RM.Pipelined.abandoned conn);
  (match RM.Pipelined.submit conn ~tag:0 scenario with
  | Error (RM.Exhausted { attempts; _ }) -> checki "budget respected" 3 attempts
  | Error _ -> Alcotest.fail "expected Exhausted after the retry budget"
  | Ok () -> Alcotest.fail "an abandoned manager cannot accept a request");
  checki "no dial after the write-off" 3 (RM.Pipelined.stats conn).RM.dials;
  checkb "bounded by the receive timeouts" true (Unix.gettimeofday () -. t0 < 5.0);
  RM.Pipelined.close conn;
  RM.Loopback.shutdown lb

(* --- the pool with remote workers --- *)

let pool_history ?remotes ?request_timeout_ms ~jobs ~seed () =
  let exec = executor () in
  let result, stats =
    Pool.run ?remotes ?request_timeout_ms ~jobs ~batch_size:16 ~iterations:150
      (Config.fitness_guided ~seed ())
      (Apache.space ()) (Pool.Pure exec)
  in
  (history result, stats)

let test_pool_remote_only_matches_local () =
  let exec = executor () in
  let lb = RM.Loopback.create ~executor:exec () in
  let remote, stats =
    pool_history ~remotes:[ RM.Loopback.spec lb ] ~jobs:0 ~seed:41 ()
  in
  RM.Loopback.shutdown lb;
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  checkb "remote-only history equals in-process history" true (remote = local);
  checkb "everything went over the wire" true (stats.Pool.remote_runs > 0);
  checki "no fallbacks on a clean wire" 0 stats.Pool.remote_fallbacks

let test_pool_mixed_matches_local () =
  let exec = executor () in
  let lb1 = RM.Loopback.create ~name:"lb1" ~executor:exec () in
  let lb2 = RM.Loopback.create ~name:"lb2" ~executor:exec () in
  let mixed, stats =
    pool_history
      ~remotes:[ RM.Loopback.spec lb1; RM.Loopback.spec lb2 ]
      ~jobs:2 ~seed:41 ()
  in
  RM.Loopback.shutdown lb1;
  RM.Loopback.shutdown lb2;
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  checkb "mixed local+remote history equals in-process history" true
    (mixed = local);
  checkb "remotes participated" true (stats.Pool.remote_runs > 0)

let test_pool_chaotic_remote_matches_local () =
  let exec = executor () in
  let lb =
    RM.Loopback.create ~chaos_to_server:mild_chaos ~chaos_to_client:mild_chaos
      ~chaos_seed:17 ~recv_timeout_ms:40 ~executor:exec ()
  in
  let chaotic, _ =
    pool_history
      ~remotes:[ RM.Loopback.spec ~max_attempts:8 ~backoff_ms:0.2 lb ]
      ~request_timeout_ms:200 ~jobs:1 ~seed:41 ()
  in
  RM.Loopback.shutdown lb;
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  checkb "a byzantine wire cannot change the explored history" true
    (chaotic = local)

let test_pool_dead_remote_falls_back () =
  (* Remote-only, so every test passes through the proxy domain: beside a
     local worker the proxy may pop no test at all when the campaign
     ends before it is scheduled. The mixed case is pinned, with a slow
     executor, by "dead manager under --jobs 2 never stalls". *)
  let dead =
    RM.spec ~max_attempts:2 ~backoff_ms:0.1 ~name:"unreachable" (fun () ->
        Error (Transport.Io "connection refused"))
  in
  let with_dead, stats = pool_history ~remotes:[ dead ] ~jobs:0 ~seed:41 () in
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  checkb "every scenario was recovered locally" true (with_dead = local);
  checki "nothing ran over the wire" 0 stats.Pool.remote_runs;
  checkb "the fallback path was exercised" true (stats.Pool.remote_fallbacks > 0)

let test_pool_rejects_bad_worker_mix () =
  let exec () = Pool.Pure (executor ()) in
  checkb "negative jobs rejected" true
    (try ignore (Pool.create ~jobs:(-1) (exec ())); false
     with Invalid_argument _ -> true);
  checkb "zero workers rejected" true
    (try ignore (Pool.create ~jobs:0 (exec ())); false
     with Invalid_argument _ -> true);
  let lb = RM.Loopback.create ~executor:(executor ()) () in
  let pool = Pool.create ~remotes:[ RM.Loopback.spec lb ] ~jobs:0 (exec ()) in
  checki "jobs 0 with a remote is a valid pool" 0 (Pool.jobs pool);
  Pool.shutdown pool;
  RM.Loopback.shutdown lb

(* --- wire protocol v2: varints, stateful codecs, handshake refusal --- *)

module V2 = Message.V2

let test_varint_properties () =
  let roundtrip_uv n =
    let b = Buffer.create 10 in
    V2.varint_encode b n;
    match V2.varint_decode (Buffer.contents b) ~pos:0 with
    | Ok (v, next) -> v = n && next = Buffer.length b
    | Error _ -> false
  in
  let roundtrip_sv n =
    let b = Buffer.create 10 in
    V2.svarint_encode b n;
    match V2.svarint_decode (Buffer.contents b) ~pos:0 with
    | Ok (v, next) -> v = n && next = Buffer.length b
    | Error _ -> false
  in
  (* Every byte-length boundary by hand, then random magnitudes. *)
  List.iter
    (fun n -> checkb (Printf.sprintf "uv %d round-trips" n) true (roundtrip_uv n))
    [ 0; 1; 127; 128; 16_383; 16_384; 0x7FFF_FFFF; max_int ];
  List.iter
    (fun n -> checkb (Printf.sprintf "sv %d round-trips" n) true (roundtrip_sv n))
    [ 0; 1; -1; 63; -64; 64; 12_345; -12_345; max_int; min_int ];
  let any_int =
    Prop.make
      ~shrink:(fun n -> if n = 0 then [] else [ 0; n / 2 ])
      ~show:string_of_int
      (fun rng ->
        let v = Rng.int rng (1 lsl Rng.int rng 62) in
        if Rng.bernoulli rng 0.5 then -v - 1 else v)
  in
  Prop.check ~count:300 ~seed:7 "unsigned varint round-trip" any_int (fun n ->
      roundtrip_uv (abs n));
  Prop.check ~count:300 ~seed:8 "signed varint round-trip" any_int roundtrip_sv;
  (* Totality: truncation, overflow, and the encoder's domain. *)
  checkb "truncated varint is an error" true
    (is_error (V2.varint_decode "\x80" ~pos:0));
  checkb "pos past the end is an error" true
    (is_error (V2.varint_decode "" ~pos:0));
  checkb "overflowing varint is an error" true
    (is_error (V2.varint_decode (String.make 10 '\xff') ~pos:0));
  checkb "negative unsigned encode is rejected" true
    (try
       V2.varint_encode (Buffer.create 4) (-1);
       false
     with Invalid_argument _ -> true)

let test_v2_request_codec () =
  (* Coalescing: many requests plus a shutdown in one frame payload,
     decoded in order with scenarios intact. *)
  let scenarios = sample_scenarios 8 in
  let enc = V2.client_enc () in
  let b = Buffer.create 512 in
  List.iteri (fun i s -> V2.encode_request enc b ~seq:i s) scenarios;
  V2.encode_shutdown b;
  (match V2.decode_requests (V2.server_dec ()) (Buffer.contents b) with
  | Error m -> Alcotest.failf "decode_requests: %s" m
  | Ok msgs ->
      checki "8 requests + shutdown" 9 (List.length msgs);
      List.iteri
        (fun i msg ->
          match msg with
          | Message.Run_scenario r when i < 8 ->
              checki "seq" i r.seq;
              checks "scenario"
                (Scenario.to_string (List.nth scenarios i))
                (Scenario.to_string r.scenario)
          | Message.Shutdown when i = 8 -> ()
          | _ -> Alcotest.failf "record %d decoded to the wrong message" i)
        msgs);
  (* Delta-encoding: the second send of a scenario rides the delta path
     and is strictly smaller than the first full send. *)
  let s = List.hd scenarios in
  let enc2 = V2.client_enc () in
  let b_full = Buffer.create 64 in
  V2.encode_request enc2 b_full ~seq:0 s;
  let b_delta = Buffer.create 64 in
  V2.encode_request enc2 b_delta ~seq:1 s;
  checkb "delta record is smaller than the full record" true
    (Buffer.length b_delta < Buffer.length b_full);
  let dec = V2.server_dec () in
  (match V2.decode_requests dec (Buffer.contents b_full) with
  | Ok [ Message.Run_scenario r ] ->
      checks "full scenario" (Scenario.to_string s) (Scenario.to_string r.scenario)
  | _ -> Alcotest.fail "full request must decode");
  (match V2.decode_requests dec (Buffer.contents b_delta) with
  | Ok [ Message.Run_scenario r ] ->
      checks "delta reconstructs the scenario" (Scenario.to_string s)
        (Scenario.to_string r.scenario)
  | _ -> Alcotest.fail "delta request must decode");
  (* A duplicated frame (chaos) replays a stale generation: skipped
     silently, never re-run and never fatal. *)
  (match V2.decode_requests dec (Buffer.contents b_full) with
  | Ok [] -> ()
  | _ -> Alcotest.fail "stale generation must be skipped, not re-run");
  (* A dropped frame leaves a generation gap: connection-fatal. *)
  checkb "generation gap is an error" true
    (is_error (V2.decode_requests (V2.server_dec ()) (Buffer.contents b_delta)));
  (* A corrupted scenario checksum (the record's last varint) is caught. *)
  let corrupt = Bytes.of_string (Buffer.contents b_full) in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 0x01));
  checkb "checksum mismatch is an error" true
    (is_error (V2.decode_requests (V2.server_dec ()) (Bytes.to_string corrupt)));
  checkb "negative seq is rejected at encode time" true
    (try
       V2.encode_request (V2.client_enc ()) (Buffer.create 16) ~seq:(-1) s;
       false
     with Invalid_argument _ -> true)

let test_v2_reply_roundtrip_property () =
  Prop.check ~count:150 ~seed:2027 "v2 reply round-trip" report_arb (fun r ->
      let senc = V2.server_enc () in
      let cdec = V2.client_dec () in
      let b = Buffer.create 256 in
      V2.encode_reply senc b (Message.Scenario_result r);
      match V2.decode_replies cdec (Buffer.contents b) with
      | Ok [ Message.Scenario_result r' ] -> r' = r
      | _ -> false);
  List.iter
    (fun (seq, message) ->
      let b = Buffer.create 64 in
      V2.encode_reply (V2.server_enc ()) b
        (Message.Manager_error { seq; message });
      match V2.decode_replies (V2.client_dec ()) (Buffer.contents b) with
      | Ok [ Message.Manager_error { seq = seq'; message = message' } ] ->
          checki "error seq" seq seq';
          checks "error message" message message'
      | _ -> Alcotest.failf "manager error %S did not round-trip" message)
    [ (1, "plain failure"); (-1, "undecodable"); (7, ""); (3, "multi\nline") ]

let test_v2_dict_interning () =
  (* One connection's worth of codec state: the first report announces
     its stack frames in a DICT record; repeats ship bare int ids. *)
  let r =
    {
      (random_report (Rng.create 9)) with
      Message.injection_stack = Some [ "alpha"; "beta" ];
      crash_stack = Some [ "beta"; "gamma" ];
    }
  in
  let senc = V2.server_enc () in
  let cdec = V2.client_dec () in
  let encode_once () =
    let b = Buffer.create 128 in
    V2.encode_reply senc b (Message.Scenario_result r);
    Buffer.contents b
  in
  let first = encode_once () in
  let second = encode_once () in
  checkb "steady-state reply is smaller (no DICT re-announcement)" true
    (String.length second < String.length first);
  List.iter
    (fun payload ->
      match V2.decode_replies cdec payload with
      | Ok [ Message.Scenario_result r' ] ->
          checkb "report survives interning" true (r' = r)
      | _ -> Alcotest.fail "interned reply must decode")
    [ first; second ];
  (* 3 unique stack frames + the fault descriptor. *)
  checki "server interned 4 unique strings" 4 (V2.server_dict_size senc);
  checki "client mirrors the dictionary" 4 (V2.client_dict_size cdec)

let test_v2_desync_is_error () =
  let report stack =
    {
      (random_report (Rng.create 9)) with
      Message.injection_stack = Some stack;
      crash_stack = None;
    }
  in
  let encode senc stack =
    let b = Buffer.create 128 in
    V2.encode_reply senc b (Message.Scenario_result (report stack));
    Buffer.contents b
  in
  (* Dropped DICT frame: the next announcement's base id leaves a gap. *)
  let senc = V2.server_enc () in
  let b1 = encode senc [ "a" ] in
  let b2 = encode senc [ "a"; "new-frame" ] in
  checkb "dictionary gap is an error" true
    (is_error (V2.decode_replies (V2.client_dec ()) b2));
  (* Steady-state reply (ids only, no DICT) hitting a fresh decoder:
     unknown id, not a silently wrong stack. *)
  let b3 = encode senc [ "a" ] in
  checkb "unknown stack-frame id is an error" true
    (is_error (V2.decode_replies (V2.client_dec ()) b3));
  (* Conflicting redefinition: a DICT record from a different connection
     claiming an id the decoder already holds. *)
  let cdec = V2.client_dec () in
  (match V2.decode_replies cdec b1 with
  | Ok [ _ ] -> ()
  | _ -> Alcotest.fail "first reply must decode");
  let b_conflict = encode (V2.server_enc ()) [ "zzz" ] in
  checkb "conflicting redefinition is an error" true
    (is_error (V2.decode_replies cdec b_conflict));
  (* A duplicated reply frame redefines its entries identically: a
     no-op for the dictionary, and the stale result is the caller's
     (sequence-matching) problem — never a decode error. *)
  let cdec2 = V2.client_dec () in
  (match (V2.decode_replies cdec2 b1, V2.decode_replies cdec2 b1) with
  | Ok [ _ ], Ok [ _ ] -> ()
  | _ -> Alcotest.fail "a duplicated reply frame must decode cleanly");
  (* The fault descriptor and one stack frame, interned exactly once. *)
  checki "duplicate DICT did not grow the dictionary" 2
    (V2.client_dict_size cdec2)

let test_decoder_chunk_granularity () =
  (* The frame decoder fed text (handshake, journal record) and binary
     (v2 request and reply) frames at every chunk granularity 1-7 bytes —
     chunks landing mid-header, mid-payload and across frame boundaries
     — must produce identical results. *)
  let leading_payloads =
    let b = Buffer.create 128 in
    V2.encode_request (V2.client_enc ()) b ~seq:1 (List.hd (sample_scenarios 1));
    [
      Message.encode_hello ~version:Message.protocol_version;
      Buffer.contents b;
      Message.encode_from_manager
        (Message.Scenario_result (random_report (Rng.create 2)));
    ]
  in
  let senc = V2.server_enc () in
  let v2_payload i =
    let b = Buffer.create 128 in
    V2.encode_reply senc b (Message.Scenario_result (random_report (Rng.create i)));
    Buffer.contents b
  in
  let payloads = leading_payloads @ List.map v2_payload [ 3; 4; 5 ] in
  let stream = String.concat "" (List.map Transport.Frame.encode payloads) in
  let reference = get_ok "whole-stream decode" (decode_all stream) in
  checkb "whole-stream decode returns the inputs" true (reference = payloads);
  let decode_v2_tail ps =
    (* The v2 payloads decoded with fresh per-"connection" codec state. *)
    let cdec = V2.client_dec () in
    List.concat_map
      (fun p -> get_ok "v2 payload decode" (V2.decode_replies cdec p))
      (List.filteri (fun i _ -> i >= List.length leading_payloads) ps)
  in
  let reference_replies = decode_v2_tail reference in
  checki "three v2 replies in the stream" 3 (List.length reference_replies);
  for k = 1 to 7 do
    let d = Transport.Frame.create () in
    let acc = ref [] in
    let n = String.length stream in
    let pos = ref 0 in
    while !pos < n do
      let len = min k (n - !pos) in
      Transport.Frame.feed d (String.sub stream !pos len);
      pos := !pos + len;
      let rec drain_frames () =
        match Transport.Frame.next d with
        | Ok (Some p) ->
            acc := p :: !acc;
            drain_frames ()
        | Ok None -> ()
        | Error e ->
            Alcotest.failf "chunk %d: %s" k (Transport.string_of_error e)
      in
      drain_frames ()
    done;
    let got = List.rev !acc in
    checkb (Printf.sprintf "chunk granularity %d matches whole-stream" k) true
      (got = reference);
    checkb
      (Printf.sprintf "v2 replies identical at granularity %d" k)
      true
      (decode_v2_tail got = reference_replies)
  done

(* A manager that refuses every handshake: each dial gets a REJECT as
   its greeting. [offered] collects the version of every HELLO sent. *)
let rejecting_manager () =
  let offered = ref [] in
  let dial () =
    let client, server = Transport.pair ~recv_timeout_ms:2000 () in
    ignore (server.Transport.send (Message.encode_reject ~reason:"refused"));
    Ok
      {
        client with
        Transport.send =
          (fun payload ->
            offered := get_ok "hello" (Message.decode_hello payload) :: !offered;
            client.Transport.send payload);
        close =
          (fun () ->
            client.Transport.close ();
            server.Transport.close ());
      }
  in
  (offered, dial)

let test_rejected_client_never_redials () =
  (* Each refusal is a typed Protocol error and a counted connection
     failure, one HELLO per dial, until the manager is written off. *)
  let exec = executor () in
  let total_blocks = exec.Afex.Executor.total_blocks in
  let offered, dial = rejecting_manager () in
  let spec = RM.spec ~max_attempts:3 ~backoff_ms:0.1 ~name:"refuser" dial in
  let conn = RM.Pipelined.create spec ~total_blocks ~credit:8 in
  let scenario = List.hd (sample_scenarios 1) in
  for _ = 1 to 3 do
    match RM.Pipelined.submit conn ~tag:0 scenario with
    | Error (RM.Protocol _) -> ()
    | Error e -> Alcotest.failf "expected Protocol, got %s" (RM.string_of_error e)
    | Ok () -> Alcotest.fail "a refused dial cannot accept a request"
  done;
  checkb "written off after max_attempts refusals" true (RM.Pipelined.abandoned conn);
  (match RM.Pipelined.submit conn ~tag:0 scenario with
  | Error (RM.Exhausted { attempts; _ }) -> checki "budget respected" 3 attempts
  | Error e -> Alcotest.failf "expected Exhausted, got %s" (RM.string_of_error e)
  | Ok () -> Alcotest.fail "a refusing manager cannot produce an outcome");
  checki "counted as dials" 3 (RM.Pipelined.stats conn).RM.dials;
  RM.Pipelined.close conn;
  checki "one HELLO per dial, no redial" 3 (List.length !offered);
  checkb "every HELLO offered the one protocol version" true
    (List.for_all (fun v -> v = 2) !offered)

let test_pool_refused_manager_falls_back () =
  (* Pins the fallback rule ([Async_executor.stats]): a test counts when
     a manager was still live at dispatch and the test ran locally. With
     no backoff, each refused dial costs one test and the write-off
     comes after [max_attempts] of them; the rest run uncounted. With a
     long backoff, one refusal gates the manager for the whole campaign
     and every test counts. Either way the manager sees at most
     [max_attempts] HELLOs in all, never one per test. *)
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  List.iter
    (fun (backoff_ms, hellos, counted) ->
      let offered, dial = rejecting_manager () in
      let refuser = RM.spec ~max_attempts:2 ~backoff_ms ~name:"refuser" dial in
      let refused, stats = pool_history ~remotes:[ refuser ] ~jobs:0 ~seed:41 () in
      let leg = Printf.sprintf "backoff %g ms: " backoff_ms in
      checkb (leg ^ "history equals local") true (refused = local);
      checki (leg ^ "nothing ran over the wire") 0 stats.Pool.remote_runs;
      checkb (leg ^ "tests were executed") true (stats.Pool.executed > 0);
      checki (leg ^ "HELLOs in all") hellos (List.length !offered);
      checki (leg ^ "counted fallbacks") (counted stats) stats.Pool.remote_fallbacks;
      checkb (leg ^ "every HELLO offered the one protocol version") true
        (List.for_all (fun v -> v = 2) !offered))
    [
      (0.0, 2, fun _ -> 2);
      (10_000.0, 1, fun (s : Pool.stats) -> s.Pool.executed);
    ]

(* An executor that spends [ms] of wall time per test, so every domain of
   a pool gets work before the campaign ends. *)
let slow_executor ms =
  let exec = executor () in
  Afex.Executor.of_scenario_fn ~total_blocks:exec.Afex.Executor.total_blocks
    ~description:"slow apache" (fun s ->
      Unix.sleepf (ms /. 1000.0);
      exec.Afex.Executor.run_scenario s)

let test_pool_dead_manager_never_stalls () =
  (* [--jobs 2] beside an undialable manager with a 10 s backoff: the
     proxy domain dials once, then runs what it pops locally while the
     backoff gate is closed — no per-test redial, no sleep. *)
  let dials = Atomic.make 0 in
  let dead =
    RM.spec ~max_attempts:3 ~backoff_ms:10_000.0 ~name:"dead" (fun () ->
        Atomic.incr dials;
        Error (Transport.Io "connection refused"))
  in
  let run ?(remotes = []) ~jobs () =
    let pool = Pool.create ~remotes ~jobs (Pool.Pure (slow_executor 2.0)) in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        let result, stats =
          Pool.session ~batch_size:8 ~iterations:60 pool
            (Config.fitness_guided ~seed:41 ())
            (Apache.space ())
        in
        (history result, stats, Pool.remote_stats pool))
  in
  let local, _, _ = run ~jobs:1 () in
  let t0 = Unix.gettimeofday () in
  let with_dead, stats, remote = run ~remotes:[ dead ] ~jobs:2 () in
  let wall = Unix.gettimeofday () -. t0 in
  checkb (Printf.sprintf "finished in %.2f s, under 5 s" wall) true (wall < 5.0);
  checkb "history equals local" true (with_dead = local);
  checkb "the proxy took tests" true (stats.Pool.remote_fallbacks > 0);
  checkb "dials within max_attempts" true (Atomic.get dials <= 3);
  checki "every dial counted" (Atomic.get dials)
    (List.assoc "dead" remote).RM.dials

let test_pool_proxy_request_timeout () =
  (* A manager that takes 80 ms per test against a 25 ms bound: the proxy
     domain's request timer fires, the manager forfeits the test, and it
     re-runs locally. *)
  let lb = RM.Loopback.create ~executor:(slow_executor 80.0) () in
  let pool =
    Pool.create
      ~remotes:[ RM.Loopback.spec ~max_attempts:2 ~backoff_ms:1.0 lb ]
      ~request_timeout_ms:25 ~jobs:0 (Pool.Pure (executor ()))
  in
  let result, stats =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.session ~batch_size:4 ~iterations:12 pool
          (Config.fitness_guided ~seed:41 ())
          (Apache.space ()))
  in
  let remote = List.assoc "loopback" (Pool.remote_stats pool) in
  RM.Loopback.shutdown lb;
  let local, _ =
    Pool.run ~batch_size:4 ~jobs:1 ~iterations:12
      (Config.fitness_guided ~seed:41 ())
      (Apache.space ()) (Pool.Pure (executor ()))
  in
  checkb "history equals local" true (history result = history local);
  checkb "the straggler was timed out" true (remote.RM.retries > 0);
  checkb "its tests fell back locally" true (stats.Pool.remote_fallbacks > 0)

let test_pipelined_coalescing () =
  (* Six submits, under both the 8 KiB flush threshold and the credit of
     eight, sit in the coalescing buffer, then travel as ONE frame:
     handshake + batch = exactly two frames out, against six requests. *)
  let exec = executor () in
  let total_blocks = exec.Afex.Executor.total_blocks in
  let lb = RM.Loopback.create ~executor:exec () in
  let conn = RM.Pipelined.create (RM.Loopback.spec lb) ~total_blocks ~credit:8 in
  let scenarios = Array.of_list (sample_scenarios 6) in
  Array.iteri
    (fun i s ->
      match RM.Pipelined.submit conn ~tag:i s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "submit: %s" (RM.string_of_error e))
    scenarios;
  checkb "requests coalesce in the buffer" true (RM.Pipelined.buffered conn > 0);
  checki "all six pending" 6 (RM.Pipelined.pending conn);
  (match RM.Pipelined.flush conn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flush: %s" (RM.string_of_error e));
  checki "flush drained the buffer" 0 (RM.Pipelined.buffered conn);
  let deadline = Unix.gettimeofday () +. 10.0 in
  let results = ref [] in
  while List.length !results < 6 && Unix.gettimeofday () < deadline do
    match RM.Pipelined.drain conn with
    | [] -> Unix.sleepf 0.002
    | rs -> results := rs @ !results
  done;
  checki "all six answered" 6 (List.length !results);
  checkb "no orphans on a clean wire" true (RM.Pipelined.take_orphans conn = []);
  List.iter
    (fun (tag, r) ->
      let outcome = get_ok "pipelined outcome" r in
      checkb "pipelined outcome equals local" true
        (outcome_equal outcome
           (exec.Afex.Executor.run_scenario scenarios.(tag))))
    !results;
  let s = RM.Pipelined.stats conn in
  checki "six requests" 6 s.RM.requests;
  checki "exactly two frames out: HELLO + one coalesced batch" 2 s.RM.frames_out;
  checkb "fewer frames than requests" true (s.RM.frames_out < s.RM.requests);
  RM.Pipelined.close conn;
  RM.Loopback.shutdown lb

let test_pool_v2_inflight_matrix () =
  (* Explored histories over the wire at pipelining depths 1 (a proxy
     domain's one-slot client), 8 and 32 (the event-loop client with
     coalesced frames), on a clean and on a chaotic wire, are all
     byte-identical to local. The chaotic proxy domain rides
     [test_pool_chaotic_remote_matches_local] with a local worker
     beside it. *)
  let exec = executor () in
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  List.iter
    (fun (inflight, chaos) ->
      let lb =
        RM.Loopback.create ?chaos_to_server:chaos ?chaos_to_client:chaos
          ~chaos_seed:17
          ?recv_timeout_ms:(Option.map (fun _ -> 40) chaos)
          ~executor:exec ()
      in
      let pool =
        Pool.create
          ~remotes:[ RM.Loopback.spec ~max_attempts:8 ~backoff_ms:0.2 lb ]
          ~inflight
          ?request_timeout_ms:(Option.map (fun _ -> 200) chaos)
          ~jobs:0 (Pool.Pure exec)
      in
      let result, stats =
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            Pool.session ~batch_size:16 ~iterations:150 pool
              (Config.fitness_guided ~seed:41 ())
              (Apache.space ()))
      in
      RM.Loopback.shutdown lb;
      let leg =
        Printf.sprintf "inflight %d%s" inflight
          (if chaos = None then "" else " under chaos")
      in
      checkb (leg ^ ": history equals local") true (history result = local);
      checkb (leg ^ ": runs went over the wire") true (stats.Pool.remote_runs > 0);
      if chaos = None then
        checki (leg ^ ": no fallbacks on a clean wire") 0 stats.Pool.remote_fallbacks)
    [
      (1, None);
      (8, None);
      (32, None);
      (8, Some mild_chaos);
      (32, Some mild_chaos);
    ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("frame round-trip", test_frame_roundtrip);
      ("frame survives byte-wise delivery", test_frame_incremental);
      ("multiple frames per feed", test_frame_multiple_per_feed);
      ("bad magic is corrupt", test_frame_bad_magic);
      ("oversized frames are typed errors", test_frame_oversized);
      ("checksum catches bit flips", test_frame_checksum);
      ("socketpair round-trip", test_pair_roundtrip);
      ("receive timeout", test_recv_timeout);
      ("closed and truncated peers", test_closed_and_truncated_peer);
      ("chaos mangler is seeded", test_chaos_mangler_deterministic);
      ("handshake codec", test_handshake_codec);
      ("version mismatch is rejected", test_serve_rejects_version_mismatch);
      ("wire session survives garbage", test_wire_session_survives_garbage);
      ("from_manager round-trip (property)", test_from_manager_roundtrip_property);
      ("manager errors round-trip", test_manager_error_roundtrip);
      ("from_manager rejects malformed lines", test_from_manager_malformed);
      ("to_manager is total", test_to_manager_total);
      ("coverage range codec", test_coverage_ranges);
      ("outcome <-> report round-trip", test_outcome_report_roundtrip);
      ("loopback outcome equality", test_loopback_outcome_equality);
      ("manager errors are not retried", test_loopback_manager_error_not_retried);
      ("chaos on requests", test_chaos_on_requests);
      ("chaos on replies", test_chaos_on_replies);
      ("total blackout is bounded", test_chaos_blackout_is_bounded);
      ("pool: remote-only matches local", test_pool_remote_only_matches_local);
      ("pool: mixed matches local", test_pool_mixed_matches_local);
      ("pool: chaotic remote matches local", test_pool_chaotic_remote_matches_local);
      ("pool: dead remote falls back", test_pool_dead_remote_falls_back);
      ("pool: rejects bad worker mix", test_pool_rejects_bad_worker_mix);
      ("v2: varint properties", test_varint_properties);
      ("v2: request codec (coalesce, delta, desync)", test_v2_request_codec);
      ("v2: reply round-trip (property)", test_v2_reply_roundtrip_property);
      ("v2: dictionary interning reaches steady state", test_v2_dict_interning);
      ("v2: desync is an error, never a wrong report", test_v2_desync_is_error);
      ("frame decoder at chunk granularities 1-7", test_decoder_chunk_granularity);
      ("pipelined requests coalesce into frames", test_pipelined_coalescing);
      ("REJECTed client never redials", test_rejected_client_never_redials);
      ("pool: refused manager falls back locally", test_pool_refused_manager_falls_back);
      ("pool: dead manager under --jobs 2 never stalls", test_pool_dead_manager_never_stalls);
      ("pool: proxy domain honours request_timeout_ms", test_pool_proxy_request_timeout);
      ("pool: v2 inflight 1/8/32 = local", test_pool_v2_inflight_matrix);
    ]
