module Explorer = Afex.Explorer

let src = Logs.Src.create "afex.checkpoint" ~doc:"Campaign snapshots and journal"

module Log = (val Logs.src_log src : Logs.LOG)

exception Bad of string

exception Cannot_resume of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* {2 Field helpers}

   Every token is either produced by [Message.escape] (no spaces) or is a
   number, so a whole-line [split_on_char ' '] never collides with
   payload bytes. *)

let nat what s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> v
  | _ -> bad "%s: bad integer %S" what s

let fl what s =
  match float_of_string_opt s with Some v -> v | None -> bad "%s: bad float %S" what s

let hex64 what s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some v -> v
  | None -> bad "%s: bad hex word %S" what s

let unescape what s =
  match Message.unescape s with Ok v -> v | Error m -> bad "%s: %s" what m

let split2 s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

module Snapshot = struct
  type retired = |

  type t = {
    meta : (string * string) list;
    batches : int;
    master_state : int64;
    scheduler : retired option;
    explorer : Explorer.Snapshot.t;
  }

  (* Version 4: the snapshot is a constant-size watermark over an
     untruncated journal. Version 3 held the whole explorer and
     truncated the journal behind it, so its journal no longer starts at
     iteration 1 and cannot be replayed. *)
  let header = "afex-checkpoint 4"

  let encode t =
    let buf = Buffer.create 256 in
    let line fmt =
      Printf.ksprintf
        (fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        fmt
    in
    line "%s" header;
    List.iter
      (fun (k, v) -> line "m %s %s" (Message.escape k) (Message.escape v))
      t.meta;
    line "g %d %Lx" t.batches t.master_state;
    let x = t.explorer in
    line "x %Lx %d %d %d %d %d %d %h %d" x.Explorer.Snapshot.rng_state x.issued
      x.iterations x.failed x.crashed x.hung x.triggered x.simulated_ms
      x.cursor_consumed;
    (let m = x.mutator in
     line "M %d %d %d %d %d" m.Afex.Mutator.proposals m.Afex.Mutator.masked
       m.Afex.Mutator.rejects m.Afex.Mutator.masked_rejects
       m.Afex.Mutator.random_fallbacks);
    let body = Buffer.contents buf in
    body ^ Printf.sprintf "k %08x\n" (Transport.checksum body)

  let parse_body body =
    let meta_rev = ref [] and globals = ref None and x = ref None
    and mutator = ref None in
    let once what r v =
      if Option.is_some !r then bad "duplicate %s line" what else r := Some v
    in
    let parse_line line =
      match String.split_on_char ' ' line with
      | "m" :: [ k; v ] ->
          meta_rev := (unescape "meta key" k, unescape "meta value" v) :: !meta_rev
      | "g" :: [ batches; master ] ->
          once "globals" globals (nat "batches" batches, hex64 "master rng" master)
      | "x" :: [ rng; issued; iter; failed; crashed; hung; trig; sim; cursor ] ->
          once "explorer" x (fun mutator ->
            {
              Explorer.Snapshot.rng_state = hex64 "explorer rng" rng;
              issued = nat "issued" issued;
              iterations = nat "iterations" iter;
              failed = nat "failed" failed;
              crashed = nat "crashed" crashed;
              hung = nat "hung" hung;
              triggered = nat "triggered" trig;
              simulated_ms = fl "simulated ms" sim;
              cursor_consumed = nat "cursor" cursor;
              mutator;
            })
      | "M" :: [ pr; ma; re; mr; rf ] ->
          once "mutator" mutator
            {
              Afex.Mutator.proposals = nat "mutator proposals" pr;
              masked = nat "mutator masked" ma;
              rejects = nat "mutator rejects" re;
              masked_rejects = nat "mutator masked rejects" mr;
              random_fallbacks = nat "mutator fallbacks" rf;
            }
      | "S" :: _ ->
          bad
            "scheduler line: written by the removed adaptive window \
             controller, whose state cannot be resumed"
      | tag :: _ -> bad "unknown line tag %S" tag
      | [] -> bad "empty line"
    in
    match String.split_on_char '\n' body with
    | first :: rest when first = header ->
        List.iter (fun line -> if line <> "" then parse_line line) rest;
        let req what = function Some v -> v | None -> bad "missing %s line" what in
        let batches, master_state = req "globals" !globals in
        {
          meta = List.rev !meta_rev;
          batches;
          master_state;
          scheduler = None;
          explorer = (req "explorer" !x) (req "mutator" !mutator);
        }
    | "afex-checkpoint 3" :: _ ->
        bad
          "format 3 checkpoint: it holds a full explorer image over a \
           truncated journal, which cannot be resumed by replay; restart \
           the campaign"
    | first :: _ -> bad "bad header %S (expected %S)" first header
    | [] -> bad "empty snapshot"

  let decode contents =
    let err m = Error ("checkpoint snapshot: " ^ m) in
    let len = String.length contents in
    if len = 0 then err "empty file"
    else if contents.[len - 1] <> '\n' then err "truncated (no final newline)"
    else
      match String.rindex_from_opt contents (len - 2) '\n' with
      | None -> err "missing checksum trailer"
      | Some p -> (
          let trailer = String.sub contents (p + 1) (len - p - 2) in
          let body = String.sub contents 0 (p + 1) in
          match String.split_on_char ' ' trailer with
          | [ "k"; crc ] ->
              if crc <> Printf.sprintf "%08x" (Transport.checksum body) then
                err "checksum mismatch — the snapshot is corrupt"
              else (try Ok (parse_body body) with Bad m -> err m)
          | _ -> err "missing checksum trailer")

  (* The fields a replay must reproduce, in a fixed order, as text. *)
  let fingerprint t =
    let x = t.explorer in
    let m = x.Explorer.Snapshot.mutator in
    [
      ("batches", string_of_int t.batches);
      ("master rng", Printf.sprintf "%Lx" t.master_state);
      ("explorer rng", Printf.sprintf "%Lx" x.rng_state);
      ("issued", string_of_int x.issued);
      ("iterations", string_of_int x.iterations);
      ("failed", string_of_int x.failed);
      ("crashed", string_of_int x.crashed);
      ("hung", string_of_int x.hung);
      ("triggered", string_of_int x.triggered);
      ("simulated ms", Printf.sprintf "%h" x.simulated_ms);
      ("cursor", string_of_int x.cursor_consumed);
      ("mutator proposals", string_of_int m.Afex.Mutator.proposals);
      ("mutator masked", string_of_int m.Afex.Mutator.masked);
      ("mutator rejects", string_of_int m.Afex.Mutator.rejects);
      ("mutator masked rejects", string_of_int m.Afex.Mutator.masked_rejects);
      ("mutator fallbacks", string_of_int m.Afex.Mutator.random_fallbacks);
    ]
end

(* {2 The write-ahead journal}

   One [<crc> o <key> <msg>] line per released outcome, from iteration 1
   on, keyed by the absolute iteration carried inside the encoded run
   report. Outcomes are journaled at reorder-buffer release, so a
   well-formed journal is exactly [1, 2, 3, ...] — no batch framing is
   needed to replay it. *)

(* The checksummed payload of a journal line. *)
let payload_of_line line =
  let crc, payload = split2 line in
  if crc <> Printf.sprintf "%08x" (Transport.checksum payload) then
    bad "checksum mismatch";
  payload

(* The iteration a payload carries, read without decoding the rest. *)
let seq_of_payload payload =
  match String.split_on_char ' ' payload with
  | "o" :: _ :: "RESULT" :: seq :: _ -> nat "iteration" seq
  | _ -> bad "not a journaled outcome"

let decode_payload payload =
  let tag, rest = split2 payload in
  if tag <> "o" then bad "unknown journal record %S" tag;
  let pt, msg = split2 rest in
  let key = unescape "journal point" pt in
  match Message.decode_from_manager msg with
  | Ok (Message.Scenario_result r) -> (key, r)
  | Ok (Message.Manager_error _) -> bad "journal outcome: manager error"
  | Error m -> bad "journal outcome: %s" m

(* Scan the journal without decoding its outcomes: complete lines must
   check out and carry iterations 1, 2, 3, ...; a torn, unterminated or
   corrupt FINAL line is the crash signature and is dropped, while damage
   anywhere earlier is refused — the journal is append-only, so only its
   tail can legitimately be half-written. Returns the number of valid
   lines, the byte length of the valid prefix and the number of dropped
   lines (0 or 1). *)
let scan_wal ic =
  let len = in_channel_length ic in
  let rec go n =
    let start = pos_in ic in
    match In_channel.input_line ic with
    | None -> (n, start, 0)
    | Some line -> (
        let stop = pos_in ic in
        match
          if stop = start + String.length line then bad "unterminated line"
          else seq_of_payload (payload_of_line line)
        with
        | exception Bad m when stop >= len ->
            Log.warn (fun f -> f "dropping torn journal tail: %s" m);
            (n, start, 1)
        | exception Bad m -> bad "journal line %d: %s" (n + 1) m
        | seq ->
            if seq <> n + 1 then
              bad "journal line %d carries iteration %d" (n + 1) seq;
            go (n + 1))
  in
  go 0

(* {2 The checkpoint handle} *)

type hooks = { on_append : int -> unit; after_rename : unit -> unit }

let no_hooks = { on_append = (fun _ -> ()); after_rename = (fun () -> ()) }

type t = {
  cp_dir : string;
  cp_meta : (string * string) list;
  hooks : hooks;
  wal_fd : Unix.file_descr;
  line : Buffer.t;  (* the journal line being built, reused *)
  mutable out : Bytes.t;  (* [line] with its checksum filled in, reused *)
  mutable appends : int;
  mutable snapshots : int;
  mutable last_snapshot_iterations : int;
  replay : in_channel option;  (* the journal, read as it replays *)
  mutable replay_left : int;  (* journaled outcomes not yet replayed *)
  was_resumed : bool;
  n_replayed_records : int;
  n_torn : int;
  loaded : Snapshot.t option;
}

let snapshot_path dir = Filename.concat dir "snapshot.afex"
let wal_path dir = Filename.concat dir "wal.log"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let make ~dir ~meta ~hooks ~wal_fd ?replay ~journaled ~torn loaded =
  {
    cp_dir = dir; cp_meta = meta; hooks; wal_fd; line = Buffer.create 512;
    out = Bytes.create 512; appends = 0; snapshots = 0;
    last_snapshot_iterations =
      (match loaded with
      | Some s -> s.Snapshot.explorer.Explorer.Snapshot.iterations
      | None -> 0);
    replay; replay_left = journaled; was_resumed = loaded <> None;
    n_replayed_records = journaled; n_torn = torn; loaded;
  }

let unix_error e fn arg =
  Error (Printf.sprintf "checkpoint: %s %s: %s" fn arg (Unix.error_message e))

let start ?(hooks = no_hooks) ~dir meta =
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    if Sys.file_exists (snapshot_path dir) then
      Error
        (Printf.sprintf
           "%s already holds a checkpoint; pass --resume %s to continue it" dir
           dir)
    else
      let wal_fd =
        Unix.openfile (wal_path dir)
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND ]
          0o644
      in
      Ok (make ~dir ~meta ~hooks ~wal_fd ~journaled:0 ~torn:0 None)
  with Unix.Unix_error (e, fn, arg) -> unix_error e fn arg

let verify_meta ~current ~stored =
  let sort = List.sort compare in
  if sort current = sort stored then Ok ()
  else begin
    let show = function Some v -> v | None -> "(absent)" in
    let mismatch =
      List.find_opt
        (fun (k, v) -> List.assoc_opt k stored <> Some v)
        current
    in
    match mismatch with
    | Some (k, v) ->
        Error
          (Printf.sprintf
             "checkpoint was taken with %s=%s but this invocation has %s=%s — \
              flags that shape the search must match to resume"
             k
             (show (List.assoc_opt k stored))
             k v)
    | None ->
        let k, v =
          List.find (fun (k, v) -> List.assoc_opt k current <> Some v) stored
        in
        Error
          (Printf.sprintf
             "checkpoint was taken with %s=%s, which this invocation does not \
              set — flags that shape the search must match to resume"
             k v)
  end

let resume ?(hooks = no_hooks) ~dir meta =
  let ( let* ) = Result.bind in
  if not (Sys.file_exists (snapshot_path dir)) then
    Error (Printf.sprintf "%s holds no checkpoint snapshot to resume" dir)
  else begin
    try
      let* snap = Snapshot.decode (read_file (snapshot_path dir)) in
      let* () = verify_meta ~current:meta ~stored:snap.Snapshot.meta in
      let wal = wal_path dir in
      if not (Sys.file_exists wal) then close_out (open_out_bin wal);
      let ic = open_in_bin wal in
      match scan_wal ic with
      | exception Bad m ->
          close_in ic;
          Error ("checkpoint: " ^ m)
      | journaled, valid_end, torn ->
          let watermark = snap.Snapshot.explorer.Explorer.Snapshot.iterations in
          if journaled < watermark then begin
            close_in ic;
            Error
              (Printf.sprintf
                 "checkpoint: the snapshot was taken after %d outcomes but \
                  the journal holds only %d — it is incomplete"
                 watermark journaled)
          end
          else begin
            seek_in ic 0;
            let wal_fd = Unix.openfile wal [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
            Unix.ftruncate wal_fd valid_end;
            Log.info (fun f ->
                f "resuming %s: %d journaled outcomes to replay, watermark at %d"
                  dir journaled watermark);
            Ok (make ~dir ~meta ~hooks ~wal_fd ~replay:ic ~journaled ~torn (Some snap))
          end
    with
    | Unix.Unix_error (e, fn, arg) -> unix_error e fn arg
    | Sys_error m -> Error ("checkpoint: " ^ m)
  end

let resumed t = t.was_resumed
let dir t = t.cp_dir
let meta t = t.cp_meta
let loaded_snapshot t = t.loaded

let check_replay t replayed =
  match t.loaded with
  | None -> Ok ()
  | Some snap -> (
      let expected = Snapshot.fingerprint snap
      and got = Snapshot.fingerprint replayed in
      match
        List.find_opt (fun ((_, a), (_, b)) -> a <> b) (List.combine expected got)
      with
      | None -> Ok ()
      | Some ((field, want), (_, have)) ->
          Error
            (Printf.sprintf
               "replaying the journal to iteration %d gives %s %s, but the \
                snapshot records %s — the journal does not belong to this \
                snapshot, or the configuration changed"
               snap.Snapshot.explorer.Explorer.Snapshot.iterations field have
               want))

let next_replay t =
  match t.replay with
  | Some ic when t.replay_left > 0 -> (
      t.replay_left <- t.replay_left - 1;
      let n = t.n_replayed_records - t.replay_left in
      try
        Some
          (decode_payload (payload_of_line (Option.get (In_channel.input_line ic))))
      with Bad m | Invalid_argument m ->
        raise (Cannot_resume (Printf.sprintf "journal line %d: %s" n m)))
  | Some _ | None -> None

let replay_pending t = t.replay_left > 0

let due t ~iterations = iterations > t.last_snapshot_iterations

let hex = "0123456789abcdef"

(* Build [<crc> o <key> <msg>\n] in the reused buffer, copy it into the
   reused output bytes, fill in the checksum of the payload, and hand
   the line to the kernel in one [write]. *)
let append_outcome t ~point_key ~seq outcome =
  let b = t.line in
  Buffer.clear b;
  Buffer.add_string b "00000000 o ";
  Message.add_escaped b point_key;
  Buffer.add_char b ' ';
  Message.add_outcome_result b ~seq outcome;
  Buffer.add_char b '\n';
  let len = Buffer.length b in
  if Bytes.length t.out < len then t.out <- Bytes.create (2 * len);
  Buffer.blit b 0 t.out 0 len;
  let crc = Transport.checksum_bytes t.out ~off:9 ~len:(len - 10) in
  for i = 0 to 7 do
    Bytes.set t.out i hex.[(crc lsr (4 * (7 - i))) land 0xf]
  done;
  if Unix.write t.wal_fd t.out 0 len <> len then
    failwith "checkpoint: short journal write";
  t.appends <- t.appends + 1;
  t.hooks.on_append t.appends

let write_snapshot t ~iterations snap =
  let text = Snapshot.encode snap in
  let tmp = Filename.concat t.cp_dir "snapshot.tmp" in
  let oc = open_out_bin tmp in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
  Unix.rename tmp (snapshot_path t.cp_dir);
  t.hooks.after_rename ();
  t.snapshots <- t.snapshots + 1;
  t.last_snapshot_iterations <- iterations;
  Log.debug (fun f -> f "snapshot at %d iterations" iterations)

type stats = {
  was_resumed : bool;
  snapshots_written : int;
  wal_appends : int;
  replayed_records : int;
  torn_lines : int;
}

let stats (t : t) =
  {
    was_resumed = t.was_resumed;
    snapshots_written = t.snapshots;
    wal_appends = t.appends;
    replayed_records = t.n_replayed_records;
    torn_lines = t.n_torn;
  }

let close t =
  Option.iter close_in_noerr t.replay;
  try Unix.close t.wal_fd with Unix.Unix_error _ -> ()
