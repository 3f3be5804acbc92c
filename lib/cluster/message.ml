module Scenario = Afex_faultspace.Scenario
module Value = Afex_faultspace.Value
module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome
module Bitset = Afex_stats.Bitset

let protocol_version = 2
let max_line = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Percent-escaping: stack frames and error messages may contain       *)
(* anything (spaces, commas, newlines, non-ASCII); the text formats    *)
(* tokenize on spaces and join list elements with commas, so both      *)
(* must be escaped along with control and non-ASCII bytes.             *)
(* ------------------------------------------------------------------ *)

let plain ch =
  let c = Char.code ch in
  c > 0x20 && c < 0x7f && ch <> '%' && ch <> ','

let upper_hex = "0123456789ABCDEF"

let add_escaped b s =
  String.iter
    (fun ch ->
      if plain ch then Buffer.add_char b ch
      else begin
        let c = Char.code ch in
        Buffer.add_char b '%';
        Buffer.add_char b upper_hex.[c lsr 4];
        Buffer.add_char b upper_hex.[c land 0xf]
      end)
    s

let escape s =
  if String.for_all plain s then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    add_escaped b s;
    Buffer.contents b
  end

let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let unescape s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then Ok (Buffer.contents b)
    else if s.[i] = '%' then
      if i + 2 >= n then Error (Printf.sprintf "truncated escape in %S" s)
      else
        match hex_digit s.[i + 1], hex_digit s.[i + 2] with
        | Some hi, Some lo ->
            Buffer.add_char b (Char.chr ((hi * 16) + lo));
            go (i + 3)
        | _ -> Error (Printf.sprintf "malformed escape in %S" s)
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

type greeting = Welcome of int | Reject of string

let encode_hello ~version = Printf.sprintf "HELLO afex %d" version

let decode_hello line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "HELLO"; "afex"; v ] -> (
      match int_of_string_opt v with
      | Some v when v >= 0 -> Ok v
      | Some _ | None -> Error (Printf.sprintf "malformed hello version %S" v))
  | _ -> Error (Printf.sprintf "malformed hello %S" line)

let encode_welcome ~version = Printf.sprintf "WELCOME afex %d" version
let encode_reject ~reason = "REJECT " ^ escape reason

let decode_greeting line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "WELCOME"; "afex"; v ] -> (
      match int_of_string_opt v with
      | Some v when v >= 0 -> Ok (Welcome v)
      | Some _ | None -> Error (Printf.sprintf "malformed welcome version %S" v))
  | [ "REJECT"; reason ] -> Result.map (fun r -> Reject r) (unescape reason)
  | [ "REJECT" ] -> Ok (Reject "")
  | _ -> Error (Printf.sprintf "malformed greeting %S" line)

type to_manager =
  | Run_scenario of { seq : int; scenario : Scenario.t }
  | Shutdown

(* ------------------------------------------------------------------ *)
(* Run reports and their text record (the checkpoint journal format)   *)
(* ------------------------------------------------------------------ *)

type run_report = {
  seq : int;
  status : Outcome.status;
  triggered : bool;
  new_blocks : int;
  fault : Fault.t;
  coverage : int list;
  injection_stack : string list option;
  crash_stack : string list option;
  duration_ms : float;
}

type from_manager =
  | Scenario_result of run_report
  | Manager_error of { seq : int; message : string }

let status_token = function
  | Outcome.Passed -> "P"
  | Outcome.Test_failed -> "F"
  | Outcome.Crashed -> "C"
  | Outcome.Hung -> "H"

let status_of_token = function
  | "P" -> Ok Outcome.Passed
  | "F" -> Ok Outcome.Test_failed
  | "C" -> Ok Outcome.Crashed
  | "H" -> Ok Outcome.Hung
  | t -> Error (Printf.sprintf "unknown status token %S" t)

(* Stacks: "-" = None; "@<count>:<comma-joined escaped frames>" = Some.
   The explicit count disambiguates [Some []] from [Some [""]]. *)

let add_stack b = function
  | None -> Buffer.add_char b '-'
  | Some frames ->
      Buffer.add_char b '@';
      Buffer.add_string b (string_of_int (List.length frames));
      Buffer.add_char b ':';
      List.iteri
        (fun i frame ->
          if i > 0 then Buffer.add_char b ',';
          add_escaped b frame)
        frames

let decode_stack s =
  if String.equal s "-" then Ok None
  else if String.length s >= 1 && s.[0] = '@' then begin
    match String.index_opt s ':' with
    | None -> Error (Printf.sprintf "stack %S has no frame count" s)
    | Some colon -> (
        let joined = String.sub s (colon + 1) (String.length s - colon - 1) in
        match int_of_string_opt (String.sub s 1 (colon - 1)) with
        | None -> Error (Printf.sprintf "malformed frame count in %S" s)
        | Some n when n < 0 ->
            Error (Printf.sprintf "negative frame count in %S" s)
        | Some 0 ->
            if String.equal joined "" then Ok (Some [])
            else Error (Printf.sprintf "frames after a zero count in %S" s)
        | Some n ->
            let parts = String.split_on_char ',' joined in
            if List.length parts <> n then
              Error
                (Printf.sprintf "stack %S declares %d frames, carries %d" s n
                   (List.length parts))
            else begin
              let rec unescape_all acc = function
                | [] -> Ok (Some (List.rev acc))
                | p :: rest -> (
                    match unescape p with
                    | Ok f -> unescape_all (f :: acc) rest
                    | Error e -> Error e)
              in
              unescape_all [] parts
            end)
  end
  else Error (Printf.sprintf "malformed stack %S" s)

(* Coverage: "-" = empty; otherwise comma-joined runs "a" / "a-b" over
   the ascending block indices. *)

(* [iter] visits the ascending block indices; [-1] marks no open run. *)
let add_coverage b iter =
  let start = Buffer.length b and lo = ref (-1) and hi = ref (-1) in
  let emit () =
    if Buffer.length b > start then Buffer.add_char b ',';
    Buffer.add_string b (string_of_int !lo);
    if !lo <> !hi then begin
      Buffer.add_char b '-';
      Buffer.add_string b (string_of_int !hi)
    end
  in
  iter (fun i ->
      if !lo >= 0 && i = !hi + 1 then hi := i
      else begin
        if !lo >= 0 then emit ();
        lo := i;
        hi := i
      end);
  if !lo >= 0 then emit () else Buffer.add_char b '-'

let decode_coverage s =
  if String.equal s "-" then Ok []
  else begin
    let piece p =
      match String.index_opt p '-' with
      | None -> (
          match int_of_string_opt p with
          | Some v when v >= 0 -> Ok [ v ]
          | Some _ | None -> Error (Printf.sprintf "malformed block index %S" p))
      | Some dash -> (
          let a = String.sub p 0 dash in
          let b = String.sub p (dash + 1) (String.length p - dash - 1) in
          match int_of_string_opt a, int_of_string_opt b with
          | Some lo, Some hi when lo >= 0 && hi >= lo ->
              Ok (List.init (hi - lo + 1) (fun i -> lo + i))
          | _ -> Error (Printf.sprintf "malformed block range %S" p))
    in
    let rec go acc = function
      | [] -> Ok (List.concat (List.rev acc))
      | p :: rest -> (
          match piece p with Ok l -> go (l :: acc) rest | Error e -> Error e)
    in
    go [] (String.split_on_char ',' s)
  end

let report_of_outcome ~seq (o : Outcome.t) =
  {
    seq;
    status = o.Outcome.status;
    triggered = o.Outcome.triggered;
    new_blocks = 0 (* the explorer recomputes against its own coverage *);
    fault = o.Outcome.fault;
    coverage = Bitset.to_list o.Outcome.coverage;
    injection_stack = o.Outcome.injection_stack;
    crash_stack = o.Outcome.crash_stack;
    duration_ms = o.Outcome.duration_ms;
  }

let outcome_of_report ~total_blocks r =
  let coverage = Bitset.create total_blocks in
  match
    List.iter
      (fun i ->
        if i < 0 || i >= total_blocks then
          invalid_arg (Printf.sprintf "block index %d outside [0,%d)" i total_blocks)
        else Bitset.set coverage i)
      r.coverage
  with
  | () ->
      Ok
        {
          Outcome.fault = r.fault;
          status = r.status;
          triggered = r.triggered;
          coverage;
          injection_stack = r.injection_stack;
          crash_stack = r.crash_stack;
          duration_ms = r.duration_ms;
        }
  | exception Invalid_argument m -> Error m

(* The RESULT record's fields, with the coverage given as an iterator
   so a journaled outcome can be encoded straight from its bitset. *)
let add_result b ~seq ~status ~triggered ~new_blocks ~duration_ms ~fault
    ~coverage ~injection_stack ~crash_stack =
  Buffer.add_string b "RESULT ";
  Buffer.add_string b (string_of_int seq);
  Buffer.add_char b ' ';
  Buffer.add_string b (status_token status);
  Buffer.add_string b (if triggered then " T " else " N ");
  Buffer.add_string b (string_of_int new_blocks);
  (* %h (hexadecimal float) round-trips the duration exactly. *)
  Printf.bprintf b " %h " duration_ms;
  add_escaped b (Scenario.to_string (Fault.to_scenario fault));
  Buffer.add_char b ' ';
  add_coverage b coverage;
  Buffer.add_char b ' ';
  add_stack b injection_stack;
  Buffer.add_char b ' ';
  add_stack b crash_stack

let add_from_manager b = function
  | Manager_error { seq; message } ->
      Buffer.add_string b "ERROR ";
      Buffer.add_string b (string_of_int seq);
      Buffer.add_char b ' ';
      add_escaped b message
  | Scenario_result r ->
      add_result b ~seq:r.seq ~status:r.status ~triggered:r.triggered
        ~new_blocks:r.new_blocks ~duration_ms:r.duration_ms ~fault:r.fault
        ~coverage:(fun f -> List.iter f r.coverage)
        ~injection_stack:r.injection_stack ~crash_stack:r.crash_stack

let encode_from_manager m =
  let b = Buffer.create 128 in
  add_from_manager b m;
  Buffer.contents b

let add_outcome_result b ~seq (o : Outcome.t) =
  add_result b ~seq ~status:o.Outcome.status ~triggered:o.Outcome.triggered
    ~new_blocks:0 ~duration_ms:o.Outcome.duration_ms ~fault:o.Outcome.fault
    ~coverage:(fun f -> Bitset.iter f o.Outcome.coverage)
    ~injection_stack:o.Outcome.injection_stack
    ~crash_stack:o.Outcome.crash_stack

let decode_fault s =
  match unescape s with
  | Error e -> Error e
  | Ok line -> (
      match Scenario.of_string line with
      | Error e -> Error e
      | Ok scenario -> Fault.of_scenario scenario)

let decode_from_manager line =
  if String.length line > max_line then
    Error
      (Printf.sprintf "oversized message: %d bytes exceeds the %d-byte limit"
         (String.length line) max_line)
  else begin
    match String.split_on_char ' ' (String.trim line) with
    | [ "ERROR"; seq ] -> (
        (* an empty message escapes to the empty string, which trimming ate *)
        match int_of_string_opt seq with
        | Some seq -> Ok (Manager_error { seq; message = "" })
        | None -> Error (Printf.sprintf "malformed sequence number %S" seq))
    | [ "ERROR"; seq; message ] -> (
        let ( let* ) = Result.bind in
        let* seq =
          match int_of_string_opt seq with
          | Some s -> Ok s
          | None -> Error (Printf.sprintf "malformed sequence number %S" seq)
        in
        let* message = unescape message in
        Ok (Manager_error { seq; message }))
    | [ "RESULT"; seq; status; triggered; new_blocks; duration; fault; coverage;
        istack; cstack ] -> (
        let ( let* ) = Result.bind in
        let int_field name v =
          match int_of_string_opt v with
          | Some i -> Ok i
          | None -> Error (Printf.sprintf "malformed %s %S" name v)
        in
        let* seq = int_field "sequence number" seq in
        let* status = status_of_token status in
        let* triggered =
          match triggered with
          | "T" -> Ok true
          | "N" -> Ok false
          | t -> Error (Printf.sprintf "malformed triggered flag %S" t)
        in
        let* new_blocks = int_field "new-blocks count" new_blocks in
        let* duration_ms =
          match float_of_string_opt duration with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "malformed duration %S" duration)
        in
        let* fault = decode_fault fault in
        let* coverage = decode_coverage coverage in
        let* injection_stack = decode_stack istack in
        let* crash_stack = decode_stack cstack in
        Ok
          (Scenario_result
             {
               seq;
               status;
               triggered;
               new_blocks;
               fault;
               coverage;
               injection_stack;
               crash_stack;
               duration_ms;
             }))
    | "RESULT" :: _ -> Error "RESULT carries the wrong number of fields"
    | _ -> Error (Printf.sprintf "unknown message %S" (String.trim line))
  end

let pp_from_manager ppf = function
  | Scenario_result r ->
      Format.fprintf ppf "result #%d: %s (%.1fms)" r.seq
        (Outcome.status_to_string r.status)
        r.duration_ms
  | Manager_error { seq; message } -> Format.fprintf ppf "error #%d: %s" seq message

(* ------------------------------------------------------------------ *)
(* Wire protocol v2: binary records, coalesced several to a frame      *)
(* ------------------------------------------------------------------ *)

(* A v2 frame payload is a concatenation of tagged binary records.
   Scalars are LEB128
   varints (zigzag for signed), strings are length-prefixed raw bytes
   — no escaping. Two pieces of per-connection state make steady-state
   records small: the server interns stack frames into a dictionary it
   grows with incremental DICT records (reports then carry int ids),
   and the client delta-encodes each scenario against the previous one
   it sent on that connection (mutations touch few axes). Both sides
   reset this state on reconnect.

   The frame checksum already catches corruption; the remaining threat
   is a *valid* frame applied to desynchronized state (a dropped or
   duplicated frame under chaos). Three guards turn that into a typed
   decode error instead of a silently wrong report: requests carry a
   per-connection generation counter (a gap means a lost frame, a
   stale one is an idempotent duplicate to skip), every request carries
   an FNV-1a checksum of the full reconstructed scenario, and DICT
   records carry their explicit base id (a gap or conflicting re-definition
   is desync). *)

module V2 = struct
  let ( let* ) = Result.bind

  let tag_request = 0x01
  let tag_shutdown = 0x02
  let tag_dict = 0x03
  let tag_result = 0x04
  let tag_error = 0x05

  (* -- primitives ------------------------------------------------- *)

  let add_uv b n =
    if n < 0 then invalid_arg "Message.V2: negative varint";
    let rec go n =
      if n < 0x80 then Buffer.add_char b (Char.chr n)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
        go (n lsr 7)
      end
    in
    go n

  let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
  let unzigzag n = (n lsr 1) lxor (- (n land 1))

  (* The zigzag of an extreme int ([min_int], [max_int]) occupies all 63
     bits and is negative as an OCaml int, so signed varints LEB128 the
     raw bit pattern with logical shifts instead of going through
     [add_uv]'s non-negative domain. *)
  let add_bits b n =
    let rec go n =
      if n >= 0 && n < 0x80 then Buffer.add_char b (Char.chr n)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
        go (n lsr 7)
      end
    in
    go n

  let add_sv b n = add_bits b (zigzag n)

  let add_str b s =
    add_uv b (String.length s);
    Buffer.add_string b s

  let add_f64 b f =
    let bits = Int64.bits_of_float f in
    for i = 7 downto 0 do
      Buffer.add_char b
        (Char.chr
           (Int64.to_int
              (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
    done

  type cursor = { data : string; mutable pos : int }

  let remaining c = String.length c.data - c.pos

  let read_byte c =
    if c.pos >= String.length c.data then Error "truncated record"
    else begin
      let v = Char.code c.data.[c.pos] in
      c.pos <- c.pos + 1;
      Ok v
    end

  let read_uv c =
    let rec go acc shift =
      if shift > Sys.int_size - 1 then Error "varint overflow"
      else
        match read_byte c with
        | Error _ -> Error "truncated varint"
        | Ok byte ->
            let acc = acc lor ((byte land 0x7f) lsl shift) in
            if byte land 0x80 = 0 then
              if acc < 0 then Error "varint overflow" else Ok acc
            else go acc (shift + 7)
    in
    go 0 0

  (* [read_uv]'s mirror for the full 63-bit pattern: the accumulator may
     legitimately go negative on the 9th byte (bit 62 is the sign bit). *)
  let read_bits c =
    let rec go acc shift =
      if shift >= Sys.int_size then Error "varint overflow"
      else
        match read_byte c with
        | Error _ -> Error "truncated varint"
        | Ok byte ->
            let acc = acc lor ((byte land 0x7f) lsl shift) in
            if byte land 0x80 = 0 then Ok acc else go acc (shift + 7)
    in
    go 0 0

  let read_sv c = Result.map unzigzag (read_bits c)

  let read_str c =
    let* n = read_uv c in
    if n > max_line then Error "oversized string"
    else if n > remaining c then Error "truncated string"
    else begin
      let s = String.sub c.data c.pos n in
      c.pos <- c.pos + n;
      Ok s
    end

  let read_f64 c =
    if remaining c < 8 then Error "truncated float"
    else begin
      let bits = ref 0L in
      for _ = 1 to 8 do
        bits :=
          Int64.logor (Int64.shift_left !bits 8)
            (Int64.of_int (Char.code c.data.[c.pos]));
        c.pos <- c.pos + 1
      done;
      Ok (Int64.float_of_bits !bits)
    end

  (* Position-based wrappers for tests and micro-benches. *)

  let varint_encode = add_uv
  let svarint_encode = add_sv

  let varint_decode s ~pos =
    let c = { data = s; pos } in
    Result.map (fun v -> (v, c.pos)) (read_uv c)

  let svarint_decode s ~pos =
    let c = { data = s; pos } in
    Result.map (fun v -> (v, c.pos)) (read_sv c)

  (* -- values and scenarios --------------------------------------- *)

  let add_value b = function
    | Value.Sym s ->
        Buffer.add_char b '\x00';
        add_str b s
    | Value.Int n ->
        Buffer.add_char b '\x01';
        add_sv b n
    | Value.Pair (lo, hi) ->
        Buffer.add_char b '\x02';
        add_sv b lo;
        add_sv b hi

  let read_value c =
    let* tag = read_byte c in
    match tag with
    | 0 ->
        let* s = read_str c in
        Ok (Value.Sym s)
    | 1 ->
        let* n = read_sv c in
        Ok (Value.Int n)
    | 2 ->
        let* lo = read_sv c in
        let* hi = read_sv c in
        Ok (Value.Pair (lo, hi))
    | t -> Error (Printf.sprintf "unknown value tag %d" t)

  let scenario_checksum s = Transport.checksum (Scenario.to_string s)

  (* -- client -> server ------------------------------------------- *)

  type client_enc = {
    mutable last_sent : Scenario.t option;
    mutable out_gen : int;
  }

  let client_enc () = { last_sent = None; out_gen = 0 }

  (* Delta-encode against the previous scenario sent on this connection
     when the axes line up (same names, same order) and strictly fewer
     bindings changed than the scenario has; otherwise send it full. *)
  let encode_request enc b ~seq scenario =
    if seq < 0 then invalid_arg "Message.V2.encode_request: negative seq";
    enc.out_gen <- enc.out_gen + 1;
    Buffer.add_char b (Char.chr tag_request);
    add_uv b seq;
    add_uv b enc.out_gen;
    let changes =
      match enc.last_sent with
      | Some prev
        when List.length prev = List.length scenario
             && List.for_all2
                  (fun (n, _) (n', _) -> String.equal n n')
                  prev scenario ->
          let rec diff i acc prev scen =
            match (prev, scen) with
            | [], [] -> Some (List.rev acc)
            | (_, pv) :: prest, (_, sv) :: srest ->
                let acc = if Value.equal pv sv then acc else (i, sv) :: acc in
                diff (i + 1) acc prest srest
            | _ -> None
          in
          diff 0 [] prev scenario
      | _ -> None
    in
    (match changes with
    | Some changed when List.length changed < List.length scenario ->
        Buffer.add_char b '\x01';
        add_uv b (List.length changed);
        List.iter
          (fun (i, v) ->
            add_uv b i;
            add_value b v)
          changed
    | Some _ | None ->
        Buffer.add_char b '\x00';
        add_uv b (List.length scenario);
        List.iter
          (fun (n, v) ->
            add_str b n;
            add_value b v)
          scenario);
    add_uv b (scenario_checksum scenario);
    enc.last_sent <- Some scenario

  let encode_shutdown b = Buffer.add_char b (Char.chr tag_shutdown)

  type server_dec = {
    mutable last_seen : Scenario.t option;
    mutable in_gen : int;
  }

  let server_dec () = { last_seen = None; in_gen = 0 }

  let decode_requests dec payload =
    let c = { data = payload; pos = 0 } in
    let rec loop acc =
      if remaining c = 0 then Ok (List.rev acc)
      else
        let* tag = read_byte c in
        if tag = tag_shutdown then loop (Shutdown :: acc)
        else if tag = tag_request then begin
          let* seq = read_uv c in
          let* gen = read_uv c in
          let* mode = read_byte c in
          let* body =
            if mode = 0 then begin
              let* n = read_uv c in
              if n > remaining c then Error "truncated scenario"
              else begin
                let rec bindings acc k =
                  if k = 0 then Ok (List.rev acc)
                  else
                    let* name = read_str c in
                    let* v = read_value c in
                    bindings ((name, v) :: acc) (k - 1)
                in
                Result.map (fun s -> `Full s) (bindings [] n)
              end
            end
            else if mode = 1 then begin
              let* n = read_uv c in
              if n > remaining c then Error "truncated scenario delta"
              else begin
                let rec changes acc k =
                  if k = 0 then Ok (List.rev acc)
                  else
                    let* i = read_uv c in
                    let* v = read_value c in
                    changes ((i, v) :: acc) (k - 1)
                in
                Result.map (fun cs -> `Delta cs) (changes [] n)
              end
            end
            else Error (Printf.sprintf "unknown scenario mode %d" mode)
          in
          let* sum = read_uv c in
          if gen <= dec.in_gen then
            (* A duplicated frame (chaos): these requests were already
               reconstructed, executed and answered — skip, don't touch
               the delta base. *)
            loop acc
          else if gen > dec.in_gen + 1 then
            Error
              (Printf.sprintf
                 "request generation gap (%d after %d): a frame went missing"
                 gen dec.in_gen)
          else
            let* scenario =
              match body with
              | `Full s -> Ok s
              | `Delta changed -> (
                  match dec.last_seen with
                  | None -> Error "delta request without a base scenario"
                  | Some prev ->
                      let arr = Array.of_list prev in
                      let rec apply = function
                        | [] -> Ok (Array.to_list arr)
                        | (i, v) :: rest ->
                            if i < 0 || i >= Array.length arr then
                              Error
                                (Printf.sprintf
                                   "delta index %d outside the base scenario" i)
                            else begin
                              arr.(i) <- (fst arr.(i), v);
                              apply rest
                            end
                      in
                      apply changed)
            in
            if scenario_checksum scenario <> sum then
              Error "scenario checksum mismatch: connection state desynchronized"
            else begin
              dec.last_seen <- Some scenario;
              dec.in_gen <- gen;
              loop (Run_scenario { seq; scenario } :: acc)
            end
        end
        else Error (Printf.sprintf "unknown request record tag %d" tag)
    in
    loop []

  (* -- server -> client ------------------------------------------- *)

  let status_code = function
    | Outcome.Passed -> 0
    | Outcome.Test_failed -> 1
    | Outcome.Crashed -> 2
    | Outcome.Hung -> 3

  let status_of_code = function
    | 0 -> Ok Outcome.Passed
    | 1 -> Ok Outcome.Test_failed
    | 2 -> Ok Outcome.Crashed
    | 3 -> Ok Outcome.Hung
    | n -> Error (Printf.sprintf "unknown status code %d" n)

  type server_enc = {
    interned : (string, int) Hashtbl.t;
    mutable next_id : int;
  }

  let server_enc () = { interned = Hashtbl.create 64; next_id = 0 }
  let server_dict_size enc = enc.next_id

  let intern enc pending frame =
    match Hashtbl.find_opt enc.interned frame with
    | Some id -> id
    | None ->
        let id = enc.next_id in
        Hashtbl.add enc.interned frame id;
        enc.next_id <- id + 1;
        pending := frame :: !pending;
        id

  (* Coverage as run-length varints — run count, then per run the gap
     from the previous run's end (the first run ships its absolute
     start) and the run length minus one. Coverage is overwhelmingly
     contiguous stretches of block indices, so a run costs ~2 bytes
     regardless of its length: the binary-density counterpart of the
     text record's "a-b" ranges, which per-block gap encoding loses
     badly to. *)
  let add_coverage b cov =
    let rec runs acc start last = function
      | [] -> List.rev ((start, last) :: acc)
      | i :: rest ->
          if i <= last then
            invalid_arg "Message.V2: coverage must be strictly ascending"
          else if i = last + 1 then runs acc start i rest
          else runs ((start, last) :: acc) i i rest
    in
    match cov with
    | [] -> add_uv b 0
    | first :: rest ->
        let rs = runs [] first first rest in
        add_uv b (List.length rs);
        ignore
          (List.fold_left
             (fun prev_end (s, e) ->
               (match prev_end with
               | None -> add_uv b s
               | Some p -> add_uv b (s - p - 1));
               add_uv b (e - s);
               Some e)
             None rs)

  let read_coverage c =
    let* nruns = read_uv c in
    if nruns > remaining c then Error "truncated coverage"
    else
      let rec go acc prev_end k =
        if k = 0 then Ok (List.rev acc)
        else
          let* gap = read_uv c in
          let start =
            match prev_end with None -> gap | Some p -> p + 1 + gap
          in
          let* len1 = read_uv c in
          (* A few bytes must not conjure a giant list: bound each run
             like every other length field. *)
          if len1 > max_line then Error "oversized coverage run"
          else
            let last = start + len1 in
            if last < start then Error "coverage overflow"
            else
              let rec fill acc i =
                if i > last then acc else fill (i :: acc) (i + 1)
              in
              go (fill acc start) (Some last) (k - 1)
      in
      go [] None nruns

  let add_stack_ids b = function
    | None -> Buffer.add_char b '\x00'
    | Some ids ->
        Buffer.add_char b '\x01';
        add_uv b (List.length ids);
        List.iter (add_uv b) ids

  (* Interning may discover strings the peer has never seen: those are
     shipped in a DICT record immediately before the report that uses
     them, in the same coalesced frame. The record carries its explicit
     base id so a duplicated frame re-defines entries identically (a
     no-op) and a dropped one leaves a detectable gap. The dictionary
     holds stack frames and fault descriptors alike — a campaign cycles
     through few distinct faults, so the ~50-byte fault text collapses
     to an id after its first appearance. *)
  let encode_reply enc b = function
    | Manager_error { seq; message } ->
        Buffer.add_char b (Char.chr tag_error);
        add_sv b seq;
        add_str b message
    | Scenario_result r ->
        let pending = ref [] in
        let base = enc.next_id in
        let fault_id =
          intern enc pending (Scenario.to_string (Fault.to_scenario r.fault))
        in
        let ids = Option.map (List.map (intern enc pending)) in
        let istack = ids r.injection_stack in
        let cstack = ids r.crash_stack in
        let news = List.rev !pending in
        if news <> [] then begin
          Buffer.add_char b (Char.chr tag_dict);
          add_uv b base;
          add_uv b (List.length news);
          List.iter (add_str b) news
        end;
        Buffer.add_char b (Char.chr tag_result);
        add_uv b r.seq;
        Buffer.add_char b
          (Char.chr (status_code r.status lor (if r.triggered then 4 else 0)));
        add_uv b r.new_blocks;
        add_f64 b r.duration_ms;
        add_uv b fault_id;
        add_coverage b r.coverage;
        add_stack_ids b istack;
        add_stack_ids b cstack

  type client_dec = {
    mutable frames : string array;
    mutable n_frames : int;
  }

  let client_dec () = { frames = Array.make 64 ""; n_frames = 0 }
  let client_dict_size d = d.n_frames

  let dict_append d s =
    if d.n_frames = Array.length d.frames then begin
      let grown = Array.make (2 * Array.length d.frames) "" in
      Array.blit d.frames 0 grown 0 d.n_frames;
      d.frames <- grown
    end;
    d.frames.(d.n_frames) <- s;
    d.n_frames <- d.n_frames + 1

  let read_stack dec c =
    let* present = read_byte c in
    match present with
    | 0 -> Ok None
    | 1 ->
        let* n = read_uv c in
        if n > remaining c + 1 then Error "truncated stack"
        else begin
          let rec go acc k =
            if k = 0 then Ok (Some (List.rev acc))
            else
              let* id = read_uv c in
              if id >= dec.n_frames then
                Error
                  (Printf.sprintf
                     "unknown stack-frame id %d (dictionary has %d): \
                      connection state desynchronized"
                     id dec.n_frames)
              else go (dec.frames.(id) :: acc) (k - 1)
          in
          go [] n
        end
    | t -> Error (Printf.sprintf "unknown stack presence tag %d" t)

  let decode_replies dec payload =
    let c = { data = payload; pos = 0 } in
    let rec loop acc =
      if remaining c = 0 then Ok (List.rev acc)
      else
        let* tag = read_byte c in
        if tag = tag_dict then begin
          let* base = read_uv c in
          let* n = read_uv c in
          if n > remaining c then Error "truncated dictionary record"
          else begin
            let rec entries k =
              if k = n then Ok ()
              else
                let* s = read_str c in
                let id = base + k in
                if id < dec.n_frames then
                  if String.equal dec.frames.(id) s then entries (k + 1)
                  else
                    Error
                      (Printf.sprintf
                         "dictionary entry %d redefined: connection state \
                          desynchronized"
                         id)
                else if id = dec.n_frames then begin
                  dict_append dec s;
                  entries (k + 1)
                end
                else
                  Error
                    (Printf.sprintf
                       "dictionary gap (entry %d after %d): a frame went \
                        missing"
                       id dec.n_frames)
            in
            let* () = entries 0 in
            loop acc
          end
        end
        else if tag = tag_result then begin
          let* seq = read_uv c in
          let* flags = read_byte c in
          if flags land lnot 7 <> 0 then
            Error (Printf.sprintf "unknown result flags %#x" flags)
          else
            let* status = status_of_code (flags land 3) in
            let triggered = flags land 4 <> 0 in
            let* new_blocks = read_uv c in
            let* duration_ms = read_f64 c in
            let* fault_id = read_uv c in
            let* fault_s =
              if fault_id >= dec.n_frames then
                Error
                  (Printf.sprintf
                     "unknown fault id %d (dictionary has %d): connection \
                      state desynchronized"
                     fault_id dec.n_frames)
              else Ok dec.frames.(fault_id)
            in
            let* fault =
              match Scenario.of_string fault_s with
              | Error e -> Error e
              | Ok scenario -> Fault.of_scenario scenario
            in
            let* coverage = read_coverage c in
            let* injection_stack = read_stack dec c in
            let* crash_stack = read_stack dec c in
            loop
              (Scenario_result
                 {
                   seq;
                   status;
                   triggered;
                   new_blocks;
                   fault;
                   coverage;
                   injection_stack;
                   crash_stack;
                   duration_ms;
                 }
              :: acc)
        end
        else if tag = tag_error then begin
          let* seq = read_sv c in
          let* message = read_str c in
          loop (Manager_error { seq; message } :: acc)
        end
        else Error (Printf.sprintf "unknown reply record tag %d" tag)
    in
    loop []
end
