(** The explorer <-> node-manager protocol (§6, Fig. 2).

    The explorer sends fault scenarios; managers break them into atomic
    faults, drive injectors and sensors, and send back the measured
    result. A connection opens with a text handshake: the client sends
    [HELLO afex 2], and the manager answers [WELCOME afex 2] or, for any
    other version, [REJECT] with a reason. After it, both directions
    carry {!V2} frames: several varint-encoded binary records per frame.
    Both ends ship in the same build, so there is exactly one protocol
    version; a mismatch is a refused connection, never a fallback codec.

    The percent-escaped text codec below ({!encode_from_manager}) is not
    a wire protocol: it is the record format of the checkpoint journal. Every decoder here is total and returns
    [Error] on malformed input — wire and disk bytes are never trusted. *)

val protocol_version : int
(** The one protocol version this build speaks (2). *)

val max_line : int
(** Maximum accepted length of one text record, and of one string inside
    a binary record (1 MiB); longer input is rejected by the decoders
    rather than parsed. *)

(** {2 Escaping}

    Shared with the checkpoint codecs, which tokenize on spaces too. *)

val escape : string -> string
(** Percent-escape: the result contains no spaces, commas, [%], control
    or non-ASCII bytes, so it is safe as one token of a line. A string
    with nothing to escape is returned as is. *)

val add_escaped : Buffer.t -> string -> unit
(** [Buffer.add_string b (escape s)], without building the escaped
    string. *)

val unescape : string -> (string, string) result
(** Total inverse of {!escape}. *)

(** {2 Handshake} *)

type greeting = Welcome of int | Reject of string

val encode_hello : version:int -> string
val decode_hello : string -> (int, string) result
val encode_welcome : version:int -> string
val encode_reject : reason:string -> string
val decode_greeting : string -> (greeting, string) result

(** {2 Explorer -> manager}

    Carried by {!V2.encode_request} / {!V2.decode_requests}. *)

type to_manager =
  | Run_scenario of { seq : int; scenario : Afex_faultspace.Scenario.t }
  | Shutdown

(** {2 Manager -> explorer}

    Carried by {!V2.encode_reply} / {!V2.decode_replies}; the text codec
    after them is the checkpoint journal's record format. *)

type run_report = {
  seq : int;
  status : Afex_injector.Outcome.status;
  triggered : bool;
  new_blocks : int;
      (** manager-side guess; the explorer recomputes against its own
          covered set, so managers send 0 *)
  fault : Afex_injector.Fault.t;
      (** the atomic fault the manager decoded and injected *)
  coverage : int list;
      (** covered basic-block indices — what the explorer's fitness and
          coverage accounting need to reproduce an in-process run
          bit-for-bit *)
  injection_stack : string list option;
  crash_stack : string list option;
  duration_ms : float;
}

type from_manager =
  | Scenario_result of run_report
  | Manager_error of { seq : int; message : string }
      (** [seq = -1] when the manager could not even decode the request *)

val report_of_outcome : seq:int -> Afex_injector.Outcome.t -> run_report

val outcome_of_report :
  total_blocks:int -> run_report -> (Afex_injector.Outcome.t, string) result
(** Rebuild the full outcome on the explorer side. [Error] if a coverage
    index falls outside [\[0, total_blocks)]. *)

val encode_from_manager : from_manager -> string
(** One journal line. Stack frames and error messages are
    percent-escaped, so newlines, spaces, commas and non-ASCII bytes
    round-trip; the duration is carried as a hexadecimal float and
    round-trips exactly. *)

val add_outcome_result : Buffer.t -> seq:int -> Afex_injector.Outcome.t -> unit
(** Append [encode_from_manager (Scenario_result (report_of_outcome ~seq
    o))], byte for byte, read straight from the outcome: no report
    record or coverage list is built. The checkpoint journal's line
    body. *)

val decode_from_manager : string -> (from_manager, string) result
(** Total inverse of {!encode_from_manager}. *)

val pp_from_manager : Format.formatter -> from_manager -> unit

(** {2 Wire protocol v2}

    The binary codec every connection speaks after the handshake. A v2
    frame payload is a concatenation of tagged records — requests and
    reports coalesce, many to a frame — with LEB128 varint scalars and
    length-prefixed raw strings instead of percent-escaped text. Each
    direction carries per-connection codec state:

    - the server interns stack frames and fault descriptors into a
      dictionary, announced to the client through incremental [DICT]
      records (explicit base id, new entries only), so steady-state
      reports ship int ids;
    - the client delta-encodes each scenario against the previous one
      sent on the connection (mutations touch few axes).

    All state is per-connection and resets on reconnect — a fresh
    {!client_enc}/{!server_dec}/{!server_enc}/{!client_dec} per dial.
    Desynchronization (a dropped or duplicated frame that still passes
    the frame checksum) is detected, never silently absorbed: requests
    carry a generation counter and a full-scenario checksum, dictionary
    records fail on gaps or conflicting redefinitions, and reports fail
    on unknown ids. Every decoder returns [Error] — connection-fatal by
    protocol: the peer resets and falls back like any transport fault. *)

module V2 : sig
  (** {3 Varints} — exposed for tests and micro-benches. *)

  val varint_encode : Buffer.t -> int -> unit
  (** LEB128. @raise Invalid_argument on negative input. *)

  val svarint_encode : Buffer.t -> int -> unit
  (** Zigzag + LEB128; any [int]. *)

  val varint_decode : string -> pos:int -> (int * int, string) result
  (** [(value, next_pos)]; total — truncation and overflow are [Error]. *)

  val svarint_decode : string -> pos:int -> (int * int, string) result

  (** {3 Client -> server} *)

  type client_enc
  (** Encoder state: the last scenario sent (delta base) and the
      outgoing generation counter. *)

  val client_enc : unit -> client_enc

  val encode_request :
    client_enc -> Buffer.t -> seq:int -> Afex_faultspace.Scenario.t -> unit
  (** Append one request record. Sends a positional delta against the
      previous scenario when the axis names line up and strictly fewer
      bindings changed than the scenario holds, else the full scenario.
      Always carries the generation number and an FNV-1a checksum of
      the complete scenario. @raise Invalid_argument on negative [seq]. *)

  val encode_shutdown : Buffer.t -> unit

  type server_dec
  (** Decoder state: the last reconstructed scenario and the highest
      generation applied. *)

  val server_dec : unit -> server_dec

  val decode_requests :
    server_dec -> string -> (to_manager list, string) result
  (** Decode a frame payload into its requests, in order. Requests with
      a stale generation (a duplicated frame) are skipped without
      touching decoder state; a generation gap, checksum mismatch,
      delta without a base, or malformed record is [Error]. *)

  (** {3 Server -> client} *)

  type server_enc
  (** The interning dictionary: string -> id, grown as reports mention
      new stack frames or fault descriptors. *)

  val server_enc : unit -> server_enc

  val server_dict_size : server_enc -> int

  val encode_reply : server_enc -> Buffer.t -> from_manager -> unit
  (** Append one reply. Newly interned strings (stack frames and the
      fault descriptor) are announced in a [DICT] record immediately
      preceding the report that uses them, inside the same frame. *)

  type client_dec
  (** The mirror dictionary: id -> frame string. *)

  val client_dec : unit -> client_dec

  val client_dict_size : client_dec -> int

  val decode_replies :
    client_dec -> string -> (from_manager list, string) result
  (** Decode a frame payload into its replies, in order, applying
      [DICT] records to the dictionary as they appear. Gaps,
      conflicting redefinitions and unknown ids are [Error]. *)
end
