type entry = {
  tokens : int array;  (* interned trace, frame order *)
  sorted : int array;  (* same tokens, sorted, for the bag bound *)
}

type t = {
  intern : Trace_intern.t;
  exact : (int array, unit) Hashtbl.t;
  buckets : (int, entry list ref) Hashtbl.t;  (* trace length -> entries *)
  mutable min_len : int;
  mutable max_len : int;
}

let create ?intern () =
  let intern = match intern with Some i -> i | None -> Trace_intern.create () in
  {
    intern;
    exact = Hashtbl.create 64;
    buckets = Hashtbl.create 64;
    min_len = max_int;
    max_len = -1;
  }

let seen t = Hashtbl.length t.exact

let store t entry =
  let len = Array.length entry.tokens in
  let bucket =
    match Hashtbl.find_opt t.buckets len with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.add t.buckets len b;
        b
  in
  bucket := entry :: !bucket;
  if len < t.min_len then t.min_len <- len;
  if len > t.max_len then t.max_len <- len;
  Hashtbl.add t.exact entry.tokens ()

(* Largest d with 1 - d/longest still strictly above [best], probed with
   the exact float expression used for similarities so pruning can never
   change the winning value. *)
let beat_budget ~best ~longest =
  let beats d = 1.0 -. (float_of_int d /. float_of_int longest) > best in
  let k = int_of_float ((1.0 -. best) *. float_of_int longest) in
  let k = ref (max 0 (min longest k)) in
  while !k < longest && beats (!k + 1) do
    incr k
  done;
  while !k >= 0 && not (beats !k) do
    decr k
  done;
  !k

(* Best possible similarity of the candidate (length [lc]) against any
   stored trace of length [l] or beyond it on the same side: lengths alone
   force |lc - l| edits, and the bound only falls as the length delta
   grows. *)
let length_bound ~lc l =
  let longest = max lc l in
  1.0 -. (float_of_int (abs (lc - l)) /. float_of_int longest)

(* Max similarity of [candidate] against every stored distinct trace —
   the same fold the seed implementation ran over its whole trace list,
   but visiting length buckets outward from the candidate's own length.
   The scan stops once no remaining length can beat the best similarity
   found; within a bucket the bag filter and the best-so-far distance
   budget reject most pairs before any DP runs. Skipping is gated on
   monotone float bounds evaluated with the similarity formula itself, so
   the result is bit-identical to the exhaustive fold. *)
let best_similarity t candidate =
  let lc = Array.length candidate.tokens in
  let best = ref 0.0 in
  (* An empty candidate has similarity exactly 0 to every non-empty trace
     (and an empty stored trace would have been an exact match), so only a
     non-empty candidate against a non-empty store needs the scan. *)
  if lc > 0 && t.max_len >= 0 then begin
    let scan l =
      match Hashtbl.find_opt t.buckets l with
      | None -> ()
      | Some entries ->
          let longest = max lc l in
          List.iter
            (fun e ->
              let k = beat_budget ~best:!best ~longest in
              if
                k >= 0
                && Levenshtein.bag_lower_bound candidate.sorted e.sorted <= k
              then
                match Levenshtein.distance_at_most ~k candidate.tokens e.tokens with
                | Some d ->
                    best :=
                      Float.max !best
                        (1.0 -. (float_of_int d /. float_of_int longest))
                | None -> ())
            !entries
    in
    let continue_ = ref true in
    let delta = ref 0 in
    while !continue_ do
      let low = lc - !delta and high = lc + !delta in
      if low >= t.min_len && low <= t.max_len && length_bound ~lc low > !best
      then scan low;
      if high <> low && high >= t.min_len && high <= t.max_len
         && length_bound ~lc high > !best
      then scan high;
      (* Each side stays live while it can still reach a stored length
         whose bound beats the current best. *)
      let low_live = low - 1 >= t.min_len && length_bound ~lc (low - 1) > !best in
      let high_live =
        high + 1 <= t.max_len && length_bound ~lc (high + 1) > !best
      in
      continue_ := low_live || high_live;
      incr delta
    done
  end;
  !best

let intern_entry t trace =
  let tokens = Trace_intern.intern t.intern trace in
  let sorted = Array.copy tokens in
  Array.sort compare sorted;
  { tokens; sorted }

let weight t trace =
  let candidate = intern_entry t trace in
  if Hashtbl.mem t.exact candidate.tokens then 0.0
  else 1.0 -. best_similarity t candidate

let register t trace =
  let tokens = Trace_intern.intern t.intern trace in
  if not (Hashtbl.mem t.exact tokens) then begin
    let sorted = Array.copy tokens in
    Array.sort compare sorted;
    store t { tokens; sorted }
  end

let weigh_fitness ?bonus t ~trace fitness =
  (* The bonus lands after the redundancy scale, so a test reaching a rare
     block keeps its reward even when its trace is a known repeat. Absent
     a bonus the result is bit-identical to the plain scale (including the
     -0.0 an exact repeat of a negative fitness produces). *)
  let boost f = match bonus with None -> f | Some b -> f +. b in
  match trace with
  | None -> boost fitness
  | Some trace ->
      (* One interning pass and one exact-table probe per outcome: the
         seed implementation recomputed the concatenated key and the
         token array separately for the weight and the registration. *)
      let candidate = intern_entry t trace in
      if Hashtbl.mem t.exact candidate.tokens then boost (fitness *. 0.0)
      else begin
        let w = 1.0 -. best_similarity t candidate in
        store t candidate;
        boost (fitness *. w)
      end
