type axis_state = { mutable samples : float list (* newest first, <= window *) }

(* [probs] and [pins] memoise {!probabilities} and {!mask} for the current
   samples: the mutator reads them on every attempt, and they change only
   when a report is recorded. *)
type t = {
  window : int;
  axes : axis_state array;
  prior : float;
  mutable probs : float array option;
  mutable pins : bool array option;
}

let create ?(window = 20) ~dims () =
  if dims < 1 then invalid_arg "Sensitivity.create: dims < 1";
  if window < 1 then invalid_arg "Sensitivity.create: window < 1";
  {
    window;
    axes = Array.init dims (fun _ -> { samples = [] });
    prior = 1.0;
    probs = None;
    pins = None;
  }

let record t ~axis ~fitness =
  let state = t.axes.(axis) in
  let trimmed =
    if List.length state.samples >= t.window then
      List.filteri (fun i _ -> i < t.window - 1) state.samples
    else state.samples
  in
  state.samples <- fitness :: trimmed;
  t.probs <- None;
  t.pins <- None

(* An axis with no samples yet reports an optimistic prior, so the search
   starts out direction-agnostic rather than locked on the first axis that
   happened to pay off. *)
let value t i =
  let state = t.axes.(i) in
  match state.samples with
  | [] -> t.prior
  | samples -> List.fold_left ( +. ) 0.0 samples

let values t = Array.init (Array.length t.axes) (value t)

let compute_probabilities t =
  let raw = values t in
  let total = Array.fold_left ( +. ) 0.0 raw in
  let n = Array.length raw in
  let uniform = 1.0 /. float_of_int n in
  if total <= 0.0 then Array.make n uniform
  else begin
    (* 10% of the mass stays uniform: no axis is ever fully abandoned. *)
    let epsilon = 0.10 in
    Array.map (fun v -> (epsilon *. uniform) +. ((1.0 -. epsilon) *. v /. total)) raw
  end

let probabilities t =
  match t.probs with
  | Some p -> p
  | None ->
      let p = compute_probabilities t in
      t.probs <- Some p;
      p

let dims t = Array.length t.axes

(* An axis is "critical" — worth pinning under mutation masking — when its
   choice probability strictly exceeds the uniform share: its mutations
   have been paying off above baseline, so it is what established the
   parent's position. The probabilities sum to 1, so at least one axis
   always stays at or below uniform and the mask can never pin
   everything (the mutator additionally refuses an all-pinned mask). *)
let mask t =
  match t.pins with
  | Some m -> m
  | None ->
      let p = probabilities t in
      let uniform = 1.0 /. float_of_int (Array.length p) in
      let m = Array.map (fun v -> v > uniform) p in
      t.pins <- Some m;
      m
