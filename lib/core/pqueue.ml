module Rng = Afex_stats.Rng

(* The queue is small (tens of entries), so a plain list with O(n)
   operations is simpler than a heap and fast enough: sampling is O(n)
   regardless because it is probabilistic, not max-first. *)
type t = { capacity : int; mutable entries : Test_case.t list }

let create ~capacity =
  if capacity < 1 then invalid_arg "Pqueue.create: capacity < 1";
  { capacity; entries = [] }

let size t = List.length t.entries
let is_empty t = t.entries = []
let capacity t = t.capacity

(* Sampling floor: even zero-fitness entries keep a small chance, so the
   search never hard-locks onto one test. *)
let floor_weight = 1e-6

type weighting = Direct | Inverse

(* [Float.max floor_weight x], NaN included, in a form the compiler
   inlines, so the loops below keep their sums unboxed. *)
let floored x = if x > floor_weight || Float.is_nan x then x else floor_weight

let weight how c =
  match how with
  | Direct -> floored c.Test_case.fitness
  | Inverse -> floored (1.0 /. floored c.Test_case.fitness)

(* Proportional pick over [entries] under [how], with one [Rng.float]
   draw: the index, and the entry, that [Dist.sample_weighted] picks from
   the same weights, found by walking the list twice (sum, then scan)
   instead of building weight, probability and cumulative arrays. *)
let pick how rng entries =
  let total = ref 0.0 and rest = ref entries in
  while not (List.is_empty !rest) do
    total := !total +. weight how (List.hd !rest);
    rest := List.tl !rest
  done;
  let total = !total in
  if Float.is_nan total then invalid_arg "Pqueue: NaN fitness";
  let u = Rng.float rng 1.0 in
  let acc = ref 0.0 and i = ref 0 and rest = ref entries and stop = ref false in
  while not !stop do
    match !rest with
    | [] -> invalid_arg "Pqueue: empty"
    | [ _ ] -> stop := true
    | c :: tl ->
        acc := !acc +. (weight how c /. total);
        if !acc >= u then stop := true
        else begin
          incr i;
          rest := tl
        end
  done;
  (!i, List.hd !rest)

let remove_nth entries n =
  let rec go i acc = function
    | [] -> invalid_arg "Pqueue.remove_nth"
    | x :: rest ->
        if i = n then (x, List.rev_append acc rest) else go (i + 1) (x :: acc) rest
  in
  go 0 [] entries

type eviction = Inverse_fitness | Drop_min

let insert ?(policy = Inverse_fitness) rng t case =
  if List.length t.entries < t.capacity then begin
    t.entries <- case :: t.entries;
    None
  end
  else begin
    let victim_index =
      match policy with
      | Inverse_fitness -> fst (pick Inverse rng t.entries)
      | Drop_min ->
          let _, index, _ =
            List.fold_left
              (fun (i, best_i, best_w) c ->
                if c.Test_case.fitness < best_w then (i + 1, i, c.Test_case.fitness)
                else (i + 1, best_i, best_w))
              (0, 0, infinity) t.entries
          in
          index
    in
    let victim, rest = remove_nth t.entries victim_index in
    t.entries <- case :: rest;
    Some victim
  end

let sample rng t =
  match t.entries with
  | [] -> None
  | entries -> Some (snd (pick Direct rng entries))

(* Decays every entry; true when one fell below [retire_below]. *)
let rec decay_all ~decay ~retire_below found = function
  | [] -> found
  | case :: rest ->
      case.Test_case.fitness <- case.Test_case.fitness *. decay;
      decay_all ~decay ~retire_below
        (found || not (case.Test_case.fitness >= retire_below))
        rest

let age t ~decay ~retire_below =
  if not (decay_all ~decay ~retire_below false t.entries) then []
  else begin
    let kept, retired =
      List.partition (fun case -> case.Test_case.fitness >= retire_below) t.entries
    in
    t.entries <- kept;
    retired
  end

let mean_fitness t =
  match t.entries with
  | [] -> 0.0
  | entries ->
      List.fold_left (fun acc c -> acc +. c.Test_case.fitness) 0.0 entries
      /. float_of_int (List.length entries)

let elements t = t.entries
