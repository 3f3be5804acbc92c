module Bitset = Afex_stats.Bitset

type t = {
  hits : int array;  (* per-block cumulative hit counts *)
  mutable tests : int;  (* outcomes observed so far *)
}

let create ~blocks =
  if blocks < 0 then invalid_arg "Rarity.create: negative block count";
  { hits = Array.make blocks 0; tests = 0 }

let blocks t = Array.length t.hits
let tests t = t.tests

let hit_count t b =
  if b < 0 || b >= Array.length t.hits then
    invalid_arg "Rarity.hit_count: block out of range";
  t.hits.(b)

let observe t coverage =
  if Bitset.capacity coverage <> Array.length t.hits then
    invalid_arg "Rarity.observe: coverage capacity mismatch";
  Bitset.iter (fun b -> t.hits.(b) <- t.hits.(b) + 1) coverage;
  t.tests <- t.tests + 1

(* The rarest block a test reaches is the one with the fewest prior hits;
   ties go to the lowest block id so the choice is deterministic. *)
let rarest_block t coverage =
  if Bitset.capacity coverage <> Array.length t.hits then
    invalid_arg "Rarity.rarest_block: coverage capacity mismatch";
  let best = ref (-1) and best_hits = ref max_int in
  Bitset.iter
    (fun b ->
      if t.hits.(b) < !best_hits then begin
        best := b;
        best_hits := t.hits.(b)
      end)
    coverage;
  if !best < 0 then None else Some !best

(* Bonus in (0, 1]: 1 for coverage reaching a never-hit block, decaying
   hyperbolically with the hit count of the rarest block reached — monotone
   non-increasing in that count. Empty coverage earns nothing. *)
let bonus_of_rarest t = function
  | None -> 0.0
  | Some b -> 1.0 /. (1.0 +. float_of_int (hit_count t b))

let bonus t coverage = bonus_of_rarest t (rarest_block t coverage)

let is_rare t ~cutoff b =
  if b < 0 || b >= Array.length t.hits then
    invalid_arg "Rarity.is_rare: block out of range";
  float_of_int t.hits.(b) < cutoff *. float_of_int t.tests

let rare_count t ~cutoff =
  let n = ref 0 in
  Array.iter
    (fun h -> if float_of_int h < cutoff *. float_of_int t.tests then incr n)
    t.hits;
  !n

let dump t =
  let pairs = ref [] in
  for b = Array.length t.hits - 1 downto 0 do
    if t.hits.(b) > 0 then pairs := (b, t.hits.(b)) :: !pairs
  done;
  (t.tests, !pairs)

let load ~blocks (tests, pairs) =
  let err fmt = Printf.ksprintf (fun m -> Error ("Rarity.load: " ^ m)) fmt in
  if blocks < 0 then err "negative block count"
  else if tests < 0 then err "negative test count"
  else begin
    let t = create ~blocks in
    t.tests <- tests;
    let rec fill last = function
      | [] -> Ok t
      | (b, h) :: rest ->
          if b <= last then err "blocks out of order at %d" b
          else if b >= blocks then err "block %d outside the target's %d blocks" b blocks
          else if h < 1 then err "block %d carries hit count %d" b h
          else if h > tests then err "block %d hit %d times in %d tests" b h tests
          else begin
            t.hits.(b) <- h;
            fill b rest
          end
    in
    fill (-1) pairs
  end
