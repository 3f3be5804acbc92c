type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }
let copy t = { state = t.state }
let state t = t.state
let of_state state = { state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = bits64 t in
  { state = mix s }

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> split t)

(* Non-negative 62-bit value, safe to use as an OCaml int. *)
let positive_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max_value = (1 lsl 62) - 1 in
  let limit = max_value - (max_value mod bound) in
  let rec draw () =
    let v = positive_int t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = float t 1.0 < p

let gaussian t ~mu ~sigma =
  (* Box-Muller; we only need one deviate per call, simplicity wins. *)
  let rec nonzero () =
    let u = float t 1.0 in
    if u <= 1e-300 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffled_list t l =
  let a = Array.of_list l in
  shuffle t a;
  Array.to_list a

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
