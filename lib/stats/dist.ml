type weighted = { cumulative : float array; probs : float array }

let of_weights w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Dist.of_weights: empty";
  Array.iter (fun x -> if x < 0.0 || Float.is_nan x then invalid_arg "Dist.of_weights: negative or NaN weight") w;
  let total = Array.fold_left ( +. ) 0.0 w in
  let probs =
    if total <= 0.0 then Array.make n (1.0 /. float_of_int n)
    else Array.map (fun x -> x /. total) w
  in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. probs.(i);
    cumulative.(i) <- !acc
  done;
  cumulative.(n - 1) <- 1.0;
  { cumulative; probs }

let weights d = Array.copy d.probs
let support d = Array.length d.probs

let sample rng d =
  let u = Rng.float rng 1.0 in
  (* Binary search for the first cumulative value >= u. *)
  let n = Array.length d.cumulative in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if d.cumulative.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* The first [i < n] whose running sum of [w.(base + i) /. total] reaches
   [u], or the last index: what [sample]'s binary search over the
   cumulative array returns, since that array is exactly these running
   sums with its last entry forced to 1. *)
let scan u w ~base ~n ~total =
  let i = ref 0 and acc = ref 0.0 and found = ref false in
  while (not !found) && !i < n - 1 do
    acc := !acc +. (w.(base + !i) /. total);
    if !acc >= u then found := true else incr i
  done;
  !i

let sample_weighted rng w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Dist.sample_weighted: empty";
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let x = w.(i) in
    if x < 0.0 || Float.is_nan x then
      invalid_arg "Dist.sample_weighted: negative or NaN weight";
    total := !total +. x
  done;
  let u = Rng.float rng 1.0 in
  if !total <= 0.0 then
    (* [1.0 /. n] per index, as [of_weights]'s uniform fallback. *)
    scan u (Array.make n 1.0) ~base:0 ~n ~total:(float_of_int n)
  else scan u w ~base:0 ~n ~total:!total

let uniform n = of_weights (Array.make n 1.0)

(* Weight of offset [i - center] at index [i - center + n - 1]: the
   Gaussian density depends on the offset alone, so one table of 2n-1
   weights serves every centre. *)
type gaussian = { n : int; offsets : float array }

let gaussian ~sigma ~n =
  if n <= 0 then invalid_arg "Dist.gaussian: empty domain";
  if Float.is_nan sigma then invalid_arg "Dist.gaussian: NaN sigma";
  let offsets =
    Array.init ((2 * n) - 1) (fun k ->
        let offset = k - (n - 1) in
        if sigma <= 0.0 then if offset = 0 then 1.0 else 0.0
        else
          let d = float_of_int offset /. sigma in
          exp (-0.5 *. d *. d))
  in
  { n; offsets }

let gaussian_size g = g.n

let check_center name g center =
  if center < 0 || center >= g.n then
    invalid_arg (Printf.sprintf "Dist.%s: center %d outside [0,%d)" name center g.n)

let sample_gaussian_excluding rng g ~center =
  let n = g.n in
  if n < 2 then invalid_arg "Dist.sample_gaussian_excluding: domain too small";
  check_center "sample_gaussian_excluding" g center;
  let base = n - 1 - center in
  (* The centre's own weight is 1, so [total] is never zero. *)
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. g.offsets.(base + i)
  done;
  let total = !total in
  let rec draw attempts =
    let i = scan (Rng.float rng 1.0) g.offsets ~base ~n ~total in
    if i <> center then i
    else if attempts > 64 then
      (* Pathologically narrow sigma: fall back to a uniform neighbour. *)
      let j = Rng.int rng (n - 1) in
      if j >= center then j + 1 else j
    else draw (attempts + 1)
  in
  draw 0

let inverse w =
  let positive = Array.to_list w |> List.filter (fun x -> x > 0.0) in
  let max_inverse =
    match positive with
    | [] -> 1.0
    | _ -> List.fold_left (fun acc x -> Float.max acc (1.0 /. x)) 0.0 positive
  in
  Array.map (fun x -> if x > 0.0 then 1.0 /. x else max_inverse *. 2.0) w
