type t = int array

let of_array a =
  Array.iter (fun x -> if x < 0 then invalid_arg "Point.of_array: negative component") a;
  Array.copy a

let of_list l = of_array (Array.of_list l)
let to_array t = Array.copy t
let to_list t = Array.to_list t
let dim t = Array.length t
let get t i = t.(i)

let with_component t i v =
  if v < 0 then invalid_arg "Point.with_component: negative component";
  let c = Array.copy t in
  c.(i) <- v;
  c

let equal a b = a = b
let compare a b = Stdlib.compare a b

(* Folds in every component (Hashtbl.hash on the array would stop at
   ten), then scrambles the low bits bucket selection reads; allocates
   nothing. *)
let hash (t : t) =
  let h = ref (Array.length t) in
  for i = 0 to Array.length t - 1 do
    h := (!h * 65599) + t.(i)
  done;
  Hashtbl.hash !h

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let check_dims a b =
  if Array.length a <> Array.length b then
    invalid_arg "Point: dimension mismatch"

let manhattan a b =
  check_dims a b;
  let d = ref 0 in
  for i = 0 to Array.length a - 1 do
    d := !d + abs (a.(i) - b.(i))
  done;
  !d

let chebyshev a b =
  check_dims a b;
  let d = ref 0 in
  for i = 0 to Array.length a - 1 do
    d := max !d (abs (a.(i) - b.(i)))
  done;
  !d

let key t = String.concat "," (List.map string_of_int (Array.to_list t))

let to_string t =
  "<" ^ String.concat ", " (List.map string_of_int (Array.to_list t)) ^ ">"

let pp ppf t = Format.pp_print_string ppf (to_string t)
