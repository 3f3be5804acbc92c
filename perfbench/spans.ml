(* In-memory span recorder for the traced run.

   A span is one call into a layer: its name, start and end (seconds on
   the wall clock), the span that was open when it began (its parent)
   and the test sequence number it served (0 when it served none).
   Spans are appended to growable parallel arrays, so recording costs a
   clock read and a few stores; nothing is written out until the
   campaign ends. One recorder belongs to one domain. *)

type t = {
  mutable n : int;
  mutable name : string array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable seq : int array;
  mutable current : int;  (* the innermost open span, or -1 *)
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap "";
    start = Array.make cap 0.0;
    stop = Array.make cap 0.0;
    parent = Array.make cap (-1);
    seq = Array.make cap 0;
    current = -1;
  }

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name "";
  t.start <- extend t.start 0.0;
  t.stop <- extend t.stop 0.0;
  t.parent <- extend t.parent (-1);
  t.seq <- extend t.seq 0

let enter t name ~seq =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- t.current;
  t.seq.(i) <- seq;
  t.current <- i;
  t.start.(i) <- Unix.gettimeofday ();
  i

let leave t i =
  t.stop.(i) <- Unix.gettimeofday ();
  t.current <- t.parent.(i)

let span t name ~seq f =
  let i = enter t name ~seq in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let duration t i = t.stop.(i) -. t.start.(i)

(* Self time: a span's duration minus the time its direct children
   cover. Children run on the same domain as their parent and never
   overlap, so subtracting their durations is exact. *)
let self_times t =
  let self = Array.init t.n (duration t) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. duration t i
  done;
  self

(* Per name: (calls, total duration, total self time), sorted by name. *)
let by_name t =
  let self = self_times t in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let calls, total, own =
      Option.value (Hashtbl.find_opt tbl t.name.(i)) ~default:(0, 0.0, 0.0)
    in
    Hashtbl.replace tbl t.name.(i)
      (calls + 1, total +. duration t i, own +. self.(i))
  done;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Durations of every span with this name, ascending. *)
let durations t name =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if String.equal t.name.(i) name then acc := duration t i :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

(* Tab-separated dump, one span per line, times in microseconds since
   the first span began. *)
let write t path =
  let oc = open_out path in
  let origin = if t.n > 0 then t.start.(0) else 0.0 in
  let us x = 1e6 *. (x -. origin) in
  output_string oc "id\tparent\tseq\tname\tstart_us\tend_us\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\n" i t.parent.(i) t.seq.(i)
      t.name.(i) (us t.start.(i)) (us t.stop.(i))
  done;
  close_out oc
