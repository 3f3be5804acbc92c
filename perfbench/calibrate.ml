(* A fixed amount of work on the standard library alone (hashing, sorting,
   string building), which no change to the system under test can speed
   up or slow down. [run.py] runs it in its own process just before and
   just after each campaign, to tell how fast the machine ran around the
   campaign, and rescales the campaign's times by it. Prints the seconds
   the work took. *)

let () =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for r = 1 to 4 do
    let st = Random.State.make [| r |] in
    let h = Hashtbl.create 1024 in
    for i = 0 to 30_000 do
      Hashtbl.replace h (string_of_int (Random.State.int st 32768)) i
    done;
    let l = List.init 30_000 (fun _ -> Random.State.int st 10007) in
    let b = Buffer.create 16 in
    for i = 0 to 20_000 do
      Buffer.add_string b (string_of_int i)
    done;
    let digest = Digest.to_hex (Digest.string (Buffer.contents b)) in
    acc := !acc + Hashtbl.length h + List.hd (List.sort compare l);
    acc := !acc + String.length digest
  done;
  ignore (Sys.opaque_identity !acc);
  Printf.printf "%.9g\n" (Unix.gettimeofday () -. t0)
