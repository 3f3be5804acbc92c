(* Growable int array. *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let length v = v.len
end

type entry = {
  tokens : int array;  (* interned trace, frame order *)
  sorted : int array;  (* same tokens, sorted, for the bag bound *)
}

type t = {
  intern : Trace_intern.t;
  threshold : float;
  exact : (int array, int) Hashtbl.t;  (* interned trace -> distinct id *)
  mutable entries : entry array;  (* distinct id -> entry *)
  mutable n_distinct : int;
  parent : Vec.t;  (* union-find over distinct ids *)
  items : Vec.t;  (* item index -> distinct id, observation order *)
  mutable n_clusters : int;
}

let create ?(threshold = 0.34) ~intern () =
  {
    intern;
    threshold;
    exact = Hashtbl.create 64;
    entries = Array.make 16 { tokens = [||]; sorted = [||] };
    n_distinct = 0;
    parent = Vec.create ();
    items = Vec.create ();
    n_clusters = 0;
  }

let threshold t = t.threshold
let length t = Vec.length t.items
let distinct t = t.n_distinct
let cluster_count t = t.n_clusters

let rec find t i =
  let p = Vec.get t.parent i in
  if p = i then i
  else begin
    let r = find t p in
    Vec.set t.parent i r;
    r
  end

(* Matches the batch pass: the root is always the smaller id, so a
   cluster's root is its first-observed distinct trace — and therefore its
   first-observed member, the representative. *)
let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    Vec.set t.parent (max ra rb) (min ra rb);
    t.n_clusters <- t.n_clusters - 1
  end

(* Largest d that still clusters: float d / longest <= threshold, probed
   with the exact float predicate of the batch implementation so the two
   agree on every boundary case. *)
let close_budget t ~longest =
  let close d = float_of_int d /. float_of_int longest <= t.threshold in
  let k = int_of_float (t.threshold *. float_of_int longest) in
  let k = max 0 (min longest k) in
  if close k then begin
    let k = ref k in
    while !k < longest && close (!k + 1) do
      incr k
    done;
    !k
  end
  else begin
    let k = ref k in
    while !k >= 0 && not (close !k) do
      decr k
    done;
    !k
  end

(* Link a brand-new distinct trace against every older one. The bag/length
   bound rejects most pairs in O(len); survivors run the k-bounded kernel
   with k already capped at the threshold budget. *)
let link t id entry =
  let len = Array.length entry.tokens in
  for other = 0 to id - 1 do
    let o = t.entries.(other) in
    let olen = Array.length o.tokens in
    let longest = max len olen in
    if longest = 0 then union t id other
    else begin
      let k = close_budget t ~longest in
      if k >= 0 && abs (len - olen) <= k then
        if
          find t other <> find t id
          (* already chained together: the edge cannot change the partition *)
        then begin
          if Levenshtein.bag_lower_bound entry.sorted o.sorted <= k then
            match Levenshtein.distance_at_most ~k entry.tokens o.tokens with
            | Some _ -> union t id other
            | None -> ()
        end
    end
  done

let ensure_capacity t id =
  if id = Array.length t.entries then begin
    let entries = Array.make (2 * id) { tokens = [||]; sorted = [||] } in
    Array.blit t.entries 0 entries 0 id;
    t.entries <- entries
  end

let observe t trace =
  let tokens = Trace_intern.intern t.intern trace in
  let id =
    match Hashtbl.find_opt t.exact tokens with
    | Some id -> id
    | None ->
        let id = t.n_distinct in
        ensure_capacity t id;
        let sorted = Array.copy tokens in
        Array.sort compare sorted;
        let entry = { tokens; sorted } in
        t.entries.(id) <- entry;
        t.n_distinct <- id + 1;
        Hashtbl.add t.exact tokens id;
        Vec.push t.parent id;
        t.n_clusters <- t.n_clusters + 1;
        link t id entry;
        id
  in
  Vec.push t.items id

let clusters t =
  let n = Vec.length t.items in
  (* root distinct id -> members (item indices), newest first while
     folding, reversed into observation order below *)
  let groups = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    let r = find t (Vec.get t.items i) in
    let existing = Option.value (Hashtbl.find_opt groups r) ~default:[] in
    Hashtbl.replace groups r (i :: existing)
  done;
  let all = Hashtbl.fold (fun root members acc -> (root, members) :: acc) groups [] in
  let sorted =
    (* Largest first, as the batch clustering reports; ties broken by
       first observation so the order is deterministic. *)
    List.sort
      (fun (ra, ma) (rb, mb) ->
        let c = compare (List.length mb) (List.length ma) in
        if c <> 0 then c else compare ra rb)
      all
  in
  List.map snd sorted

let representatives t = List.map List.hd (clusters t)
