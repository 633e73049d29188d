type 'a t = {
  mutable buf : 'a option array;
  mutable head : int; (* index of the front element *)
  mutable len : int;
}

let create () = { buf = Array.make 8 None; head = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let index t i = (t.head + i) mod Array.length t.buf

let grow t =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let nbuf = Array.make (cap * 2) None in
    for i = 0 to t.len - 1 do
      nbuf.(i) <- t.buf.(index t i)
    done;
    t.buf <- nbuf;
    t.head <- 0
  end

let push_back t x =
  grow t;
  t.buf.(index t t.len) <- Some x;
  t.len <- t.len + 1

let push_front t x =
  grow t;
  t.head <- (t.head - 1 + Array.length t.buf) mod Array.length t.buf;
  t.buf.(t.head) <- Some x;
  t.len <- t.len + 1

let pop_front t =
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- index t 1;
    t.len <- t.len - 1;
    x
  end

let pop_back t =
  if t.len = 0 then None
  else begin
    let i = index t (t.len - 1) in
    let x = t.buf.(i) in
    t.buf.(i) <- None;
    t.len <- t.len - 1;
    x
  end

let peek_front t = if t.len = 0 then None else t.buf.(t.head)

let peek_back t = if t.len = 0 then None else t.buf.(index t (t.len - 1))

let to_list t =
  let rec go i acc =
    if i < 0 then acc
    else
      match t.buf.(index t i) with
      | Some x -> go (i - 1) (x :: acc)
      | None -> go (i - 1) acc
  in
  go (t.len - 1) []

let iter f t =
  for i = 0 to t.len - 1 do
    match t.buf.(index t i) with Some x -> f x | None -> ()
  done

(* Logical position of the first element from [i] on satisfying [f], or
   -1.  Top-level, so scanning allocates no closure. *)
let rec find_from t f i =
  if i >= t.len then -1
  else match t.buf.(index t i) with Some x when f x -> i | Some _ | None -> find_from t f (i + 1)

let exists f t = find_from t f 0 >= 0

(* Close the gap at logical position [i] inside the ring, moving whichever
   side of it is shorter: the front part one slot back (and the head with
   it), or the back part one slot forward.  No list and no re-push; the
   vacated slot is cleared so the GC can reclaim what it held. *)
let delete_at t i =
  if i < t.len / 2 then begin
    for j = i downto 1 do
      t.buf.(index t j) <- t.buf.(index t (j - 1))
    done;
    t.buf.(t.head) <- None;
    t.head <- index t 1
  end
  else begin
    for j = i to t.len - 2 do
      t.buf.(index t j) <- t.buf.(index t (j + 1))
    done;
    t.buf.(index t (t.len - 1)) <- None
  end;
  t.len <- t.len - 1

let remove t ~eq x =
  let i = find_from t (eq x) 0 in
  if i < 0 then false
  else begin
    delete_at t i;
    true
  end

let remove_first t ~f =
  let i = find_from t f 0 in
  if i < 0 then None
  else begin
    (* the slot's own [Some]: returning it allocates nothing *)
    let found = t.buf.(index t i) in
    delete_at t i;
    found
  end

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.head <- 0;
  t.len <- 0
