type total = { count : int; children : int; total_ns : int; self_ns : int; self_words : int }

(* Hook calls nest a few levels at most (machine -> class hook -> policy
   call); the stack never grows. *)
let max_depth = 64

type t = {
  count : int array;
  children : int array;
  total_ns : int array;
  self_ns : int array;
  self_words : int array;
  (* the open-span stack, one column per field *)
  st_kind : int array;
  st_ns : int array;
  st_words : int array;
  st_child_ns : int array;
  st_child_words : int array;
  st_children : int array;
  mutable depth : int;
}

let create kinds =
  let n = Array.length kinds in
  let col () = Array.make max_depth 0 in
  {
    count = Array.make n 0;
    children = Array.make n 0;
    total_ns = Array.make n 0;
    self_ns = Array.make n 0;
    self_words = Array.make n 0;
    st_kind = col ();
    st_ns = col ();
    st_words = col ();
    st_child_ns = col ();
    st_child_words = col ();
    st_children = col ();
    depth = 0;
  }

let enter_at t k ~ns ~words =
  let d = t.depth in
  if d >= max_depth then failwith "Spans.enter: nesting deeper than max_depth";
  t.st_kind.(d) <- k;
  t.st_ns.(d) <- ns;
  t.st_words.(d) <- words;
  t.st_child_ns.(d) <- 0;
  t.st_child_words.(d) <- 0;
  t.st_children.(d) <- 0;
  t.depth <- d + 1

let leave_at t ~ns ~words =
  let d = t.depth - 1 in
  if d < 0 then failwith "Spans.leave: no open span";
  t.depth <- d;
  let k = t.st_kind.(d) in
  let dur = ns - t.st_ns.(d) and alloc = words - t.st_words.(d) in
  t.count.(k) <- t.count.(k) + 1;
  t.children.(k) <- t.children.(k) + t.st_children.(d);
  t.total_ns.(k) <- t.total_ns.(k) + dur;
  t.self_ns.(k) <- t.self_ns.(k) + dur - t.st_child_ns.(d);
  t.self_words.(k) <- t.self_words.(k) + alloc - t.st_child_words.(d);
  if d > 0 then begin
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dur;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) + alloc;
    t.st_children.(d - 1) <- t.st_children.(d - 1) + 1
  end

(* Read the clock last on entry and first on exit, so the probe's own
   bookkeeping falls outside the span it measures. *)
let enter t k =
  let words = Clock.minor_words () in
  enter_at t k ~ns:(Clock.now_ns ()) ~words

let leave t =
  let ns = Clock.now_ns () in
  leave_at t ~ns ~words:(Clock.minor_words ())

let total t k =
  { count = t.count.(k); children = t.children.(k); total_ns = t.total_ns.(k);
    self_ns = t.self_ns.(k); self_words = t.self_words.(k) }

type cost = { inside_ns : float; parent_ns : float }

(* Empty spans under one parent: what an empty span measures is the
   probe's cost inside each span, and the parent's self time per child is
   the cost it charges its parent.  The cheapest of a few trials is the
   probe's own cost; the rest is host noise. *)
let probe_cost () =
  let n = 100_000 in
  let trial () =
    let t = create [| "parent"; "child" |] in
    enter t 0;
    for _ = 1 to n do
      enter t 1;
      leave t
    done;
    leave t;
    let per x = float_of_int x /. float_of_int n in
    { inside_ns = per t.self_ns.(1); parent_ns = per t.self_ns.(0) }
  in
  List.fold_left
    (fun best c -> if c.inside_ns +. c.parent_ns < best.inside_ns +. best.parent_ns then c else best)
    (trial ())
    (List.init 4 (fun _ -> trial ()))

let self_ns_net t k cost =
  Float.max 0.
    (float_of_int t.self_ns.(k)
    -. (float_of_int t.count.(k) *. cost.inside_ns)
    -. (float_of_int t.children.(k) *. cost.parent_ns))

let depth t = t.depth
