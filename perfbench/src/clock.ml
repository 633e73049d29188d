(* CLOCK_MONOTONIC in ns.  [Monotonic_clock.now] is a noalloc external
   with an unboxed result, inlined here, so a probe around a ~100 ns hook
   allocates nothing: it must not show up in the very allocation figures
   it is attributing.  The test "probes allocate nothing" holds it to
   that. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated on the minor heap by this domain so far; unboxed, so
   reading it allocates nothing. *)
let minor_words () = int_of_float (Gc.minor_words ())

let seconds_of_ns ns = float_of_int ns /. 1e9
