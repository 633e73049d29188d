(* The host-speed reference.  On a small shared host the same piece of
   simulator work takes up to twice as long in one second as in the next,
   and the slow stretches can last through a whole 30 s run, so the fastest
   or the median host time of a run moves by a quarter from run to run.
   Work that streams writes and chases pointers through a few MB, as the
   simulator's allocation and heap walks do, slows in step with it; a pure
   ALU loop does not.  So a fixed piece of such work, the reference kernel,
   is timed right before and right after every timed interval, and the
   interval is counted in reference kernels: its host time divided by the
   mean of the two.  One reference kernel counts as [nominal_ns], about
   what the kernel takes in a 2-vCPU host's fast stretches, so the figures
   read as host seconds at that speed.

   Measured on a 2-vCPU host in a noisy hour, six 12 s fleet runs: the
   median host time of a rep spread 0.31 (IQR / median) across runs, the
   sum of per-slice fastest host times 0.15, and the median over reps of
   the rep's time in reference kernels 0.04.  The kernel is the
   benchmark's own code and calls nothing in the simulator, so a simulator
   change moves only the numerator. *)

(* The kernel's memory, allocated once so that the kernel allocates
   nothing: timing it leaves the GC's state, and with it the timed work,
   exactly as it was.  [chain] is one random cycle (Sattolo's shuffle) for
   dependent loads. *)
let nursery_words = 256 * 1024 (* 2 MB, the default minor heap *)

let table_words = 128 * 1024 (* 1 MB *)

let nursery = Array.make nursery_words 0

let table = Array.make table_words 0

let chain =
  let n = 512 * 1024 (* 4 MB *) in
  let a = Array.init n Fun.id in
  let st = ref 99 in
  for i = n - 1 downto 1 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    let j = !st mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* What the simulator's memory traffic looks like, in miniature: 40k
   rounds of a six-word bump allocation through a minor-heap-sized buffer,
   a read from it, an update of a random hash-table slot and, every fourth
   round, a dependent load in a 4 MB heap.  On a 2-vCPU host it takes about
   1 ms in a fast stretch and twice that in a slow one, as the simulator
   does; the allocating kernel tried first (a Hashtbl of 4000 lists) slowed
   only by a third, and its garbage changed the GC work of the timed
   phases. *)
let kernel () =
  let st = ref 12345 and pos = ref 0 and p = ref 0 and s = ref 0 in
  for _ = 1 to 40_000 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    let q = !pos in
    for k = 0 to 5 do
      Array.unsafe_set nursery (q + k) (!st + k)
    done;
    pos := (q + 6) land (nursery_words - 8);
    let key = !st land (table_words - 1) in
    Array.unsafe_set table key (Array.unsafe_get table key + 1);
    if !st land 3 = 0 then p := Array.unsafe_get chain !p;
    s := !s + Array.unsafe_get nursery (q * 7 land (nursery_words - 1))
  done;
  !s + !p

(* host ns of one reference kernel *)
let sample_ns () =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Clock.now_ns () - t0

let nominal_ns = 1_000_000

(* [ns] of host time, next to reference kernels of [ref_ns] host ns, as
   seconds at the reference speed *)
let seconds ~ns ~ref_ns = float_of_int ns /. float_of_int ref_ns *. float_of_int nominal_ns /. 1e9
