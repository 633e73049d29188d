(* One repetition of a workload: the host time of each timed phase, what the
   GC did during them, and the simulated outputs that prove the work was
   right. *)

type phase = {
  name : string;
  ns : int;
  alloc : float;  (** [Gc.allocated_bytes] delta *)
  ref_ns : int;  (** mean host ns of the reference kernels run right before and after *)
}

type t = {
  mutable phases : phase list;  (** timed phases, in run order *)
  mutable alloc_bytes : float;  (** [Gc.allocated_bytes] over the phases *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable promoted_bytes : float;
  mutable ops : int;  (** completed workload operations *)
  mutable attempted : int;
  mutable failed : int;
  mutable digest : string list;  (** one line per simulated output, run order *)
  mutable checks : (string * bool) list;  (** output checks, run order *)
  mutable layers : (string * float) list;  (** per-layer metrics of a traced rep *)
  mutable notes : string list;  (** figures printed as text only, run order *)
}

let create () =
  { phases = []; alloc_bytes = 0.; minor_gcs = 0; major_gcs = 0;
    promoted_bytes = 0.; ops = 0; attempted = 0; failed = 0; digest = []; checks = []; layers = [];
    notes = [] }

let word = float_of_int (Sys.word_size / 8)

(* Run [f] as the timed phase [name].  The GC readings bracket the clock
   readings, so their own allocation falls outside the timed window; the
   reference kernels bracket both. *)
let phase r name f =
  let ref0 = Speed.sample_ns () in
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = Clock.now_ns () in
  let x = f () in
  let t1 = Clock.now_ns () in
  let a1 = Gc.allocated_bytes () in
  let g1 = Gc.quick_stat () in
  let ref1 = Speed.sample_ns () in
  r.phases <- r.phases @ [ { name; ns = t1 - t0; alloc = a1 -. a0; ref_ns = (ref0 + ref1) / 2 } ];
  r.alloc_bytes <- r.alloc_bytes +. (a1 -. a0);
  r.minor_gcs <- r.minor_gcs + (g1.minor_collections - g0.minor_collections);
  r.major_gcs <- r.major_gcs + (g1.major_collections - g0.major_collections);
  r.promoted_bytes <- r.promoted_bytes +. ((g1.promoted_words -. g0.promoted_words) *. word);
  x

(* Take [ns] off phase [name]: a wait at the phase's end that is reported
   on its own. *)
let trim r name ns =
  r.phases <- List.map (fun p -> if p.name = name then { p with ns = p.ns - ns } else p) r.phases

let digest r line = r.digest <- line :: r.digest

let check r name ok = r.checks <- (name, ok) :: r.checks

let layer r name v = r.layers <- (name, v) :: r.layers

let note r line = r.notes <- line :: r.notes

(* Close the rep: the accumulating lists back into run order. *)
let finish r =
  r.digest <- List.rev r.digest;
  r.checks <- List.rev r.checks;
  r.notes <- List.rev r.notes;
  r

let phase_named r name = List.find (fun p -> p.name = name) r.phases

let host_seconds r = Clock.seconds_of_ns (List.fold_left (fun a p -> a + p.ns) 0 r.phases)

(* The rep's timed phases as seconds at the reference speed ([Speed]),
   against the mean of all their reference kernels: one speed for the rep,
   which averages out a single kernel's jitter. *)
let ref_seconds r =
  let sum f = List.fold_left (fun a p -> a + f p) 0 r.phases in
  Speed.seconds ~ns:(sum (fun p -> p.ns)) ~ref_ns:(sum (fun p -> p.ref_ns) / List.length r.phases)

let digest_md5 r = Digest.to_hex (Digest.string (String.concat "\n" r.digest))

(* ratio that reads 0 when the layer did no work *)
let per a b = if b = 0. then 0. else a /. b

let per_i a b = per (float_of_int a) (float_of_int b)
