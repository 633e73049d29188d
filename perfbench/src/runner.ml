(* The run procedure, shaped by the host noise this benchmark has to live
   with on a small shared box:

   - Reps in one process are not independent: a pipe rep slows by a quarter
     as the major heap grows.  So every timed rep starts from a compacted
     heap, after one untimed warm-up rep.
   - The host changes speed from moment to moment: a piece of fleet work
     takes twice as long in one second as in the next, and a slow stretch
     can outlast a 30 s run, so neither the fastest nor the median host
     time of a run holds still from run to run.  So every timed phase and
     every set-up is counted in reference kernels timed right before and
     after it ([Speed]), and a run reports the median over its reps.  Plain
     host seconds are printed beside them as text.
   - Nothing runs in parallel: one domain, fleet hosts stepped in place,
     replay on two threads, and run.py pins the process to one CPU.
   - Set-up is timed on its own from a compacted heap, in a burst of a few
     set-ups before every rep, so that the samples span the run; the figure
     is their median. *)

type workload = {
  name : string;
  about : string list;  (** loop type, rate, seeding: printed with the results *)
  setup_once : unit -> unit -> unit;
      (** make every set-up call of one rep; returns how to release what was
          built (not timed) *)
  rep : traced:bool -> Rep.t;
  check_run : (string * (unit -> Rep.t)) option;
      (** an untimed output check, run once after the timed reps, with its
          label: fleet on a held-out seed, pipe at Table 3's own size *)
}

(* set-ups timed before each rep, the warm-up included *)
let setup_burst = 5

let min_reps = 3

let now_s () = Clock.seconds_of_ns (Clock.now_ns ())

(* One set-up from a compacted heap, as (seconds at the reference speed,
   host seconds). *)
let setup_sample w =
  Gc.compact ();
  let ref0 = Speed.sample_ns () in
  let t0 = Clock.now_ns () in
  let release = w.setup_once () in
  let t1 = Clock.now_ns () in
  let ref1 = Speed.sample_ns () in
  release ();
  (Speed.seconds ~ns:(t1 - t0) ~ref_ns:((ref0 + ref1) / 2), Clock.seconds_of_ns (t1 - t0))

(* A burst of set-ups goes into [samples]; then one rep from a compacted
   heap. *)
let fresh_rep ?samples w ~traced =
  Option.iter
    (fun acc -> acc := List.init setup_burst (fun _ -> setup_sample w) @ !acc)
    samples;
  Gc.compact ();
  w.rep ~traced

let med f reps = Host.median (List.map f reps)

(* A rep's seconds at the reference speed, median over [reps]. *)
let rep_seconds reps = med Rep.ref_seconds reps

let reps_line reps =
  Printf.sprintf
    "per rep, median: %.6f s at the reference speed, %.6f host s; reference kernel %.0f ns"
    (rep_seconds reps) (med Rep.host_seconds reps)
    (Host.median
       (List.concat_map
          (fun (r : Rep.t) -> List.map (fun (p : Rep.phase) -> float_of_int p.ref_ns) r.phases)
          reps))

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  lines : string list;  (** human-readable report, printed before the result *)
}

let checks_pass label (r : Rep.t) =
  let failed_checks = List.filter (fun (_, ok) -> not ok) r.checks in
  ( failed_checks = [],
    List.map (fun (c, _) -> Printf.sprintf "FAILED check (%s): %s" label c) failed_checks )

(* What every rep must show: passing output checks, and the same simulated
   outputs as the reference rep. *)
let verify ~(reference : Rep.t) label (r : Rep.t) =
  let ok, lines = checks_pass label r in
  let same = r.digest = reference.digest in
  ( ok && same,
    lines
    @ if same then [] else [ Printf.sprintf "FAILED: %s digest differs from the reference" label ] )

let digest_lines (r : Rep.t) =
  Printf.sprintf "digest md5=%s" (Rep.digest_md5 r) :: List.map (fun l -> "digest: " ^ l) r.digest

let run_e2e w ~seconds =
  let samples = ref [] in
  let reference = fresh_rep ~samples w ~traced:false in
  let deadline = now_s () +. float_of_int seconds in
  let rec loop acc =
    if List.length acc >= min_reps && now_s () >= deadline then List.rev acc
    else loop (fresh_rep ~samples w ~traced:false :: acc)
  in
  let reps = loop [] in
  let setup_s = Host.median (List.map fst !samples) in
  let peak_rss = Host.peak_rss_mb () in
  let check_run = Option.map (fun (label, f) -> (label, f ())) w.check_run in
  let verdicts =
    verify ~reference "warm-up" reference
    :: List.mapi (fun i r -> verify ~reference (Printf.sprintf "rep %d" (i + 1)) r) reps
    @
    match check_run with
    | Some (label, c) -> [ checks_pass label c ]
    | None -> []
  in
  let attempted = List.fold_left (fun a (r : Rep.t) -> a + r.attempted) 0 reps in
  let failed = List.fold_left (fun a (r : Rep.t) -> a + r.failed) 0 reps in
  let ops = float_of_int reference.ops in
  let secs = rep_seconds reps in
  let fail_pct = 100. *. Rep.per_i failed attempted in
  let metrics =
    [
      ("ops_per_s", ops /. secs);
      ("alloc_bytes_per_op", med (fun (r : Rep.t) -> r.alloc_bytes) reps /. ops);
      ("peak_rss_mb", peak_rss);
      ("setup_s", setup_s);
      ("ok_pct", 100. -. fail_pct);
    ]
  in
  {
    correct = List.for_all fst verdicts;
    attempted;
    failed;
    metrics;
    lines =
      digest_lines reference
      @ [ Printf.sprintf "reps: %d timed after 1 warm-up; %d set-ups in bursts of %d"
          (List.length reps) (List.length !samples) setup_burst;
        reps_line reps;
        Printf.sprintf "ops_per_host_s %.3f; setup host s, median %.6f"
          (ops /. med Rep.host_seconds reps)
          (Host.median (List.map snd !samples));
        Printf.sprintf "fail_pct %.6f %% (%d failed of %d attempted)" fail_pct failed attempted ]
      @ reference.notes
      @ (match check_run with
        | Some (label, c) ->
          List.map (fun l -> label ^ ": " ^ l) (digest_lines c)
          @ List.filter (fun n -> not (List.mem n reference.notes)) c.notes
        | None -> [])
      @ List.concat_map snd verdicts;
  }

let gc_layers ~ops ~top_heap_words (untraced : Rep.t list) =
  let ops = float_of_int ops in
  [
    ("gc.minor_per_op", med (fun (r : Rep.t) -> float_of_int r.minor_gcs) untraced /. ops);
    ("gc.major_collections", med (fun (r : Rep.t) -> float_of_int r.major_gcs) untraced);
    ("gc.promoted_b_per_op", med (fun (r : Rep.t) -> r.promoted_bytes) untraced /. ops);
    ("gc.top_heap_mb", float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  ]

(* The traced run: untraced and traced reps alternate, so the tracing
   overhead compares reps taken in the same host phase.  Per-layer figures
   are medians over the traced reps; GC figures come from the untraced
   ones, which the probes cannot disturb (the peak heap from the untraced
   warm-up). *)
let run_traced w ~seconds =
  let reference = fresh_rep w ~traced:false in
  (* the process's peak major heap so far, before any traced rep or probe
     trial has run: the warm-up rep's peak *)
  let top_heap_words = (Gc.quick_stat ()).top_heap_words in
  let deadline = now_s () +. float_of_int seconds in
  let rec loop acc =
    if acc <> [] && now_s () >= deadline then List.rev acc
    else
      let u = fresh_rep w ~traced:false in
      let t = fresh_rep w ~traced:true in
      loop ((u, t) :: acc)
  in
  let pairs = loop [] in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let verdicts =
    verify ~reference "warm-up" reference
    :: List.concat
         (List.mapi
            (fun i (u, t) ->
              [ verify ~reference (Printf.sprintf "untraced rep %d" (i + 1)) u;
                verify ~reference (Printf.sprintf "traced rep %d" (i + 1)) t ])
            pairs)
  in
  let layer name =
    match List.assoc_opt name (List.hd traced).layers with
    | None -> 0.
    | Some _ -> med (fun (r : Rep.t) -> List.assoc name r.layers) traced
  in
  let overhead = 100. *. ((rep_seconds traced /. rep_seconds untraced) -. 1.) in
  let gc = gc_layers ~ops:reference.ops ~top_heap_words untraced in
  let metrics =
    List.map
      (fun (m : Names.metric) ->
        match m.name with
        | "trace.overhead_pct" -> (m.name, overhead)
        | n when List.mem_assoc n gc -> (n, List.assoc n gc)
        | n -> (n, layer n))
      Names.per_layer
  in
  let attempted = List.fold_left (fun a (r : Rep.t) -> a + r.attempted) 0 traced in
  let failed = List.fold_left (fun a (r : Rep.t) -> a + r.failed) 0 traced in
  {
    correct = List.for_all fst verdicts;
    attempted;
    failed;
    metrics;
    lines =
      digest_lines reference
      @ [ Printf.sprintf "reps: %d untraced/traced pairs after 1 warm-up; traced digests %s"
          (List.length pairs)
          (if List.for_all (fun (t : Rep.t) -> t.digest = reference.digest) traced then
             "equal the untraced ones"
           else "DIFFER from the untraced ones") ]
      @ List.concat_map snd verdicts;
  }

let result_json o =
  let open Metrics.Json in
  to_string
    (Obj
       [
         ("correct", Bool o.correct);
         ("attempted", Int o.attempted);
         ("failed", Int o.failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, v) ->
                  (name, Obj [ ("value", Float v); ("unit", String (Names.unit_of name)) ]))
                o.metrics) );
       ])

let run w ~seconds ~traced =
  let o = if traced then run_traced w ~seconds else run_e2e w ~seconds in
  print_endline (Host.fingerprint ());
  List.iter (fun l -> print_endline ("workload: " ^ l)) w.about;
  List.iter print_endline o.lines;
  List.iter
    (fun (name, v) -> Printf.printf "metric %-34s %16.6f %s\n" name v (Names.unit_of name))
    o.metrics;
  print_endline (result_json o);
  o.correct
