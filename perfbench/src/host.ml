(* What the numbers were measured on, and process-level readings. *)

(* A fixed integer loop, timed in this process.  It is printed beside the
   results as part of the host fingerprint only: it does not track the
   host's slow phases closely enough to normalise by (a pipe rep can take
   twice as long while this loop moves a few percent), so no metric is
   divided by it. *)
let calibration_ns () =
  let run () =
    let x = ref 0x2545F491 in
    for _ = 1 to 2_000_000 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17)
    done;
    !x
  in
  let best = ref max_int in
  for _ = 1 to 5 do
    let t0 = Clock.now_ns () in
    ignore (Sys.opaque_identity (run ()));
    best := min !best (Clock.now_ns () - t0)
  done;
  !best

(* CPUs the host has online, from /proc/cpuinfo where there is one.
   Domain.recommended_domain_count counts only the CPUs this process may
   run on, which is one once the measurement is pinned. *)
let nproc () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec count n =
          match input_line ic with
          | exception End_of_file -> n
          | line -> count (if String.starts_with ~prefix:"processor" line then n + 1 else n)
        in
        count 0)

let fingerprint () =
  Printf.sprintf "host: nproc=%d usable_cpus=%d ocaml=%s os=%s calibration_ns=%d" (nproc ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.os_type (calibration_ns ())

(* Peak resident set (VmHWM) in MB.  Linux-only; elsewhere the GC's peak
   major heap stands in. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
            (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
            | Some kb -> Some (float_of_int kb /. 1024.)
            | None -> scan ())
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Host.median: empty"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))
