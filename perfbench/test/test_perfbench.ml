(* The benchmark's own tests: its printed metric catalogue matches
   BENCHMARK.json, bad arguments are refused with a non-zero exit, and span
   self time is duration minus what the children cover. *)

open Perfbench
module J = Metrics.Json

let benchmark_json () =
  match J.parse_file ~path:"../../BENCHMARK.json" with
  | Ok j -> j
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)

let declared section =
  let j = benchmark_json () in
  match Option.bind (J.member section j) J.to_list with
  | None -> Alcotest.fail ("BENCHMARK.json: no list " ^ section)
  | Some l ->
    List.map
      (fun m ->
        let field k = Option.get (Option.bind (J.member k m) J.to_str) in
        (field "name", field "unit"))
      l

let printed (l : Names.metric list) = List.map (fun (m : Names.metric) -> (m.name, m.unit)) l

let test_catalogue () =
  Alcotest.(check (list (pair string string)))
    "end_to_end" (declared "end_to_end") (printed Names.end_to_end);
  Alcotest.(check (list (pair string string)))
    "per_layer" (declared "per_layer") (printed Names.per_layer)

let test_workloads_declared () =
  let j = benchmark_json () in
  let names =
    List.map
      (fun w -> Option.get (Option.bind (J.member "name" w) J.to_str))
      (Option.get (Option.bind (J.member "workloads" j) J.to_list))
  in
  Alcotest.(check (list string)) "workloads" (List.map fst Cli.workloads) names

let args w seed = [ "--workload"; w; "--seed"; seed; "--seconds"; "1"; "--trace"; "0" ]

let test_parse () =
  let ok a = Result.is_ok (Cli.parse a) in
  Alcotest.(check bool) "well-formed" true (ok (args "fleet" "7"));
  Alcotest.(check bool) "unknown workload" false (ok (args "nope" "7"));
  List.iter
    (fun s -> Alcotest.(check bool) ("seed " ^ s) false (ok (args "pipe" s)))
    [ "x"; "-1"; "1.5"; ""; "0x10"; "+3" ];
  Alcotest.(check bool) "missing flag" false (ok [ "--workload"; "pipe"; "--seed"; "1" ]);
  Alcotest.(check bool) "unknown flag" false (ok (args "pipe" "1" @ [ "--fast"; "1" ]));
  Alcotest.(check bool) "repeated flag" false (ok (args "pipe" "1" @ [ "--seed"; "2" ]));
  Alcotest.(check bool) "trace 2" false
    (ok [ "--workload"; "pipe"; "--seed"; "1"; "--seconds"; "1"; "--trace"; "2" ])

let test_exit_code () =
  let run a =
    Sys.command (String.concat " " ("../bin/main.exe" :: a) ^ " >/dev/null 2>&1")
  in
  Alcotest.(check int) "unknown workload" 2 (run (args "nope" "1"));
  Alcotest.(check int) "malformed seed" 2 (run (args "pipe" "seven"))

(* A hand-built tree, times in ns, allocation in words:

     root  [0, 100)   alloc 50
       a   [10, 40)   alloc 20
         c [15, 25)   alloc 5
       b   [50, 90)   alloc 10
     root2 [200, 210) alloc 1

   Self: root 100-(30+40) = 30, a 30-10 = 20, c 10, b 40, root2 10. *)
let test_self_time () =
  let sp = Spans.create [| "root"; "a"; "b"; "c" |] in
  let enter k ns words = Spans.enter_at sp k ~ns ~words
  and leave ns words = Spans.leave_at sp ~ns ~words in
  enter 0 0 0;
  enter 1 10 0;
  enter 3 15 2;
  leave 25 7;
  leave 40 20;
  enter 2 50 30;
  leave 90 40;
  leave 100 50;
  enter 0 200 50;
  leave 210 51;
  let self k = (Spans.total sp k).self_ns and total k = (Spans.total sp k).total_ns in
  Alcotest.(check int) "closed" 0 (Spans.depth sp);
  Alcotest.(check int) "root self" (30 + 10) (self 0);
  Alcotest.(check int) "root total" 110 (total 0);
  Alcotest.(check int) "root count" 2 (Spans.total sp 0).count;
  Alcotest.(check int) "a self" 20 (self 1);
  Alcotest.(check int) "b self" 40 (self 2);
  Alcotest.(check int) "c self" 10 (self 3);
  Alcotest.(check int) "root self words" (50 - 20 - 10 + 1) (Spans.total sp 0).self_words;
  Alcotest.(check int) "a self words" (20 - 5) (Spans.total sp 1).self_words;
  Alcotest.(check int) "self sums to covered time" (100 + 10)
    (self 0 + self 1 + self 2 + self 3);
  Alcotest.(check int) "root children" 2 (Spans.total sp 0).children;
  Alcotest.(check int) "a children" 1 (Spans.total sp 1).children;
  (* probe cost out: 1 ns inside each span, 2 ns charged per child *)
  let cost = { Spans.inside_ns = 1.; parent_ns = 2. } in
  Alcotest.(check (float 1e-9)) "root net" (40. -. 2. -. 4.) (Spans.self_ns_net sp 0 cost);
  Alcotest.(check (float 1e-9)) "a net" (20. -. 1. -. 2.) (Spans.self_ns_net sp 1 cost);
  Alcotest.(check (float 1e-9)) "net never negative" 0.
    (Spans.self_ns_net sp 3 { Spans.inside_ns = 100.; parent_ns = 0. })

(* An empty span costs the probe a little; it allocates nothing. *)
let test_probe_cost () =
  let c = Spans.probe_cost () in
  Alcotest.(check bool) "non-negative" true (c.inside_ns >= 0. && c.parent_ns >= 0.);
  let sp = Spans.create [| "x" |] in
  Spans.enter sp 0;
  for _ = 1 to 1000 do
    Spans.enter sp 0;
    Spans.leave sp
  done;
  Spans.leave sp;
  Alcotest.(check int) "probes allocate nothing" 0 (Spans.total sp 0).self_words

(* The probes time calls and change nothing else: a wrapped machine runs
   the same simulation as one [Setup.build] assembles. *)
let test_wrappers_do_not_perturb () =
  List.iter
    (fun (name, how, _) ->
      match how with
      | W_pipe.Userlevel -> ()
      | W_pipe.Kind kind ->
        let run (b : Workloads.Setup.built) =
          let r = Workloads.Pipe_bench.run b ~messages:2_000 () in
          ( r.us_per_wakeup,
            Kernsim.Machine.events_dispatched b.machine,
            Option.map Enoki.Enoki_c.calls b.enoki )
        in
        let sp = Spans.create W_pipe.kinds in
        let wrapped =
          Probe.build ~topology:W_pipe.topology kind
            ~cls:(fun c f -> Probe.wrap_class sp (W_pipe.k_class c) f)
            ~policy:(fun m ->
              Probe.timed m ~enter:(fun () -> Spans.enter sp 0) ~leave:(fun () -> Spans.leave sp))
        in
        let plain = run (Workloads.Setup.build ~topology:W_pipe.topology kind) in
        Alcotest.(check bool) (name ^ " identical") true (plain = run wrapped);
        Alcotest.(check int) (name ^ " spans closed") 0 (Spans.depth sp))
    W_pipe.rows

(* The reference kernel leaves the GC's state as it found it, so timing it
   next to a phase cannot change the phase's GC work; and a phase's seconds
   scale with its host time over the kernels' time. *)
let test_reference_kernel () =
  ignore (Speed.kernel ());
  let w0 = Gc.minor_words () in
  let ns = Speed.sample_ns () in
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "kernel allocates nothing" 0. (w1 -. w0);
  Alcotest.(check bool) "kernel takes time" true (ns > 0);
  Alcotest.(check (float 1e-12)) "two kernels' worth" (2. *. float_of_int Speed.nominal_ns /. 1e9)
    (Speed.seconds ~ns:3_000 ~ref_ns:1_500)

let test_unbalanced () =
  let sp = Spans.create [| "x" |] in
  Alcotest.check_raises "leave without enter" (Failure "Spans.leave: no open span") (fun () ->
      Spans.leave sp)

let () =
  Alcotest.run "perfbench"
    [
      ( "catalogue",
        [ Alcotest.test_case "metric names and units match BENCHMARK.json" `Quick test_catalogue;
          Alcotest.test_case "workloads match BENCHMARK.json" `Quick test_workloads_declared ] );
      ( "cli",
        [ Alcotest.test_case "strict argument parsing" `Quick test_parse;
          Alcotest.test_case "bad arguments exit 2" `Quick test_exit_code ] );
      ( "spans",
        [ Alcotest.test_case "self time on a hand-built tree" `Quick test_self_time;
          Alcotest.test_case "unbalanced leave is refused" `Quick test_unbalanced;
          Alcotest.test_case "probe cost and allocation" `Quick test_probe_cost;
          Alcotest.test_case "reference kernel" `Quick test_reference_kernel;
          Alcotest.test_case "wrapped machines run the same simulation" `Quick
            test_wrappers_do_not_perturb ] );
    ]
