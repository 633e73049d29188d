(* The repo benchmark.  One run measures one workload for --seconds and
   prints, as its last line, a JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics with --trace 0,
   the per-layer ones with --trace 1.  Exit 0 only when every output check
   passed; 1 on a failed check; 2 on bad arguments.

     python3 perfbench/run.py --workload pipe --seed 1 --seconds 30 --trace 0

   run.py builds this executable and runs it pinned to one CPU. *)

open Perfbench

(* scratch space for the replay log, inside the working directory *)
let tmp_dir = ".perfbench-tmp"

let with_tmp_dir f =
  if not (Sys.file_exists tmp_dir) then Sys.mkdir tmp_dir 0o755;
  Fun.protect f ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat tmp_dir n)) (Sys.readdir tmp_dir);
      Sys.rmdir tmp_dir)

let workload (c : Cli.t) : Runner.workload =
  match c.workload with
  | Cli.Pipe ->
    { name = "pipe";
      about =
        [ Printf.sprintf
            "pipe: Table 3 sched-pipe matrix, 14 cells on one_socket; timed at %d messages per \
             cell, checked once at Table 3's %d"
            W_pipe.timed_messages W_pipe.table_messages;
          "closed loop of 2 tasks per cell; seed-free and deterministic (--seed is ignored)" ];
      setup_once = W_pipe.setup_once;
      rep = W_pipe.rep;
      check_run =
        Some (Printf.sprintf "table3 size (%d messages)" W_pipe.table_messages, W_pipe.table_check)
    }
  | Cli.Fleet ->
    let holdout_seed = Workloads.Setup.workload_seed ~seed:c.seed "perfbench-holdout" in
    { name = "fleet";
      about =
        [ Printf.sprintf
            "fleet: %d built-in CFS hosts, least-outstanding LB, standard_mix %.0f kreq/s, %d \
             connection slots, %d ms simulated"
            W_fleet.nr_hosts W_fleet.load_kreqs W_fleet.connections (W_fleet.duration / 1_000_000);
          Printf.sprintf "open loop in simulated time; root seed %d (held-out check seed %d)"
            c.seed holdout_seed ];
      setup_once = W_fleet.setup_once ~seed:c.seed;
      rep = W_fleet.rep ~seed:c.seed;
      check_run =
        Some
          ( Printf.sprintf "held-out seed %d" holdout_seed,
            fun () -> W_fleet.rep ~seed:holdout_seed ~traced:false ) }
  | Cli.Replay ->
    { name = "replay";
      about =
        [ Printf.sprintf
            "replay: record (2-CPU WFQ sched-pipe, %d messages) -> parse_full -> run_entries"
            W_replay.messages;
          "one closed batch; seed-free and deterministic (--seed is ignored)" ];
      setup_once = W_replay.setup_once ~dir:tmp_dir;
      rep = W_replay.rep ~dir:tmp_dir;
      check_run = None }

let () =
  match Cli.parse (List.tl (Array.to_list Sys.argv)) with
  | Error msg ->
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline Cli.usage;
    exit 2
  | Ok c ->
    let w = workload c in
    Printf.printf "perfbench: workload=%s seed=%d seconds=%d trace=%d\n%!" w.name c.seed c.seconds
      (if c.trace then 1 else 0);
    let ok = with_tmp_dir (fun () -> Runner.run w ~seconds:c.seconds ~traced:c.trace) in
    exit (if ok then 0 else 1)
