(* The metric catalogue: every name the benchmark prints, with its unit.
   BENCHMARK.json lists the same names and units; the test suite checks the
   two agree. *)

type metric = { name : string; unit : string }

let m name unit = { name; unit }

(* Printed by every untraced run (--trace 0), for every workload.
   - ops_per_s: completed operations per second of the timed phases, the
     median over the run's reps.  Seconds are host seconds at the reference
     speed ([Speed]): each phase is counted in reference kernels timed
     right before and after it, and one kernel counts as 1 ms.  The plain
     host-second figure is printed as text (ops_per_host_s).
     pipe: one wakeup; fleet: one completed request; replay: one scheduler
     call carried through record -> parse -> replay, the replay phase
     ending at the last call's return (the watchdog wait after it is
     replay.tail_ms).
   - alloc_bytes_per_op: Gc.allocated_bytes over the timed phases, per op.
   - peak_rss_mb: the process's peak resident set.
   - setup_s: time of the set-up calls before the first simulated event
     (pipe: Setup.build for every cell; fleet: Fleet.create; replay: the
     recorder and the machine), in seconds at the reference speed like
     ops_per_s: the median over bursts of set-ups spread across the run.
   - ok_pct: 100 - fail_pct, operations that did not fail as a share of
     those attempted (pipe: wakeups of completed cells; fleet: offered
     requests neither dropped nor rejected; replay: calls without a
     mismatch or a dropped record entry).  Printed as a share that is never
     0, so a relative bound applies; fail_pct itself is printed as text. *)
let end_to_end =
  [
    m "ops_per_s" "1/s";
    m "alloc_bytes_per_op" "B";
    m "peak_rss_mb" "MB";
    m "setup_s" "s";
    m "ok_pct" "%";
  ]

(* Printed by every traced run (--trace 1); a layer that a workload does not
   exercise, or that this benchmark cannot reach from outside on it, reads
   0 there.  Each group names the end-to-end metric, and the workload, that
   a change in it should move. *)
let per_layer =
  [
    (* kernsim (Sim, Machine, Cfs, Timer_wheel) -> ops_per_s on pipe and
       fleet; self time and allocation -> ops_per_s and alloc_bytes_per_op
       on pipe.  Self = Pipe_bench.run minus time inside class hooks. *)
    m "kernsim.events_per_op" "count";
    m "kernsim.self_ns_per_event" "ns";
    m "kernsim.alloc_b_per_event" "B";
    m "cfs.self_ns_per_call" "ns";
    (* core.enoki_c -> ops_per_s and alloc_bytes_per_op on pipe;
       violations (wasted picks) -> ok_pct on pipe.  Self = time in the
       Enoki_c class hooks minus time in the wrapped policy. *)
    m "enoki_c.crossings_per_op" "count";
    m "enoki_c.self_ns_per_crossing" "ns";
    m "enoki_c.alloc_b_per_crossing" "B";
    m "enoki_c.violations" "count";
    (* schedulers -> ops_per_s on pipe, and on replay for wfq (there: the
       policy's time under its lock inside run_entries) *)
    m "sched.wfq.self_ns_per_call" "ns";
    m "sched.wfq.alloc_b_per_call" "B";
    m "sched.shinjuku.self_ns_per_call" "ns";
    m "sched.shinjuku.alloc_b_per_call" "B";
    m "sched.locality.self_ns_per_call" "ns";
    m "sched.locality.alloc_b_per_call" "B";
    m "ghost_sim.self_ns_per_call" "ns";
    (* core.record -> ops_per_s on replay; dropped -> ops_per_s,
       peak_rss_mb and ok_pct on replay *)
    m "record.ns_per_entry" "ns";
    m "record.wire_b_per_entry" "B";
    m "record.dropped" "count";
    (* core.replay -> ops_per_s and peak_rss_mb on replay.  wait = replay
       wall time minus policy time minus tail: thread hand-off and
       lock-order admission.  tail = last call's return to run_entries'
       return, the watchdog's 50 ms sleep quantum. *)
    m "replay.parse_ns_per_entry" "ns";
    m "replay.parse_alloc_b_per_entry" "B";
    m "replay.policy_ns_per_call" "ns";
    m "replay.wait_ns_per_call" "ns";
    m "replay.tail_ms" "ms";
    m "replay.threads" "count";
    (* cluster -> ops_per_s and ok_pct on fleet.  traffic = Traffic.create
       plus next_window run alone over the fleet's tenants and duration;
       step figures time each Fleet.step (300 per rep). *)
    m "traffic.ns_per_request" "ns";
    m "traffic.alloc_b_per_request" "B";
    m "fleet.steps" "count";
    m "fleet.step_us_p50" "us";
    m "fleet.step_us_p96" "us";
    m "fleet.step_ns_per_event" "ns";
    m "fleet.drop_pct" "%";
    (* runtime: Gc.quick_stat deltas around the untraced timed phases ->
       ops_per_s and peak_rss_mb on every workload *)
    m "gc.minor_per_op" "count";
    m "gc.major_collections" "count";
    m "gc.promoted_b_per_op" "B";
    m "gc.top_heap_mb" "MB";
    (* traced against untraced time of the same reps, at the reference
       speed *)
    m "trace.overhead_pct" "%";
  ]

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> x.unit
  | None -> invalid_arg ("Names.unit_of: unknown metric " ^ name)
