(* Workload [replay]: one record -> parse -> replay debugging session of a
   WFQ sched-pipe run.  The run is recorded on a 2-CPU topology to a binary
   log on disk, parsed back with [Replay.parse_full], and replayed with
   [Replay.run_entries], which must match every reply.  One closed batch;
   seed-free and deterministic.

   It is the only workload for core.record, core.wire and core.replay, and
   it puts writes (tap, encode, stream) beside reads (decode, replay).  The
   Enoki crossing works only in the record phase.  Two recorded CPUs mean
   two replay threads (plus the replay watchdog), within a two-core host:
   with more threads than cores replay measures the OS scheduler. *)

(* Each phase then lasts 0.1-0.2 s on a 2-vCPU host: a short phase runs at
   much the same host speed as the reference kernels next to it
   ([Speed]). *)
let messages = 10_000

let topology = Kernsim.Topology.create ~cores:2 ~cores_per_llc:2 ~cores_per_node:2

let kind = Workloads.Setup.Enoki_sched (module Schedulers.Wfq)

let log_path dir = Filename.concat dir "replay.rec"

let build ~dir =
  let record = Enoki.Record.create_file ~path:(log_path dir) () in
  (record, Workloads.Setup.build ~record ~topology kind)

let setup_once ~dir () =
  let record, _ = build ~dir in
  fun () -> Enoki.Record.close record

(* Policy time inside [run_entries].  Every WFQ call does its work under
   the scheduler's one lock, so policy work is the time between the lock
   trace tap's Acquire (the thread was admitted in the recorded order) and
   its Release.  The rest of the replay's wall time is thread hand-off and
   admission waiting, plus the tail after the last call returns.  The lock
   serialises the critical sections, and systhreads switch only at
   allocation or poll points, which the straight-line updates below do not
   contain; so the counters need no mutex of their own.

   The tail is the wait for the replay watchdog, which polls in 50 ms
   sleeps: it rounds the replay phase up to the watchdog's next wake-up, so
   a replay a few percent slower can take 50 ms (a quarter of the phase)
   longer.  Untraced reps too wrap the policy to stamp the last call's
   return, and the timed phase ends there; the tail is reported on its own
   as replay.tail_ms.  Counting returns costs one atomic add per call and
   one clock read in all. *)
type call_probe = {
  calls : int Atomic.t;
  expected : int;  (** calls in the log *)
  returns : int Atomic.t;
  mutable last_return : int;
  mutable admit_ns : int;
  mutable admit_words : int;
  mutable busy_ns : int;
  mutable busy_words : int;
}

let call_probe entries =
  let expected =
    List.fold_left
      (fun n -> function Enoki.Replay.Call _ -> n + 1 | Enoki.Replay.Lock_event _ -> n)
      0 entries
  in
  { calls = Atomic.make 0; expected; returns = Atomic.make 0; last_return = 0; admit_ns = 0;
    admit_words = 0; busy_ns = 0; busy_words = 0 }

let probe_enter p () = Atomic.incr p.calls

let probe_leave p () =
  if Atomic.fetch_and_add p.returns 1 = p.expected - 1 then p.last_return <- Clock.now_ns ()

let probe_lock p op ~lock_id:_ =
  match op with
  | Enoki.Lock.Acquire ->
    p.admit_words <- Clock.minor_words ();
    p.admit_ns <- Clock.now_ns ()
  | Enoki.Lock.Release ->
    let now = Clock.now_ns () in
    p.busy_ns <- p.busy_ns + (now - p.admit_ns);
    p.busy_words <- p.busy_words + (Clock.minor_words () - p.admit_words)
  | Enoki.Lock.Create -> ()

let rep ~dir ~traced =
  let r = Rep.create () in
  let record, b = build ~dir in
  let res =
    Rep.phase r "record" (fun () ->
        let res = Workloads.Pipe_bench.run b ~messages () in
        Enoki.Record.close record;
        res)
  in
  let log, entries, info =
    Rep.phase r "parse" (fun () ->
        let log = Enoki.Record.load_file ~path:(log_path dir) in
        let entries, info = Enoki.Replay.parse_full log in
        (log, entries, info))
  in
  let probe = call_probe entries in
  let policy =
    Probe.timed (module Schedulers.Wfq)
      ~enter:(if traced then probe_enter probe else ignore)
      ~leave:(probe_leave probe)
  in
  let report, returned =
    Rep.phase r "replay" (fun () ->
        if traced then Enoki.Lock.set_trace_tap (Some (probe_lock probe));
        let report =
          Fun.protect
            ~finally:(fun () -> Enoki.Lock.set_trace_tap None)
            (fun () -> Enoki.Replay.run_entries policy entries)
        in
        (report, Clock.now_ns ()))
  in
  let tail_ns = if probe.last_return > 0 then returned - probe.last_return else 0 in
  Rep.trim r "replay" tail_ns;
  let recorded = Enoki.Record.length record and dropped = Enoki.Record.dropped record in
  let mismatches = List.length report.mismatches in
  let n_entries = List.length entries in
  let calls = report.total_calls in
  r.ops <- calls;
  r.attempted <- calls;
  r.failed <- mismatches + dropped;
  Rep.check r "pipe run completed" res.completed;
  Rep.check r "zero replay mismatches" (mismatches = 0);
  Rep.check r "entry count equals Record.length" (n_entries = recorded);
  Rep.check r "no dropped events" (dropped = 0 && info.dropped = Some 0);
  Rep.check r "every call returned" (Atomic.get probe.returns = calls && calls = probe.expected);
  Rep.digest r
    (Printf.sprintf "log md5=%s bytes=%d entries=%d calls=%d threads=%d"
       (Digest.to_hex (Digest.string log)) (String.length log) n_entries calls report.threads);
  Rep.note r "sim_err_pct n/a: record/replay has no paper reference here (unvalidated)";
  if traced then begin
    let replay = Rep.phase_named r "replay" and parse = Rep.phase_named r "parse" in
    let record_ns = (Rep.phase_named r "record").ns in
    let wait_ns = replay.ns - probe.busy_ns in
    let busy_per_call = Rep.per_i probe.busy_ns calls in
    let busy_b_per_call = Rep.per (float_of_int probe.busy_words *. Rep.word) (float_of_int calls) in
    let e = float_of_int n_entries in
    Rep.check r "every replayed call was timed" (Atomic.get probe.calls = calls);
    Rep.layer r "record.ns_per_entry" (Rep.per_i record_ns recorded);
    Rep.layer r "record.wire_b_per_entry" (Rep.per_i (String.length log) recorded);
    Rep.layer r "record.dropped" (float_of_int dropped);
    Rep.layer r "replay.parse_ns_per_entry" (Rep.per (float_of_int parse.ns) e);
    Rep.layer r "replay.parse_alloc_b_per_entry" (Rep.per parse.alloc e);
    Rep.layer r "replay.policy_ns_per_call" busy_per_call;
    Rep.layer r "replay.wait_ns_per_call" (Rep.per_i wait_ns calls);
    Rep.layer r "replay.tail_ms" (float_of_int tail_ns /. 1e6);
    Rep.layer r "replay.threads" (float_of_int report.threads);
    Rep.layer r "sched.wfq.self_ns_per_call" busy_per_call;
    Rep.layer r "sched.wfq.alloc_b_per_call" busy_b_per_call
  end;
  Rep.finish r
