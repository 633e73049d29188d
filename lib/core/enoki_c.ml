module Ops = Kernsim.Sched_class

(* Registry handles for the dispatch boundary, resolved once at [create].
   Per-callback counters are created lazily on first crossing (the call
   vocabulary is small and fixed) and cached by name. *)
type obs = {
  reg : Metrics.Registry.t;
  o_calls : Metrics.Registry.counter;
  o_call_lat : Metrics.Registry.histogram;
  o_panics : Metrics.Registry.counter;
  o_failovers : Metrics.Registry.counter;
  o_overruns : Metrics.Registry.counter;
  o_violations : Metrics.Registry.counter;
  o_per_call : (string, Metrics.Registry.counter) Hashtbl.t;
}

type t = {
  modul : (module Sched_trait.S); (* version registered at load time *)
  policy : int;
  mutable packed : Sched_trait.packed option;
  mutable ops : Ops.kernel_ops option;
  mutable all_cpus : int list; (* [select_task_rq]'s mask for unpinned tasks *)
  (* pid -> latest Schedulable generation, dense (pids are small and
     contiguous).  0 means "no outstanding capability"; minted generations
     start at 1.  [ngens] counts live (non-zero) entries. *)
  mutable gens : int array;
  mutable ngens : int;
  hint_ring : (int * Kernsim.Task.hint) Ds.Ring_buffer.t;
  record : Record.t option;
  tracer : Trace.Tracer.t option;
  obs : obs option;
  profile : Profile.t option;
  mutable calls : int;
  mutable violations : int;
  violation_kinds : (string, int) Hashtbl.t;
  mutable current_tid : int;
  mutable upgrades : Upgrade.stats list;
  mutable readers : int; (* quiescing read-write lock: in-flight calls *)
  (* fault isolation (the paper's "kernel survives module bugs" property) *)
  isolate : bool;
  call_budget : Kernsim.Time.ns option;
  mutable quarantined : (string * Kernsim.Time.ns) option; (* reason, since *)
  mutable fallback : Ops.t option; (* instantiated CFS, while quarantined *)
  mutable panics : int;
  mutable failovers : int;
  mutable overruns : int;
  mutable blackout : Kernsim.Time.ns option; (* quarantine -> first fallback pick *)
  mutable charged_in_call : Kernsim.Time.ns;
  mutable wall_starts : float array; (* profile: host clock at each open call's start *)
  mutable history : (module Sched_trait.S) list; (* superseded versions, newest first *)
}

let create ?(policy = 0) ?record ?tracer ?registry ?profile ?(hint_capacity = 1024)
    ?(isolate = true) ?call_budget modul =
  let obs =
    Option.map
      (fun reg ->
        {
          reg;
          o_calls =
            Metrics.Registry.counter reg ~help:"Enoki-C boundary crossings" "enoki_calls_total";
          o_call_lat =
            Metrics.Registry.histogram reg ~help:"simulated ns charged per boundary crossing"
              "enoki_call_sim_ns";
          o_panics = Metrics.Registry.counter reg ~help:"module panics caught" "enoki_panics_total";
          o_failovers =
            Metrics.Registry.counter reg ~help:"failovers to the CFS fallback"
              "enoki_failovers_total";
          o_overruns =
            Metrics.Registry.counter reg ~help:"per-call budget overruns" "enoki_overruns_total";
          o_violations =
            Metrics.Registry.counter reg ~help:"API discipline violations" "enoki_violations_total";
          o_per_call = Hashtbl.create 16;
        })
      registry
  in
  {
    modul;
    policy;
    packed = None;
    ops = None;
    all_cpus = [];
    gens = Array.make 64 0;
    ngens = 0;
    hint_ring = Ds.Ring_buffer.create ~capacity:hint_capacity;
    record;
    tracer;
    obs;
    profile;
    calls = 0;
    violations = 0;
    violation_kinds = Hashtbl.create 8;
    current_tid = 0;
    upgrades = [];
    readers = 0;
    isolate;
    call_budget;
    quarantined = None;
    fallback = None;
    panics = 0;
    failovers = 0;
    overruns = 0;
    blackout = None;
    charged_in_call = 0;
    wall_starts = Array.make 4 0.0;
    history = [];
  }

let ops_exn t =
  match t.ops with
  | Some ops -> ops
  | None -> invalid_arg "Enoki_c: scheduler module not loaded into a machine yet"

(* Schedtrace emitter: a single match when disabled.  Timestamps come from
   the kernel capability table, so this stays silent until registration. *)
let emit t ~cpu kind =
  match (t.tracer, t.ops) with
  | Some tr, Some (ops : Ops.kernel_ops) -> Trace.Tracer.emit tr ~ts:(ops.now ()) ~cpu kind
  | _ -> ()

let packed_exn t =
  match t.packed with
  | Some p -> p
  | None -> invalid_arg "Enoki_c: scheduler module not loaded into a machine yet"

let scheduler_name t =
  match t.packed with
  | Some (Sched_trait.Packed ((module S), _)) -> S.name
  | None ->
    let (module S : Sched_trait.S) = t.modul in
    S.name

let calls t = t.calls

let violations t = t.violations

let count_violation t kind =
  t.violations <- t.violations + 1;
  Hashtbl.replace t.violation_kinds kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.violation_kinds kind));
  match t.obs with Some o -> Metrics.Registry.incr o.o_violations () | None -> ()

(* Per-callback crossing counter, created on first use of each call name. *)
let per_call_counter o name =
  match Hashtbl.find_opt o.o_per_call name with
  | Some c -> c
  | None ->
    let c =
      Metrics.Registry.counter o.reg ~help:"boundary crossings for one callback"
        ("enoki_call_" ^ name ^ "_total")
    in
    Hashtbl.replace o.o_per_call name c;
    c

let violation_breakdown t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.violation_kinds []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let hints_dropped t = Ds.Ring_buffer.dropped t.hint_ring

let upgrades t = t.upgrades

let previous t = match t.history with m :: _ -> Some m | [] -> None

(* ---------- capabilities ---------- *)

let ensure_gens t pid =
  let n = Array.length t.gens in
  if pid >= n then begin
    let a = Array.make (max (n * 2) (pid + 1)) 0 in
    Array.blit t.gens 0 a 0 n;
    t.gens <- a
  end

(* Bump pid's generation; both minting and invalidation go through here
   (a fresh pid starts at 1, exactly as the hash-table version did). *)
let bump_gen t pid =
  ensure_gens t pid;
  let g = Array.unsafe_get t.gens pid in
  if g = 0 then t.ngens <- t.ngens + 1;
  Array.unsafe_set t.gens pid (g + 1);
  g + 1

let forget_gen t pid =
  if pid < Array.length t.gens then begin
    if Array.unsafe_get t.gens pid <> 0 then t.ngens <- t.ngens - 1;
    Array.unsafe_set t.gens pid 0
  end

let mint t ~pid ~cpu =
  let gen = bump_gen t pid in
  Schedulable.Private.create ~pid ~cpu ~gen

(* Any kernel state transition supersedes outstanding tokens. *)
let invalidate t ~pid = ignore (bump_gen t pid)

let token_valid t token ~cpu =
  Schedulable.is_live token
  && Schedulable.cpu token = cpu
  &&
  let pid = Schedulable.pid token in
  pid < Array.length t.gens
  && Array.unsafe_get t.gens pid = Schedulable.generation token

(* ---------- the crossing ---------- *)

(* Every hook calls the module's trait function directly, between
   [call_begin] and [call_end]: read-lock, charge, call, unlock, record.
   Overheads are charged to the calling cpu's context, modelling the
   100-150 ns per invocation the paper measures.  Neither half allocates:
   the caller keeps the saved charge as an int, and profile start times
   sit in a flat float array indexed by call depth.  [name] is the
   callback's wire name, always a string constant. *)
let call_begin t ~cpu name =
  let ops = ops_exn t in
  ops.charge ~cpu ops.costs.enoki_call;
  (match t.tracer with Some _ -> emit t ~cpu (Trace.Event.Msg_call { name }) | None -> ());
  t.calls <- t.calls + 1;
  (match t.obs with
  | Some o ->
    Metrics.Registry.incr o.o_calls ~cpu ();
    Metrics.Registry.incr (per_call_counter o name) ~cpu ()
  | None -> ());
  t.current_tid <- cpu;
  let depth = t.readers in
  t.readers <- depth + 1;
  let saved = t.charged_in_call in
  t.charged_in_call <- 0;
  (match t.profile with
  | Some _ ->
    if depth >= Array.length t.wall_starts then
      t.wall_starts <- Array.append t.wall_starts (Array.make (depth + 1) 0.0);
    t.wall_starts.(depth) <- Profile.now_wall ()
  | None -> ());
  saved

(* Runs on the exception path too, so a call that both overruns and
   raises is still surfaced. *)
let call_end t ~cpu name saved =
  let ops = ops_exn t in
  t.readers <- t.readers - 1;
  (* the wedged-module detector: compare what the module charged via
     [Ctx.charge] during this call against the per-call budget *)
  let charged = t.charged_in_call in
  t.charged_in_call <- saved;
  (* per-call latency: the fixed crossing cost plus whatever the module
     charged; profile rows add the host wall clock.  Both record into
     plain OCaml state — no simulated time moves. *)
  (match t.obs with
  | Some o -> Metrics.Registry.observe o.o_call_lat ~cpu (ops.costs.enoki_call + charged)
  | None -> ());
  (match t.profile with
  | Some p ->
    Profile.record p ~sched:(scheduler_name t) ~call:name
      ~sim_ns:(ops.costs.enoki_call + charged)
      ~wall_ns:(Profile.now_wall () -. t.wall_starts.(t.readers))
  | None -> ());
  match t.call_budget with
  | Some budget when charged > budget ->
    t.overruns <- t.overruns + 1;
    (match t.obs with Some o -> Metrics.Registry.incr o.o_overruns ~cpu () | None -> ());
    count_violation t "call_budget";
    emit t ~cpu (Trace.Event.Overrun { call = name; charged; budget })
  | Some _ | None -> ()

(* The module raised: close the crossing and re-raise for the isolation
   boundary in [factory] to handle. *)
let call_failed t ~cpu name saved exn =
  let bt = Printexc.get_raw_backtrace () in
  call_end t ~cpu name saved;
  Printexc.raise_with_backtrace exn bt

(* The record tap.  Callers build the {!Message} pair only under
   [Some r], after the call returned, so an unrecorded crossing builds
   neither. *)
let tap t r ~cpu call reply =
  let ops = ops_exn t in
  ops.charge ~cpu ops.costs.record_msg;
  Record.tap_call r ~tid:cpu call reply

(* ---------- scheduler-class hooks ---------- *)

let allowed_of t (task : Kernsim.Task.t) =
  match task.affinity with Some cpus -> cpus | None -> t.all_cpus

let select_task_rq t (task : Kernsim.Task.t) ~waker_cpu =
  let ops = ops_exn t in
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid and allowed = allowed_of t task in
  let name = "select_task_rq" in
  let saved = call_begin t ~cpu:waker_cpu name in
  let cpu =
    try S.select_task_rq st ~pid ~waker_cpu ~allowed
    with exn -> call_failed t ~cpu:waker_cpu name saved exn
  in
  call_end t ~cpu:waker_cpu name saved;
  (match t.record with
  | Some r -> tap t r ~cpu:waker_cpu (Select_task_rq { pid; waker_cpu; allowed }) (R_int cpu)
  | None -> ());
  if cpu >= 0 && cpu < ops.nr_cpus && Kernsim.Task.allowed_cpu task cpu then cpu
  else begin
    (* scheduler chose a cpu the task may not use; fall back *)
    count_violation t "bad_select_cpu";
    emit t ~cpu:waker_cpu (Trace.Event.Pnt_err { pid; err = "bad_select_cpu" });
    match task.affinity with Some (c :: _) -> c | Some [] | None -> waker_cpu
  end

let task_new t (task : Kernsim.Task.t) ~cpu =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid and runtime = task.sum_exec and prio = task.nice in
  let sched = mint t ~pid ~cpu and name = "task_new" in
  let saved = call_begin t ~cpu name in
  (try S.task_new st ~pid ~runtime ~prio ~sched
   with exn -> call_failed t ~cpu name saved exn);
  call_end t ~cpu name saved;
  match t.record with
  | Some r -> tap t r ~cpu (Task_new { pid; runtime; prio; sched }) R_unit
  | None -> ()

let task_wakeup t (task : Kernsim.Task.t) ~cpu ~waker_cpu =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid and runtime = task.sum_exec in
  let sched = mint t ~pid ~cpu and name = "task_wakeup" in
  let saved = call_begin t ~cpu:waker_cpu name in
  (try S.task_wakeup st ~pid ~runtime ~waker_cpu ~sched
   with exn -> call_failed t ~cpu:waker_cpu name saved exn);
  call_end t ~cpu:waker_cpu name saved;
  match t.record with
  | Some r -> tap t r ~cpu:waker_cpu (Task_wakeup { pid; runtime; waker_cpu; sched }) R_unit
  | None -> ()

let task_blocked t (task : Kernsim.Task.t) ~cpu =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid and runtime = task.sum_exec and name = "task_blocked" in
  invalidate t ~pid;
  let saved = call_begin t ~cpu name in
  (try S.task_blocked st ~pid ~runtime ~cpu with exn -> call_failed t ~cpu name saved exn);
  call_end t ~cpu name saved;
  match t.record with
  | Some r -> tap t r ~cpu (Task_blocked { pid; runtime; cpu }) R_unit
  | None -> ()

let task_yield t (task : Kernsim.Task.t) ~cpu =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid and runtime = task.sum_exec in
  let sched = mint t ~pid ~cpu and name = "task_yield" in
  let saved = call_begin t ~cpu name in
  (try S.task_yield st ~pid ~runtime ~cpu ~sched
   with exn -> call_failed t ~cpu name saved exn);
  call_end t ~cpu name saved;
  match t.record with
  | Some r -> tap t r ~cpu (Task_yield { pid; runtime; cpu; sched }) R_unit
  | None -> ()

let task_preempt t (task : Kernsim.Task.t) ~cpu =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid and runtime = task.sum_exec in
  let sched = mint t ~pid ~cpu and name = "task_preempt" in
  let saved = call_begin t ~cpu name in
  (try S.task_preempt st ~pid ~runtime ~cpu ~sched
   with exn -> call_failed t ~cpu name saved exn);
  call_end t ~cpu name saved;
  match t.record with
  | Some r -> tap t r ~cpu (Task_preempt { pid; runtime; cpu; sched }) R_unit
  | None -> ()

let task_dead t (task : Kernsim.Task.t) ~cpu =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid and name = "task_dead" in
  invalidate t ~pid;
  forget_gen t pid;
  let saved = call_begin t ~cpu name in
  (try S.task_dead st ~pid with exn -> call_failed t ~cpu name saved exn);
  call_end t ~cpu name saved;
  match t.record with Some r -> tap t r ~cpu (Task_dead { pid }) R_unit | None -> ()

let task_departed t (task : Kernsim.Task.t) ~cpu =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid and name = "task_departed" in
  let saved = call_begin t ~cpu name in
  let tok = try S.task_departed st ~pid ~cpu with exn -> call_failed t ~cpu name saved exn in
  call_end t ~cpu name saved;
  (match t.record with
  | Some r -> tap t r ~cpu (Task_departed { pid; cpu }) (R_sched_opt tok)
  | None -> ());
  (* the scheduler returns whatever token it held; consume it *)
  Option.iter Schedulable.Private.consume tok;
  invalidate t ~pid;
  forget_gen t pid

let task_tick t ~cpu ~queued =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let name = "task_tick" in
  let saved = call_begin t ~cpu name in
  (try S.task_tick st ~cpu ~queued with exn -> call_failed t ~cpu name saved exn);
  call_end t ~cpu name saved;
  match t.record with Some r -> tap t r ~cpu (Task_tick { cpu; queued }) R_unit | None -> ()

(* A rejected pick: wrong core, stale or forged token.  Ownership goes
   back to the module via pnt_err, the recoverable path the Schedulable
   design exists for. *)
let pnt_err t ~cpu token err =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = Schedulable.pid token and sched = Some token and name = "pnt_err" in
  count_violation t err;
  emit t ~cpu (Trace.Event.Pnt_err { pid; err });
  let saved = call_begin t ~cpu name in
  (try S.pnt_err st ~cpu ~pid ~err ~sched with exn -> call_failed t ~cpu name saved exn);
  call_end t ~cpu name saved;
  (match t.record with
  | Some r -> tap t r ~cpu (Pnt_err { cpu; pid; err; sched }) R_unit
  | None -> ());
  -1

(* Int-encoded Sched_class boundary: the module's option/token reply is
   what the record tap sees, but what crosses into the machine's
   per-schedule hot path is a plain pid or -1. *)
let pick_next_task t ~cpu =
  let ops = ops_exn t in
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let name = "pick_next_task" in
  let saved = call_begin t ~cpu name in
  let picked =
    try S.pick_next_task st ~cpu ~curr:None ~curr_runtime:0
    with exn -> call_failed t ~cpu name saved exn
  in
  call_end t ~cpu name saved;
  (match t.record with
  | Some r ->
    tap t r ~cpu (Pick_next_task { cpu; curr = None; curr_runtime = 0 }) (R_sched_opt picked)
  | None -> ());
  match picked with
  | None -> -1
  | Some token ->
    if token_valid t token ~cpu then begin
      let pid = Schedulable.pid token in
      (* the token checks out against our generation table; re-validate
         against the kernel's own task state before letting the pid reach
         the core scheduler, so a bogus reply can never crash the machine *)
      match ops.find_task pid with
      | Some task when task.state = Kernsim.Task.Runnable && task.cpu = cpu ->
        Schedulable.Private.consume token;
        invalidate t ~pid;
        pid
      | Some _ | None -> pnt_err t ~cpu token "not_runnable"
    end
    else
      pnt_err t ~cpu token
        (if not (Schedulable.is_live token) then "consumed"
         else if Schedulable.cpu token <> cpu then "wrong_cpu"
         else "stale_generation")

let balance t ~cpu =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let name = "balance" in
  let saved = call_begin t ~cpu name in
  let pid = try S.balance st ~cpu with exn -> call_failed t ~cpu name saved exn in
  call_end t ~cpu name saved;
  (match t.record with Some r -> tap t r ~cpu (Balance { cpu }) (R_pid_opt pid) | None -> ());
  match pid with Some p -> p | None -> -1

let balance_err t (task : Kernsim.Task.t) ~cpu =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid and name = "balance_err" in
  let saved = call_begin t ~cpu name in
  (try S.balance_err st ~cpu ~pid ~sched:None with exn -> call_failed t ~cpu name saved exn);
  call_end t ~cpu name saved;
  match t.record with
  | Some r -> tap t r ~cpu (Balance_err { cpu; pid; sched = None }) R_unit
  | None -> ()

let migrate_task_rq t (task : Kernsim.Task.t) ~from_cpu ~to_cpu =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid in
  let sched = mint t ~pid ~cpu:to_cpu and name = "migrate_task_rq" in
  let saved = call_begin t ~cpu:to_cpu name in
  let old =
    try S.migrate_task_rq st ~pid ~sched with exn -> call_failed t ~cpu:to_cpu name saved exn
  in
  call_end t ~cpu:to_cpu name saved;
  (match t.record with
  | Some r -> tap t r ~cpu:to_cpu (Migrate_task_rq { pid; from_cpu; sched }) (R_sched_opt old)
  | None -> ());
  (* the scheduler returns the superseded token; consume whatever it gave *)
  Option.iter Schedulable.Private.consume old

let task_prio_changed t (task : Kernsim.Task.t) =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid and prio = task.nice and cpu = task.cpu and name = "task_prio_changed" in
  let saved = call_begin t ~cpu name in
  (try S.task_prio_changed st ~pid ~prio with exn -> call_failed t ~cpu name saved exn);
  call_end t ~cpu name saved;
  match t.record with
  | Some r -> tap t r ~cpu (Task_prio_changed { pid; prio }) R_unit
  | None -> ()

let task_affinity_changed t (task : Kernsim.Task.t) =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let pid = task.pid and allowed = allowed_of t task and cpu = task.cpu in
  let name = "task_affinity_changed" in
  let saved = call_begin t ~cpu name in
  (try S.task_affinity_changed st ~pid ~allowed
   with exn -> call_failed t ~cpu name saved exn);
  call_end t ~cpu name saved;
  match t.record with
  | Some r -> tap t r ~cpu (Task_affinity_changed { pid; allowed }) R_unit
  | None -> ()

let parse_hint t ~cpu ~pid hint =
  let (Sched_trait.Packed ((module S), st)) = packed_exn t in
  let name = "parse_hint" in
  let saved = call_begin t ~cpu name in
  (try S.parse_hint st ~pid ~hint with exn -> call_failed t ~cpu name saved exn);
  call_end t ~cpu name saved;
  match t.record with Some r -> tap t r ~cpu (Parse_hint { pid; hint }) R_unit | None -> ()

(* User hints go through the shared ring, then Enoki-C synchronously drains
   it into parse_hint calls (the enter_queue protocol of §3.3). *)
let deliver_hint t (task : Kernsim.Task.t) hint =
  if Ds.Ring_buffer.push t.hint_ring (task.pid, hint) then
    List.iter
      (fun (pid, hint) -> parse_hint t ~cpu:task.cpu ~pid hint)
      (Ds.Ring_buffer.drain t.hint_ring)

(* ---------- registration ---------- *)

let make_ctx t (ops : Ops.kernel_ops) : Ctx.t =
  {
    nr_cpus = ops.nr_cpus;
    policy = t.policy;
    now = ops.now;
    set_timer = (fun ~cpu d -> ops.set_timer ~cpu d);
    cancel_timer = (fun ~cpu -> ops.cancel_timer ~cpu);
    resched = (fun ~cpu -> ops.resched_cpu cpu);
    send_user = (fun ~pid hint -> ops.send_user ~pid hint);
    charge =
      (fun ~cpu ns ->
        (* module compute time: account it on the core and against the
           per-call budget (the infinite-loop stand-in of the fault plan) *)
        t.charged_in_call <- t.charged_in_call + ns;
        ops.charge ~cpu ns);
    log = (fun _ -> ());
    registry = Option.map (fun o -> o.reg) t.obs;
    trace = (fun ~cpu kind -> emit t ~cpu kind);
  }

(* ---------- isolation: quarantine and fallback (ghOSt-style) ---------- *)

let fallback_name = "cfs-fallback"

let fallback_exn t =
  match t.fallback with
  | Some fb -> fb
  | None ->
    let fb = Kernsim.Cfs.factory () (ops_exn t) in
    t.fallback <- Some fb;
    fb

(* A module exception was caught at the dispatch boundary.  First panic
   flips the class into quarantine: instantiate the built-in CFS fallback,
   re-home the policy's runnable tasks into it from the kernel's own task
   list, charge the failover pause everywhere and kick every cpu.  [skip]
   is the task the failed hook was about — the caller re-delegates that
   hook to the fallback, which introduces the task without double-queueing
   it. *)
let quarantine t ~cpu ?skip ~call exn =
  let ops = ops_exn t in
  t.panics <- t.panics + 1;
  (match t.obs with Some o -> Metrics.Registry.incr o.o_panics ~cpu () | None -> ());
  let reason = Printexc.to_string exn in
  emit t ~cpu (Trace.Event.Panic { call; reason });
  match t.quarantined with
  | Some _ -> fallback_exn t
  | None ->
    t.quarantined <- Some (reason, ops.now ());
    t.failovers <- t.failovers + 1;
    (match t.obs with Some o -> Metrics.Registry.incr o.o_failovers ~cpu () | None -> ());
    t.blackout <- None;
    count_violation t "panic";
    emit t ~cpu (Trace.Event.Failover { fallback = fallback_name });
    let fb = fallback_exn t in
    (* Running tasks reach the fallback at their next deschedule and
       blocked ones at wakeup; CFS tolerates pids it has not seen *)
    List.iter
      (fun (task : Kernsim.Task.t) ->
        if task.state = Kernsim.Task.Runnable && Some task.pid <> skip then
          fb.task_new task ~cpu:task.cpu)
      (ops.live_tasks ~policy:t.policy);
    for c = 0 to ops.nr_cpus - 1 do
      ops.charge ~cpu:c ops.costs.failover;
      ops.resched_cpu c
    done;
    fb

let rec arm_record_drain t (ops : Ops.kernel_ops) r =
  ops.defer ~delay:(Kernsim.Time.us 100) (fun () ->
      Record.drain r;
      arm_record_drain t ops r)

let factory t : Kernsim.Sched_class.factory =
 fun ops ->
  if t.ops <> None then invalid_arg "Enoki_c: scheduler already registered";
  t.ops <- Some ops;
  t.all_cpus <- List.init ops.nr_cpus Fun.id;
  (* module load: construct the scheduler against the safe context *)
  Lock.reset_ids ();
  (match t.tracer with
  | Some _ ->
    Lock.set_trace_tap
      (Some
         (fun op ~lock_id ->
           match op with
           | Lock.Acquire -> emit t ~cpu:t.current_tid (Trace.Event.Lock_acquire { lock_id })
           | Lock.Release -> emit t ~cpu:t.current_tid (Trace.Event.Lock_release { lock_id })
           | Lock.Create -> ()))
  | None -> ());
  (match t.record with
  | Some r ->
    Lock.set_record_mode ~sink:(Record.tap_lock r) ~tid:(fun () -> t.current_tid);
    arm_record_drain t ops r
  | None -> ());
  let (module S : Sched_trait.S) = t.modul in
  let st = S.create (make_ctx t ops) in
  t.packed <- Some (Sched_trait.Packed ((module S), st));
  (* Every hook runs under the isolation boundary: when quarantined, route
     straight to the fallback; otherwise run the module and, with
     [isolate], convert anything it raises into quarantine + failover
     instead of letting it unwind the core scheduler.  [skip] is the task
     the failed hook was about (see [quarantine]). *)
  {
    Kernsim.Sched_class.name = "enoki:" ^ S.name;
    select_task_rq =
      (fun task ~waker_cpu ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).select_task_rq task ~waker_cpu
        | None -> (
          try select_task_rq t task ~waker_cpu
          with exn when t.isolate ->
            let fb = quarantine t ~cpu:waker_cpu ~skip:task.pid ~call:"select_task_rq" exn in
            fb.select_task_rq task ~waker_cpu));
    task_new =
      (fun task ~cpu ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).task_new task ~cpu
        | None -> (
          try task_new t task ~cpu
          with exn when t.isolate ->
            let fb = quarantine t ~cpu ~skip:task.pid ~call:"task_new" exn in
            fb.task_new task ~cpu));
    task_wakeup =
      (fun task ~cpu ~waker_cpu ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).task_wakeup task ~cpu ~waker_cpu
        | None -> (
          try task_wakeup t task ~cpu ~waker_cpu
          with exn when t.isolate ->
            let fb = quarantine t ~cpu ~skip:task.pid ~call:"task_wakeup" exn in
            fb.task_wakeup task ~cpu ~waker_cpu));
    task_blocked =
      (fun task ~cpu ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).task_blocked task ~cpu
        | None -> (
          try task_blocked t task ~cpu
          with exn when t.isolate ->
            let fb = quarantine t ~cpu ~skip:task.pid ~call:"task_blocked" exn in
            fb.task_blocked task ~cpu));
    task_yield =
      (fun task ~cpu ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).task_yield task ~cpu
        | None -> (
          try task_yield t task ~cpu
          with exn when t.isolate ->
            let fb = quarantine t ~cpu ~skip:task.pid ~call:"task_yield" exn in
            fb.task_yield task ~cpu));
    task_preempt =
      (fun task ~cpu ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).task_preempt task ~cpu
        | None -> (
          try task_preempt t task ~cpu
          with exn when t.isolate ->
            let fb = quarantine t ~cpu ~skip:task.pid ~call:"task_preempt" exn in
            fb.task_preempt task ~cpu));
    task_dead =
      (fun task ~cpu ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).task_dead task ~cpu
        | None -> (
          try task_dead t task ~cpu
          with exn when t.isolate ->
            let fb = quarantine t ~cpu ~skip:task.pid ~call:"task_dead" exn in
            fb.task_dead task ~cpu));
    task_departed =
      (fun task ~cpu ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).task_departed task ~cpu
        | None -> (
          try task_departed t task ~cpu
          with exn when t.isolate ->
            let fb = quarantine t ~cpu ~skip:task.pid ~call:"task_departed" exn in
            fb.task_departed task ~cpu));
    task_tick =
      (fun ~cpu ~queued ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).task_tick ~cpu ~queued
        | None -> (
          try task_tick t ~cpu ~queued
          with exn when t.isolate ->
            let fb = quarantine t ~cpu ~call:"task_tick" exn in
            fb.task_tick ~cpu ~queued));
    pick_next_task =
      (fun ~cpu ->
        let picked =
          match t.quarantined with
          | Some _ -> (fallback_exn t).pick_next_task ~cpu
          | None -> (
            try pick_next_task t ~cpu
            with exn when t.isolate ->
              let fb = quarantine t ~cpu ~call:"pick_next_task" exn in
              fb.pick_next_task ~cpu)
        in
        (if picked >= 0 then
           match (t.quarantined, t.blackout) with
           | Some (_, since), None ->
             (* first successful dispatch after failover closes the blackout *)
             t.blackout <- Some (ops.now () - since)
           | _ -> ());
        picked);
    balance =
      (fun ~cpu ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).balance ~cpu
        | None -> (
          try balance t ~cpu
          with exn when t.isolate ->
            let fb = quarantine t ~cpu ~call:"balance" exn in
            fb.balance ~cpu));
    balance_err =
      (fun task ~cpu ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).balance_err task ~cpu
        | None -> (
          try balance_err t task ~cpu
          with exn when t.isolate ->
            let fb = quarantine t ~cpu ~skip:task.pid ~call:"balance_err" exn in
            fb.balance_err task ~cpu));
    migrate_task_rq =
      (fun task ~from_cpu ~to_cpu ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).migrate_task_rq task ~from_cpu ~to_cpu
        | None -> (
          try migrate_task_rq t task ~from_cpu ~to_cpu
          with exn when t.isolate ->
            let fb = quarantine t ~cpu:to_cpu ~skip:task.pid ~call:"migrate_task_rq" exn in
            fb.migrate_task_rq task ~from_cpu ~to_cpu));
    task_prio_changed =
      (fun task ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).task_prio_changed task
        | None -> (
          try task_prio_changed t task
          with exn when t.isolate ->
            let fb = quarantine t ~cpu:task.cpu ~skip:task.pid ~call:"task_prio_changed" exn in
            fb.task_prio_changed task));
    task_affinity_changed =
      (fun task ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).task_affinity_changed task
        | None -> (
          try task_affinity_changed t task
          with exn when t.isolate ->
            let fb = quarantine t ~cpu:task.cpu ~skip:task.pid ~call:"task_affinity_changed" exn in
            fb.task_affinity_changed task));
    deliver_hint =
      (fun task hint ->
        match t.quarantined with
        | Some _ -> (fallback_exn t).deliver_hint task hint
        | None -> (
          try deliver_hint t task hint
          with exn when t.isolate ->
            let fb = quarantine t ~cpu:task.cpu ~skip:task.pid ~call:"parse_hint" exn in
            fb.deliver_hint task hint));
  }

(* ---------- live upgrade (§3.2) ---------- *)

(* Rebuild the incoming module's world view from the kernel's own task
   list: introduce every runnable task of the policy with a fresh token.
   Running tasks reach the module at their next deschedule and blocked
   ones at wakeup, mirroring how the machine defers policy changes for
   running tasks. *)
let readopt t (ops : Ops.kernel_ops) =
  List.iter
    (fun (task : Kernsim.Task.t) ->
      if task.state = Kernsim.Task.Runnable then task_new t task ~cpu:task.cpu)
    (ops.live_tasks ~policy:t.policy)

let upgrade t (module New : Sched_trait.S) =
  match t.ops with
  | None -> Error (Invalid_argument "Enoki_c: not registered")
  | Some ops -> (
    let (Sched_trait.Packed ((module Old), old_st)) = packed_exn t in
    (* acquire the per-scheduler lock in write mode: in the simulator all
       calls are instantaneous, so quiescing is immediate *)
    assert (t.readers = 0);
    let tasks_carried = t.ngens in
    let was_quarantined = t.quarantined <> None in
    match
      (* prepare in the old version, init in the new one, swap the pointer.
         A quarantined module's exported state is not trusted — the Rex
         argument: recover from kernel ground truth, not from the crashed
         extension's heap — and a panic inside prepare itself degrades to
         a stateless handoff instead of aborting the upgrade. *)
      let transfer =
        if was_quarantined then None
        else
          try Old.reregister_prepare old_st with
          | Upgrade.Incompatible _ as e -> raise e
          | _ -> None
      in
      let new_st = New.reregister_init (make_ctx t ops) transfer in
      (transfer, new_st)
    with
    | transfer, new_st ->
      t.history <- (module Old : Sched_trait.S) :: t.history;
      t.packed <- Some (Sched_trait.Packed ((module New), new_st));
      (* the write lock was held while both reregister calls ran; model
         that blackout by delaying every cpu's next dispatch *)
      let pause =
        ops.costs.upgrade_base
        + (ops.costs.upgrade_per_cpu * ops.nr_cpus)
        + (ops.costs.upgrade_per_task * tasks_carried)
      in
      for cpu = 0 to ops.nr_cpus - 1 do
        ops.charge ~cpu pause
      done;
      let stats = { Upgrade.pause; transferred = Option.is_some transfer; tasks_carried } in
      t.upgrades <- stats :: t.upgrades;
      (* leaving quarantine (or a stateless handoff): discard the fallback
         instance and re-introduce the kernel's tasks to the new module *)
      if was_quarantined || Option.is_none transfer then begin
        t.quarantined <- None;
        t.fallback <- None;
        (try readopt t ops
         with exn ->
           (* the incoming module panicked during re-adoption *)
           if t.isolate then ignore (quarantine t ~cpu:0 ~call:"reregister_init" exn)
           else raise exn);
        for cpu = 0 to ops.nr_cpus - 1 do
          ops.resched_cpu cpu
        done
      end;
      Ok stats
    | exception e ->
      (* [Incompatible] or any panic out of the new module's init: the old
         version stays registered, the write lock is released *)
      Error e)

(* Watchdog-driven recovery: re-register the previous scheduler version.
   On success both the failed version and its predecessor leave the
   history (the predecessor is current again). *)
let rollback t =
  match t.history with
  | [] -> Error (Invalid_argument "Enoki_c: no previous scheduler version to roll back to")
  | m :: rest -> (
    match upgrade t m with
    | Ok stats ->
      t.history <- rest;
      Ok stats
    | Error _ as e -> e)

(* ---------- fault-isolation counters ---------- *)

(* declared last: the field labels would otherwise shadow [t]'s *)
type failover_stats = {
  panics : int;
  failovers : int;
  overruns : int;
  quarantined : (string * Kernsim.Time.ns) option;
  blackout : Kernsim.Time.ns option;
}

let failover_stats (t : t) =
  {
    panics = t.panics;
    failovers = t.failovers;
    overruns = t.overruns;
    quarantined = t.quarantined;
    blackout = t.blackout;
  }
