(* Timing wrappers around the layers' public entry points.  Each wrapper
   opens a span on entry and closes it on return and changes nothing else,
   so a wrapped machine dispatches exactly the events of an unwrapped one —
   the workloads prove it by comparing simulated digests. *)

module C = Kernsim.Sched_class

(* Every hook of a scheduler class, timed as one span kind. *)
let wrap_class sp kind (factory : C.factory) : C.factory =
 fun kops ->
  let c = factory kops in
  let enter () = Spans.enter sp kind and leave () = Spans.leave sp in
  {
    c with
    select_task_rq =
      (fun task ~waker_cpu ->
        enter ();
        let r = c.select_task_rq task ~waker_cpu in
        leave ();
        r);
    task_new =
      (fun task ~cpu ->
        enter ();
        c.task_new task ~cpu;
        leave ());
    task_wakeup =
      (fun task ~cpu ~waker_cpu ->
        enter ();
        c.task_wakeup task ~cpu ~waker_cpu;
        leave ());
    task_blocked =
      (fun task ~cpu ->
        enter ();
        c.task_blocked task ~cpu;
        leave ());
    task_yield =
      (fun task ~cpu ->
        enter ();
        c.task_yield task ~cpu;
        leave ());
    task_preempt =
      (fun task ~cpu ->
        enter ();
        c.task_preempt task ~cpu;
        leave ());
    task_dead =
      (fun task ~cpu ->
        enter ();
        c.task_dead task ~cpu;
        leave ());
    task_departed =
      (fun task ~cpu ->
        enter ();
        c.task_departed task ~cpu;
        leave ());
    task_tick =
      (fun ~cpu ~queued ->
        enter ();
        c.task_tick ~cpu ~queued;
        leave ());
    pick_next_task =
      (fun ~cpu ->
        enter ();
        let r = c.pick_next_task ~cpu in
        leave ();
        r);
    balance =
      (fun ~cpu ->
        enter ();
        let r = c.balance ~cpu in
        leave ();
        r);
    balance_err =
      (fun task ~cpu ->
        enter ();
        c.balance_err task ~cpu;
        leave ());
    migrate_task_rq =
      (fun task ~from_cpu ~to_cpu ->
        enter ();
        c.migrate_task_rq task ~from_cpu ~to_cpu;
        leave ());
    task_prio_changed =
      (fun task ->
        enter ();
        c.task_prio_changed task;
        leave ());
    task_affinity_changed =
      (fun task ->
        enter ();
        c.task_affinity_changed task;
        leave ());
    deliver_hint =
      (fun task hint ->
        enter ();
        c.deliver_hint task hint;
        leave ());
  }

(* A scheduler module with every trait function bracketed by [enter] and
   [leave], wrapped the way [Fault.Inject] wraps one.  [name] is kept, so
   record logs and reports are unchanged.  Construction ([create],
   [reregister_init]) is module load, not a scheduling call, and is left
   untimed. *)
let timed ~enter ~leave (module S : Enoki.Sched_trait.S) : (module Enoki.Sched_trait.S) =
  (module struct
    type t = S.t

    let name = S.name

    let create = S.create

    let get_policy = S.get_policy

    let pick_next_task t ~cpu ~curr ~curr_runtime =
      enter ();
      let r = S.pick_next_task t ~cpu ~curr ~curr_runtime in
      leave ();
      r

    let pnt_err t ~cpu ~pid ~err ~sched =
      enter ();
      S.pnt_err t ~cpu ~pid ~err ~sched;
      leave ()

    let task_dead t ~pid =
      enter ();
      S.task_dead t ~pid;
      leave ()

    let task_blocked t ~pid ~runtime ~cpu =
      enter ();
      S.task_blocked t ~pid ~runtime ~cpu;
      leave ()

    let task_wakeup t ~pid ~runtime ~waker_cpu ~sched =
      enter ();
      S.task_wakeup t ~pid ~runtime ~waker_cpu ~sched;
      leave ()

    let task_new t ~pid ~runtime ~prio ~sched =
      enter ();
      S.task_new t ~pid ~runtime ~prio ~sched;
      leave ()

    let task_preempt t ~pid ~runtime ~cpu ~sched =
      enter ();
      S.task_preempt t ~pid ~runtime ~cpu ~sched;
      leave ()

    let task_yield t ~pid ~runtime ~cpu ~sched =
      enter ();
      S.task_yield t ~pid ~runtime ~cpu ~sched;
      leave ()

    let task_departed t ~pid ~cpu =
      enter ();
      let r = S.task_departed t ~pid ~cpu in
      leave ();
      r

    let task_affinity_changed t ~pid ~allowed =
      enter ();
      S.task_affinity_changed t ~pid ~allowed;
      leave ()

    let task_prio_changed t ~pid ~prio =
      enter ();
      S.task_prio_changed t ~pid ~prio;
      leave ()

    let task_tick t ~cpu ~queued =
      enter ();
      S.task_tick t ~cpu ~queued;
      leave ()

    let select_task_rq t ~pid ~waker_cpu ~allowed =
      enter ();
      let r = S.select_task_rq t ~pid ~waker_cpu ~allowed in
      leave ();
      r

    let migrate_task_rq t ~pid ~sched =
      enter ();
      let r = S.migrate_task_rq t ~pid ~sched in
      leave ();
      r

    let balance t ~cpu =
      enter ();
      let r = S.balance t ~cpu in
      leave ();
      r

    let balance_err t ~cpu ~pid ~sched =
      enter ();
      S.balance_err t ~cpu ~pid ~sched;
      leave ()

    let reregister_prepare = S.reregister_prepare

    let reregister_init = S.reregister_init

    let parse_hint t ~pid ~hint =
      enter ();
      S.parse_hint t ~pid ~hint;
      leave ()
  end)

(* [Setup.build] for an unobserved machine, with every scheduler class and
   the Enoki policy wrapped.  The class list is exactly the one
   [Setup.build] assembles, so the machine behaves identically. *)
let build ~topology ~cls ~policy (kind : Workloads.Setup.kind) : Workloads.Setup.built =
  Schedulers.Hints.register_codecs ();
  Enoki.Lock.set_trace_tap None;
  let cfs = cls `Cfs (Kernsim.Cfs.factory ()) in
  let machine classes = Kernsim.Machine.create ~topology ~classes () in
  match kind with
  | Cfs ->
    { machine = machine [ cfs ]; policy = 0; cfs_policy = 0; enoki = None; agent_core = None;
      registry = None }
  | Enoki_sched m ->
    let enoki = Enoki.Enoki_c.create ~policy:0 (policy m) in
    { machine = machine [ cls `Enoki_c (Enoki.Enoki_c.factory enoki); cfs ]; policy = 0;
      cfs_policy = 1; enoki = Some enoki; agent_core = None; registry = None }
  | Ghost p ->
    { machine = machine [ cls `Ghost_sim (Schedulers.Ghost_sim.factory p); cfs ]; policy = 0;
      cfs_policy = 1; enoki = None;
      agent_core = Schedulers.Ghost_sim.agent_cpu p ~nr_cpus:(Kernsim.Topology.nr_cpus topology);
      registry = None }
