type policy = Fifo_per_cpu | Sol | Gshinjuku

let agent_cpu policy ~nr_cpus =
  match policy with Fifo_per_cpu -> None | Sol | Gshinjuku -> Some (nr_cpus - 1)

type t = {
  ops : Kernsim.Sched_class.kernel_ops;
  policy : policy;
  queues : int Ds.Deque.t array; (* per-cpu for Fifo_per_cpu; index 0 global otherwise *)
  running : int array; (* pid our pick put on each cpu, -1 for none *)
  agent : int; (* the global agent's dedicated core, -1 for per-CPU agents *)
  workers : int list; (* cpus the policy schedules user tasks on *)
  ready : bool array; (* a decision is available for this cpu *)
  pending : bool array; (* a request is with the agent *)
  tasks : (int, Kernsim.Task.t) Hashtbl.t;
  mutable rr : int;
  mutable agent_free_at : int; (* global agent serialization point *)
  assigned : (int, int) Hashtbl.t; (* per-CPU FIFO: sticky pid -> cpu *)
}

let is_global t = t.policy <> Fifo_per_cpu

let queue_for t cpu = if is_global t then t.queues.(0) else t.queues.(cpu)

let agent_latency t =
  match t.policy with
  | Fifo_per_cpu -> t.ops.costs.ghost_agent_local
  | Sol | Gshinjuku -> t.ops.costs.ghost_agent_remote

(* every event is a message on the shared queue to the agent; a global
   agent additionally processes messages one at a time, so bursts queue *)
let msg_cost t ~cpu = t.ops.charge ~cpu t.ops.costs.ghost_msg

(* the first idle cpu of a list, -1 for none *)
let rec first_idle t = function
  | [] -> -1
  | c :: rest -> if t.ops.cpu_is_idle c then c else first_idle t rest

let select_task_rq t (task : Kernsim.Task.t) ~waker_cpu =
  msg_cost t ~cpu:waker_cpu;
  let candidates =
    match task.affinity with
    | None -> t.workers
    | Some _ -> List.filter (Kernsim.Task.allowed_cpu task) t.workers
  in
  match candidates with
  | [] -> waker_cpu
  | cands -> (
    match t.policy with
    | Fifo_per_cpu -> (
      (* per-CPU model: tasks belong to one cpu's queue; wakeups return
         there no matter what is running (no work stealing, no preemption) *)
      match Hashtbl.find t.assigned task.pid with
      | c when List.mem c cands -> c
      | _ | (exception Not_found) ->
        t.rr <- t.rr + 1;
        let c = List.nth cands (t.rr mod List.length cands) in
        Hashtbl.replace t.assigned task.pid c;
        c)
    | Sol | Gshinjuku -> (
      (* prefer an idle worker core, else round-robin *)
      match first_idle t cands with
      | -1 ->
        t.rr <- t.rr + 1;
        List.nth cands (t.rr mod List.length cands)
      | c -> c))

let enqueue t (task : Kernsim.Task.t) ~cpu =
  Ds.Deque.push_back (queue_for t cpu) task.pid;
  Hashtbl.replace t.tasks task.pid task

let remove_pid t pid =
  let f p = p = pid in
  for q = 0 to Array.length t.queues - 1 do
    ignore (Ds.Deque.remove_first t.queues.(q) ~f)
  done

let task_new t (task : Kernsim.Task.t) ~cpu =
  enqueue t task ~cpu;
  (match t.policy with
  | Gshinjuku -> t.ops.set_timer ~cpu:(max 0 (min cpu (t.ops.nr_cpus - 1))) Shinjuku.default_slice
  | Fifo_per_cpu | Sol -> ())

(* start a decision round-trip through the agent for [cpu]; a global
   agent serves one request at a time, so concurrent cpus queue behind
   [agent_free_at] *)
let kick_agent t ~cpu =
  if (not t.pending.(cpu)) && not t.ready.(cpu) then begin
    t.pending.(cpu) <- true;
    let latency = agent_latency t in
    let delay =
      match t.policy with
      | Fifo_per_cpu ->
        (* the per-CPU agent is scheduled and runs on this very core *)
        t.ops.charge ~cpu t.ops.costs.ghost_agent_burn;
        latency
      | Sol | Gshinjuku ->
        (* the global agent burns its dedicated core, serially *)
        if t.agent >= 0 then t.ops.charge ~cpu:t.agent latency;
        let now = t.ops.now () in
        let start = max now t.agent_free_at in
        t.agent_free_at <- start + latency;
        t.agent_free_at - now
    in
    t.ops.defer ~delay (fun () ->
        t.pending.(cpu) <- false;
        t.ready.(cpu) <- true;
        t.ops.resched_cpu cpu)
  end

let task_wakeup t (task : Kernsim.Task.t) ~cpu ~waker_cpu =
  msg_cost t ~cpu:waker_cpu;
  enqueue t task ~cpu;
  (* a per-CPU agent picks the wakeup message off its own core's queue
     right away, overlapping the decision with the wakeup IPI *)
  if t.policy = Fifo_per_cpu && t.running.(cpu) < 0 then kick_agent t ~cpu

let task_blocked t (task : Kernsim.Task.t) ~cpu =
  msg_cost t ~cpu;
  if t.running.(cpu) = task.pid then t.running.(cpu) <- -1;
  remove_pid t task.pid

let requeue t (task : Kernsim.Task.t) ~cpu =
  msg_cost t ~cpu;
  if t.running.(cpu) = task.pid then t.running.(cpu) <- -1;
  remove_pid t task.pid;
  enqueue t task ~cpu

let task_dead t (task : Kernsim.Task.t) ~cpu =
  msg_cost t ~cpu;
  Array.iteri (fun c r -> if r = task.pid then t.running.(c) <- -1) t.running;
  remove_pid t task.pid;
  Hashtbl.remove t.tasks task.pid

(* the asynchronous upcall: no decision ready means the core goes idle
   until the agent answers.  The Shinjuku agent instead keeps a committed
   transaction ready per cpu (it runs hot on its dedicated core), so its
   picks pay a commit cost rather than a blocking round trip. *)
(* -1 = no task (the int-encoded Sched_class convention) *)
let pick_next_task t ~cpu =
  if cpu = t.agent then -1
  else if t.policy = Gshinjuku || t.ready.(cpu) then begin
    if t.policy = Gshinjuku then begin
      (* commit the agent's transaction: cost on this core, plus the agent
         core burns continuously while transactions flow *)
      t.ops.charge ~cpu (2 * t.ops.costs.ghost_msg);
      if t.agent >= 0 then t.ops.charge ~cpu:t.agent t.ops.costs.ghost_agent_remote
    end;
    t.ready.(cpu) <- false;
    match Ds.Deque.remove_first (queue_for t cpu) ~f:(fun pid ->
              match Hashtbl.find t.tasks pid with
              | task -> task.cpu = cpu && task.state = Kernsim.Task.Runnable
              | exception Not_found -> false)
    with
    | Some pid ->
      t.running.(cpu) <- pid;
      (match t.policy with
      | Gshinjuku -> t.ops.set_timer ~cpu Shinjuku.default_slice
      | Fifo_per_cpu | Sol -> ());
      pid
    | None -> -1
  end
  else begin
    if Ds.Deque.length (queue_for t cpu) > 0 then kick_agent t ~cpu;
    -1
  end

(* pull the global queue head onto this run-queue (the agent's placement
   decision being applied by the kernel); -1 = nothing to pull *)
let balance t ~cpu =
  if cpu = t.agent then -1
  else if t.policy <> Gshinjuku && not t.ready.(cpu) then -1
  else if is_global t then
    match Ds.Deque.peek_front t.queues.(0) with
    | Some pid -> (
      match Hashtbl.find_opt t.tasks pid with
      | Some task
        when task.cpu <> cpu && task.state = Kernsim.Task.Runnable
             && Kernsim.Task.allowed_cpu task cpu
             && t.running.(task.cpu) >= 0 ->
        pid
      | Some _ | None -> -1)
    | None -> -1
  else -1

let task_tick t ~cpu ~queued =
  ignore queued;
  match t.policy with
  | Gshinjuku ->
    if queued && Ds.Deque.length (queue_for t cpu) > 0 then t.ops.resched_cpu cpu
  | Fifo_per_cpu | Sol -> ()

let factory policy : Kernsim.Sched_class.factory =
 fun ops ->
  let nq = match policy with Fifo_per_cpu -> ops.nr_cpus | Sol | Gshinjuku -> 1 in
  let agent = Option.value ~default:(-1) (agent_cpu policy ~nr_cpus:ops.nr_cpus) in
  let t =
    {
      ops;
      policy;
      queues = Array.init nq (fun _ -> Ds.Deque.create ());
      running = Array.make ops.nr_cpus (-1);
      agent;
      (* the global agent's core is dedicated to the agent *)
      workers = List.filter (fun c -> c <> agent) (List.init ops.nr_cpus Fun.id);
      ready = Array.make ops.nr_cpus false;
      pending = Array.make ops.nr_cpus false;
      tasks = Hashtbl.create 64;
      rr = 0;
      agent_free_at = 0;
      assigned = Hashtbl.create 64;
    }
  in
  let name =
    match policy with
    | Fifo_per_cpu -> "ghost-fifo"
    | Sol -> "ghost-sol"
    | Gshinjuku -> "ghost-shinjuku"
  in
  {
    Kernsim.Sched_class.name;
    select_task_rq = (fun task ~waker_cpu -> select_task_rq t task ~waker_cpu);
    task_new = (fun task ~cpu -> task_new t task ~cpu);
    task_wakeup = (fun task ~cpu ~waker_cpu -> task_wakeup t task ~cpu ~waker_cpu);
    task_blocked = (fun task ~cpu -> task_blocked t task ~cpu);
    task_yield = (fun task ~cpu -> requeue t task ~cpu);
    task_preempt = (fun task ~cpu -> requeue t task ~cpu);
    task_dead = (fun task ~cpu -> task_dead t task ~cpu);
    task_departed = (fun task ~cpu -> task_dead t task ~cpu);
    task_tick = (fun ~cpu ~queued -> task_tick t ~cpu ~queued);
    pick_next_task = (fun ~cpu -> pick_next_task t ~cpu);
    balance = (fun ~cpu -> balance t ~cpu);
    balance_err = (fun _ ~cpu:_ -> ());
    migrate_task_rq = (fun _ ~from_cpu:_ ~to_cpu:_ -> ());
    task_prio_changed = (fun _ -> ());
    task_affinity_changed = (fun _ -> ());
    deliver_hint = (fun _ _ -> ());
  }
