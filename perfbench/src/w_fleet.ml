(* Workload [fleet]: eight built-in-CFS hosts behind the least-outstanding
   balancer, fed the standard_mix tenants fleetgate uses.  An open loop in
   simulated time: arrivals follow the offered rate whatever the hosts do,
   so queues may grow.  The root seed is the benchmark's --seed; the fleet
   derives its traffic, balancer and fault streams from it.

   The cluster tier (Traffic, Lb, Fleet epochs and effect buffers) and
   kernsim under deep run-queues with external ingress do the host work;
   no host loads an Enoki module, so the Enoki crossing does none.  It is
   the control workload for crossing optimisations: there the prediction
   is "no change".  The hosts are run sequentially (no domain pool), so the
   run never has more busy threads than a two-core host. *)

module Fleet = Cluster.Fleet

let nr_hosts = 8

let load_kreqs = 240.

let connections = 256

(* 300 ms keeps a rep near a quarter of a host second, so a 30 s run
   gives the runner's median some 90 reps (30 with 1000 ms). *)
let duration = Kernsim.Time.ms 300

let warmup = Kernsim.Time.ms 100

(* Fleet.create's default epoch; the traffic-only run drains the same
   windows.  duration / epoch = 300 steps, so p96 is the highest step-time
   percentile with ten samples beyond it. *)
let epoch = Kernsim.Time.ms 1

let hosts () =
  let cfs = Option.get (Schedulers.Registry.find "cfs") in
  List.init nr_hosts (fun _ -> cfs)

let tenants () = Cluster.Traffic.standard_mix ~connections ~load_kreqs ()

let create ~seed = Fleet.create ~warmup ~seed ~hosts:(hosts ()) ~tenants:(tenants ()) ()

let setup_once ~seed () =
  ignore (create ~seed);
  ignore

(* The traffic engine alone, over the fleet's tenants and duration: the
   traffic seed is drawn from the root seed exactly as Fleet.create draws
   it, so it emits the fleet's own request stream. *)
let traffic_alone ~seed =
  let traffic_seed = Stats.Prng.next (Stats.Prng.create ~seed) in
  let a0 = Gc.allocated_bytes () in
  let t0 = Clock.now_ns () in
  let tr = Cluster.Traffic.create ~seed:traffic_seed ~start:0 (tenants ()) in
  let clock = ref 0 in
  while !clock < duration do
    clock := min (!clock + epoch) duration;
    ignore (Sys.opaque_identity (Cluster.Traffic.next_window tr ~until:!clock))
  done;
  let ns = Clock.now_ns () - t0 in
  (Cluster.Traffic.requests_emitted tr, ns, Gc.allocated_bytes () -. a0)

(* The simulated run is timed as this many phases of equal simulated
   length, each a whole number of epochs, so the fleet steps exactly as one
   [Fleet.run] would.  Each phase is bracketed by reference kernels
   ([Speed]); a short phase runs at much the same host speed as the
   kernels next to it. *)
let slices = 30

let () = assert (duration / slices mod epoch = 0)

let rep ~seed ~traced =
  let r = Rep.create () in
  let f = create ~seed in
  let steps = ref [] in
  for i = 1 to slices do
    let until = duration * i / slices in
    Rep.phase r (Printf.sprintf "run%02d" i) (fun () ->
        if not traced then Fleet.run f ~until
        else
          while Fleet.clock f < until do
            let t0 = Clock.now_ns () in
            Fleet.step f ~limit:until;
            steps := (Clock.now_ns () - t0) :: !steps
          done)
  done;
  let tenants = Fleet.tenant_stats f in
  let sum g = List.fold_left (fun acc t -> acc + g t) 0 tenants in
  let completed = sum (fun (t : Fleet.tenant_stat) -> t.completed) in
  let failed = sum (fun (t : Fleet.tenant_stat) -> t.dropped + t.rejected) in
  let offered = Cluster.Traffic.requests_emitted (Fleet.traffic f) in
  let events = Fleet.events_dispatched f in
  r.ops <- completed;
  r.attempted <- offered;
  r.failed <- failed;
  Rep.check r "completions above zero" (completed > 0);
  List.iter
    (fun (t : Fleet.tenant_stat) ->
      Rep.digest r
        (Printf.sprintf "tenant %s completed=%d dropped=%d rejected=%d p50=%d p99=%d p999=%d"
           t.tenant t.completed t.dropped t.rejected t.p50 t.p99 t.p999))
    tenants;
  List.iter
    (fun (h : Fleet.host_stat) ->
      Rep.digest r
        (Printf.sprintf "host %d %s completed=%d p99=%d drained=%b quarantined=%b" h.host h.sched
           h.completed h.p99 h.drained h.quarantined))
    (Fleet.host_stats f);
  Rep.digest r (Printf.sprintf "events_dispatched=%d offered=%d" events offered);
  Rep.note r "sim_err_pct n/a: the fleet model has no paper reference (unvalidated)";
  if traced then begin
    let sorted = Array.of_list (List.rev_map float_of_int !steps) in
    Array.sort compare sorted;
    let n = Array.length sorted in
    let step_ns = Array.fold_left ( +. ) 0. sorted in
    let emitted, traffic_ns, traffic_alloc = traffic_alone ~seed in
    Rep.check r "traffic-alone stream matches the fleet's" (emitted = offered);
    let ops = float_of_int completed and ev = float_of_int events in
    Rep.layer r "kernsim.events_per_op" (Rep.per ev ops);
    Rep.layer r "fleet.steps" (float_of_int n);
    Rep.layer r "fleet.step_us_p50" (Host.percentile sorted 50. /. 1e3);
    Rep.check r "ten steps beyond p96" (n >= 250);
    Rep.layer r "fleet.step_us_p96" (Host.percentile sorted 96. /. 1e3);
    Rep.layer r "fleet.step_ns_per_event" (Rep.per step_ns ev);
    Rep.layer r "fleet.drop_pct" (100. *. Rep.per_i failed offered);
    Rep.layer r "traffic.ns_per_request" (Rep.per_i traffic_ns emitted);
    Rep.layer r "traffic.alloc_b_per_request" (Rep.per traffic_alloc (float_of_int emitted))
  end;
  Rep.finish r
