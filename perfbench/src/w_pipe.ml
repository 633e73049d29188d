(* Workload [pipe]: the paper's Table 3 sched-pipe matrix, as [bench
   table3] runs it (one_socket, same-core and two-core columns, plus the
   Arachne user-level row).  A closed loop of two tasks per cell; seed-free
   and deterministic.

   The matrix is checked at Table 3's own size, 50k messages per cell, once
   per run: every cell completes, and its us/wakeup give sim_err_pct.  The
   timed reps run the same 14 cells at 5k messages.  A 50k cell lasts up to
   0.45 s on a 2-vCPU host, through several of the host's changes of speed;
   a 5k cell lasts 1-30 ms, so it runs at much the same speed as the
   reference kernels timed right before and after it ([Speed]).

   The Enoki crossing and the policies do most of the host work here;
   record, replay and the cluster tier do none. *)

module Setup = Workloads.Setup

type how = Kind of Setup.kind | Userlevel

(* Table 3's rows with the paper's (one core, two cores) us/wakeup — the
   same values [bench table3] prints in its "(paper)" columns. *)
let rows =
  [
    ("cfs", Kind Setup.Cfs, (3.0, 3.6));
    ("ghost-sol", Kind (Setup.Ghost Schedulers.Ghost_sim.Sol), (6.0, 5.8));
    ("ghost-fifo", Kind (Setup.Ghost Schedulers.Ghost_sim.Fifo_per_cpu), (9.1, 7.0));
    ("wfq", Kind (Setup.Enoki_sched (module Schedulers.Wfq)), (3.6, 4.0));
    ("shinjuku", Kind (Setup.Enoki_sched (module Schedulers.Shinjuku)), (4.0, 4.4));
    ("locality", Kind (Setup.Enoki_sched (module Schedulers.Locality)), (3.5, 3.9));
    ("arachne", Userlevel, (0.1, 0.2));
  ]

let table_messages = 50_000

let timed_messages = 5_000

let topology = Kernsim.Topology.one_socket

(* cells in table order: each row's one-core cell, then its two-core cell *)
let cells =
  List.concat_map
    (fun (name, how, (p1, p2)) -> [ (name, how, true, p1); (name, how, false, p2) ])
    rows

let cell_label name same_core = name ^ if same_core then "/one-core" else "/two-core"

let kind_of = function Kind k -> k | Userlevel -> Setup.Cfs

let run_cell how b ~same_core ~messages =
  match how with
  | Kind _ -> Workloads.Pipe_bench.run b ~same_core ~messages ()
  | Userlevel -> Workloads.Pipe_bench.run_userlevel b ~same_core ~messages ()

(* span kinds of the traced run *)
let kinds =
  [| "kernsim"; "cfs"; "enoki_c"; "ghost_sim"; "sched.wfq"; "sched.shinjuku"; "sched.locality" |]

let k_kernsim = 0

let k_class = function `Cfs -> 1 | `Enoki_c -> 2 | `Ghost_sim -> 3

let k_sched name =
  match name with
  | "wfq" -> 4
  | "shinjuku" -> 5
  | "locality" -> 6
  | n -> invalid_arg ("W_pipe: no span kind for scheduler " ^ n)

let setup_once () =
  List.iter (fun (_, how, _, _) -> ignore (Setup.build ~topology (kind_of how))) cells;
  ignore

(* Table 3 prints each cell to two decimals; the error is taken over those
   printed cells so it equals what a reader computes from that table. *)
let sim_err_pct us_per_wakeup =
  let errs =
    List.map2
      (fun (_, _, _, paper) us ->
        let printed = float_of_string (Printf.sprintf "%.2f" us) in
        Float.abs (printed -. paper) /. paper)
      cells us_per_wakeup
  in
  100. *. List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs)

(* The 14 cells at [messages] per cell; [table] adds sim_err_pct, which
   only Table 3's own size may be compared with the paper. *)
let matrix ~messages ~table ~traced =
  let r = Rep.create () in
  let sp = Spans.create kinds in
  let events = ref 0 and crossings = ref 0 and violations = ref 0 in
  let build how =
    let kind = kind_of how in
    if not traced then Setup.build ~topology kind
    else
      Probe.build ~topology kind
        ~cls:(fun c f -> Probe.wrap_class sp (k_class c) f)
        ~policy:(fun (module S : Enoki.Sched_trait.S) ->
          let k = k_sched S.name in
          Probe.timed (module S)
            ~enter:(fun () -> Spans.enter sp k)
            ~leave:(fun () -> Spans.leave sp))
  in
  let us =
    List.map
      (fun (name, how, same_core, _) ->
        let label = cell_label name same_core in
        let b = build how in
        let res =
          Rep.phase r label (fun () ->
              if traced then Spans.enter sp k_kernsim;
              let res = run_cell how b ~same_core ~messages in
              if traced then Spans.leave sp;
              res)
        in
        let ev = Kernsim.Machine.events_dispatched b.machine in
        events := !events + ev;
        Option.iter
          (fun e ->
            crossings := !crossings + Enoki.Enoki_c.calls e;
            violations := !violations + Enoki.Enoki_c.violations e)
          b.enoki;
        r.ops <- r.ops + res.wakeups;
        r.attempted <- r.attempted + res.wakeups;
        if not res.completed then r.failed <- r.failed + res.wakeups;
        Rep.check r (label ^ " completed") res.completed;
        Rep.digest r
          (Printf.sprintf "%s us_per_wakeup=%.17g wakeups=%d events=%d" label
             res.us_per_wakeup res.wakeups ev);
        res.us_per_wakeup)
      cells
  in
  if table then begin
    let err = sim_err_pct us in
    Rep.digest r (Printf.sprintf "sim_err_pct=%.17g" err);
    Rep.note r
      (Printf.sprintf
         "sim_err_pct %.4f %% (mean |ours - paper| / paper over the %d Table-3 cells)" err
         (List.length us))
  end;
  if traced then begin
    let t = Spans.total sp and cost = Spans.probe_cost () in
    let self_ns k = Spans.self_ns_net sp k cost
    and self_b k = float_of_int (t k).self_words *. Rep.word
    and count k = float_of_int (t k).count in
    let ev = float_of_int !events and cr = float_of_int !crossings in
    let ops = float_of_int r.ops in
    Rep.layer r "kernsim.events_per_op" (Rep.per ev ops);
    Rep.layer r "kernsim.self_ns_per_event" (Rep.per (self_ns k_kernsim) ev);
    Rep.layer r "kernsim.alloc_b_per_event" (Rep.per (self_b k_kernsim) ev);
    Rep.layer r "cfs.self_ns_per_call" (Rep.per (self_ns 1) (count 1));
    Rep.layer r "enoki_c.crossings_per_op" (Rep.per cr ops);
    Rep.layer r "enoki_c.self_ns_per_crossing" (Rep.per (self_ns 2) cr);
    Rep.layer r "enoki_c.alloc_b_per_crossing" (Rep.per (self_b 2) cr);
    Rep.layer r "enoki_c.violations" (float_of_int !violations);
    Rep.layer r "ghost_sim.self_ns_per_call" (Rep.per (self_ns 3) (count 3));
    List.iter
      (fun s ->
        let k = k_sched s in
        Rep.layer r ("sched." ^ s ^ ".self_ns_per_call") (Rep.per (self_ns k) (count k));
        Rep.layer r ("sched." ^ s ^ ".alloc_b_per_call") (Rep.per (self_b k) (count k)))
      [ "wfq"; "shinjuku"; "locality" ];
    Rep.check r "spans closed" (Spans.depth sp = 0)
  end;
  Rep.finish r

let rep ~traced = matrix ~messages:timed_messages ~table:false ~traced

let table_check () = matrix ~messages:table_messages ~table:true ~traced:false
