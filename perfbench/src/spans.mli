(** Per-layer host-time and allocation attribution from nested spans.

    A span is one call into a layer, timed from the benchmark's side of the
    call: a kind (the layer's name), a start, an end, and the enclosing
    span as its parent.  A span's {e self} time is its duration minus the
    part of it that its child spans cover; self allocation is likewise the
    minor words it allocated minus those its children allocated.

    One Table-3 matrix opens millions of hook-level spans, so spans
    are folded into per-kind totals as they close rather than kept one by
    one: an open span lives on a stack until its [leave], which charges its
    duration to its parent's covered time.  Memory stays flat whatever the
    run length.  Spans must nest (one thread, last opened first closed). *)

type t

(** Per-kind totals. *)
type total = {
  count : int;  (** spans closed *)
  children : int;  (** direct child spans they had *)
  total_ns : int;  (** sum of durations *)
  self_ns : int;  (** sum of self times *)
  self_words : int;  (** minor words allocated outside child spans *)
}

(** [create kinds] makes an aggregator whose span kinds are the indices of
    [kinds] (their names). *)
val create : string array -> t

(** Open a span of kind [k] now. *)
val enter : t -> int -> unit

(** Close the innermost open span now. *)
val leave : t -> unit

(** [enter_at]/[leave_at] take the clock and allocation readings from the
    caller; {!enter}/{!leave} read them from {!Clock}.  Tests drive
    hand-built span trees through these. *)
val enter_at : t -> int -> ns:int -> words:int -> unit

val leave_at : t -> ns:int -> words:int -> unit

(** Totals for kind [k] so far. *)
val total : t -> int -> total

(** Open spans (0 once every span is closed). *)
val depth : t -> int

(** What the probe itself adds to the figures: [inside_ns] per span to the
    span's own self time (clock reads and bookkeeping between its two clock
    readings), and [parent_ns] per child span to the parent's self time
    (the child's bookkeeping outside its own clock readings). *)
type cost = { inside_ns : float; parent_ns : float }

(** Measure {!cost} on this host with empty spans. *)
val probe_cost : unit -> cost

(** Self ns of kind [k] with the probe's own cost taken out (never below 0). *)
val self_ns_net : t -> int -> cost -> float
