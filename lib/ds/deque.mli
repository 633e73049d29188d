(** Resizable double-ended queues.

    The Enoki WFQ scheduler keeps a deque of waiting tasks per core: the
    owner pushes and pops at the back, and an idle core steals from the
    front of the longest queue (§4.2.1 of the paper). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit

val push_front : 'a t -> 'a -> unit

val pop_back : 'a t -> 'a option

val pop_front : 'a t -> 'a option

val peek_front : 'a t -> 'a option

val peek_back : 'a t -> 'a option

(** Remove the first (oldest) element equal to [x] under [eq]; returns
    whether something was removed.  O(n): a scan, then the gap closes in
    place inside the ring, moving the shorter side. *)
val remove : 'a t -> eq:('a -> 'a -> bool) -> 'a -> bool

(** Remove and return the first (oldest) element satisfying [f].  O(n),
    in place like {!remove}; allocates nothing. *)
val remove_first : 'a t -> f:('a -> bool) -> 'a option

(** Front-to-back order. *)
val to_list : 'a t -> 'a list

val iter : ('a -> unit) -> 'a t -> unit

val exists : ('a -> bool) -> 'a t -> bool

val clear : 'a t -> unit
