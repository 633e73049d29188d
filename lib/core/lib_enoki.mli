(** The libEnoki processing function.

    Parses one per-function message, calls the corresponding scheduler
    function, and writes the return value back into a reply (§3.1).
    Replay drives recorded messages through it.  Live runs skip the
    message and make the same trait call directly ({!Enoki_c}), so the
    identical scheduler code runs in the kernel and at userspace. *)

val process : Sched_trait.packed -> Message.call -> Message.reply
