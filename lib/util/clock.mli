(** Wall-clock timing for the measurement substrate. *)

val now : unit -> float
(** Monotonic-enough wall time in seconds (microsecond resolution). *)
