(** The semi-naive stratum driver shared by RecStep's interpreter and the
    Souffle-like baseline (paper §4): a base round, then delta rounds for as
    long as some IDB of the stratum has a non-empty Δ.

    The driver knows nothing of how a round evaluates, just as
    {!Rs_exec.Chain.drive} knows nothing of the plans it runs. It owns the
    parts every engine's stratum loop shares: the simulated deadline, the
    iteration count, the [stratum-N]/[iter-N] trace spans, and the per-IDB Δ
    note that feeds both the trace timeline and the caller's
    [on_iteration]. Each engine supplies its rounds, and each round reports
    every IDB's |Δ| through {!note} and returns whether any Δ is left. *)

module Pool = Rs_parallel.Pool

exception Timeout_simulated of float
(** The simulated clock (the payload, in seconds) passed the run's
    deadline. Re-exported as {!Interpreter.Timeout_simulated}. *)

val timeout : Pool.t -> 'a
(** Raise {!Timeout_simulated} at the pool's current simulated time: for an
    engine whose own watchdog tripped first. *)

type t
(** One run's driver state. *)

val create :
  ?trace:Rs_obs.Trace.t ->
  ?on_iteration:(Rs_obs.Trace.iteration -> unit) ->
  ?deadline:float ->
  kind:string ->
  Pool.t ->
  t
(** [kind] is the trace span kind of the stratum and iteration spans;
    iterations are counted on the trace as [kind ^ ".iterations"].
    [deadline] is the simulated-seconds budget of the run. *)

val check_deadline : t -> unit
(** Raise {!Timeout_simulated} if the pool's simulated clock has passed the
    deadline. *)

val iterations : t -> int
(** Rounds counted so far, over every stratum of the run. *)

val count_iteration : t -> unit
(** Count one round. {!run} counts its own; a stratum solved in one step
    outside it (RecStep's PBME) counts itself once. *)

val note : t -> stratum:int -> iteration:int -> string -> int -> unit
(** [note t ~stratum ~iteration idb rows]: the named IDB's Δ after this
    round has [rows] rows. It goes to the trace timeline and to
    [on_iteration], with the simulated time read now. *)

val stratum : t -> int -> (unit -> 'a) -> 'a
(** [stratum t index f] checks the deadline, then runs [f] inside the
    [stratum-index] span. *)

val run : t -> recursive:bool -> base:(unit -> bool) -> delta:(int -> bool) -> unit
(** The loop of one stratum. [base ()] is iteration 0. If [recursive],
    [delta i] runs as iteration [i = 1, 2, ...] for as long as the round
    before returned [true]: some IDB's Δ is non-empty. The deadline is
    checked before each delta round. Every round is counted and runs inside
    its [iter-i] span. *)
