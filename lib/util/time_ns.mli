(** Simulation time, in integer nanoseconds.

    All simulator clocks and event timestamps use this module. Using an
    integer representation keeps event ordering exact and the simulation
    deterministic (no floating point drift between platforms). *)

type t = int
(** An absolute instant, in nanoseconds since simulation start. *)

type span = int
(** A duration in nanoseconds. *)

val zero : t

val ns : int -> span
val us : int -> span
val ms : int -> span
val sec : int -> span

val of_sec_f : float -> span
(** [of_sec_f s] converts a duration in (possibly fractional) seconds. *)

val to_sec_f : t -> float
(** [to_sec_f t] is [t] expressed in seconds, for reporting. *)

val to_ms_f : t -> float

val add : t -> span -> t
val diff : t -> t -> span

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints a human-friendly rendering, e.g. ["1.250ms"]. *)
