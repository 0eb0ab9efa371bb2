(** Open-loop arrival processes.

    Each process is a deterministic stream of interarrival gaps drawn from
    its own {!Prism_sim.Rng.t}, so an offered-load sweep replays
    byte-identically from its seed. Rates are requests per virtual second.

    Three shapes cover the regimes the tail-at-scale literature cares
    about:

    - {!poisson}: memoryless baseline — what a very large population of
      independent clients offers.
    - {!mmpp}: two-state Markov-modulated Poisson process — bursty traffic
      that alternates between a quiet and a hot rate, with exponentially
      distributed dwell times. Its interarrival variance exceeds Poisson's
      (squared coefficient of variation > 1), which is what stresses a
      bounded queue.
    - {!diurnal}: nonhomogeneous Poisson whose rate follows a raised-cosine
      day/night curve between [base_rate] and [peak_rate] (generated by
      Lewis–Shedler thinning), for load that ramps through the knee and
      back. *)

type t

(** [poisson ~rate rng]: exponential gaps with mean [1/rate].
    Requires [rate > 0]. *)
val poisson : rate:float -> Prism_sim.Rng.t -> t

(** [mmpp ~rate_low ~rate_high ~dwell_low ~dwell_high rng]: two-state
    MMPP. In the low (high) state arrivals are Poisson at [rate_low]
    ([rate_high]); the state holds for an exponential dwell of mean
    [dwell_low] ([dwell_high]) virtual seconds, then flips. Starts in the
    low state. Requires positive rates and dwells. *)
val mmpp :
  rate_low:float ->
  rate_high:float ->
  dwell_low:float ->
  dwell_high:float ->
  Prism_sim.Rng.t ->
  t

(** [diurnal ~base_rate ~peak_rate ~period rng]: rate at phase [u] of the
    period is [base + (peak - base) * (1 - cos 2*pi*u) / 2] — trough at the
    period's start, peak halfway through. Requires
    [0 < base_rate <= peak_rate] and [period > 0]. *)
val diurnal : base_rate:float -> peak_rate:float -> period:float -> Prism_sim.Rng.t -> t

(** Next interarrival gap, in virtual seconds. Always > 0. *)
val next_gap : t -> float

(** Long-run mean arrival rate — the offered load the process converges
    to: [rate] for Poisson, the dwell-weighted rate for MMPP, the
    time-averaged [(base + peak) / 2] for diurnal. *)
val mean_rate : t -> float

(** Display name: ["poisson"], ["mmpp"] or ["diurnal"]. *)
val name : t -> string

(** [of_name name ~rate ~ops rng] is the named process ([poisson], [mmpp]
    or [diurnal]) with long-run mean [rate], shaped for a run of [ops]
    arrivals: MMPP alternates a quiet 1/4x and a hot 7/4x state with
    ~200-arrival dwells; diurnal ramps between 1/2x and 3/2x over two
    cycles of the run.
    @raise Invalid_argument on any other name. *)
val of_name : string -> rate:float -> ops:int -> Prism_sim.Rng.t -> t

(** [schedule t ~n] draws the next [n] arrivals as absolute virtual times
    (cumulative gaps, starting from [t]'s current position). Consumes the
    stream — primarily for tests and trace stamping. *)
val schedule : t -> n:int -> float array
