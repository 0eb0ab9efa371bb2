(** Experiment driver: runs a YCSB phase against a store inside a
    simulation and collects throughput and latency in virtual time. *)

type result = {
  store : string;
  workload : string;
  ops : int;
  elapsed : float;  (** virtual seconds for the phase *)
  kops : float;  (** throughput, thousand ops per virtual second *)
  latency : Prism_sim.Hist.t;  (** per-operation latency, nanoseconds *)
}

val pp_result : Format.formatter -> result -> unit

(** [load engine kv ~threads ~records ~value_size ~seed] runs the LOAD
    phase: inserts all [records] keys in random order, spread over
    [threads] client processes, then quiesces. *)
val load :
  Prism_sim.Engine.t ->
  Kv.t ->
  threads:int ->
  records:int ->
  value_size:int ->
  seed:int64 ->
  result

(** [run engine kv mix ~threads ~records ~ops ~theta ~value_size ~seed]
    runs [ops] operations of [mix] and returns the measured result.
    [timeline], when given, gets one tick per completed operation (for
    Figure 17). *)
val run :
  ?timeline:Prism_sim.Metric.Timeline.t ->
  Prism_sim.Engine.t ->
  Kv.t ->
  Prism_workload.Ycsb.mix ->
  threads:int ->
  records:int ->
  ops:int ->
  theta:float ->
  value_size:int ->
  seed:int64 ->
  result

(** [calibrate make mix ~threads ~records ~ops ~theta ~value_size ~seed]
    measures a store's closed-loop capacity: on a fresh engine it builds
    the store with [make], instruments it, runs LOAD and then [ops]
    operations of [mix] from [threads] clients. The result's [kops] is
    the saturation throughput and its [latency] the uncontended service
    time. A pure function of its arguments. *)
val calibrate :
  (Prism_sim.Engine.t -> Kv.t) ->
  Prism_workload.Ycsb.mix ->
  threads:int ->
  records:int ->
  ops:int ->
  theta:float ->
  value_size:int ->
  seed:int64 ->
  result

(** Measure the virtual time a store takes to recover after a simulated
    restart ([None] when the store has no recovery hook). *)
val recovery_time : Prism_sim.Engine.t -> Kv.t -> float option
