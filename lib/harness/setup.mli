(** Equal-cost experiment setups (the paper's Table 1).

    The paper sizes each system's DRAM/NVM so total hardware cost matches:
    Prism gets a 20 GB DRAM cache + 16 GB NVM buffer, KVell a 32 GB DRAM
    cache, MatrixKV a 26 GB cache + 8 GB NVM — against a 100 GB dataset.
    We preserve those *proportions* against the scaled dataset size:
    SVC = 20 %, PWB = 16 %, KVell cache = 32 %, MatrixKV cache = 26 % +
    8 % NVM container. *)

type scenario = {
  records : int;
  value_size : int;
  threads : int;
  num_ssds : int;
  theta : float;
  ops : int;
  scan_ops : int;  (** workload E runs fewer ops (paper: 20 M vs 100 M) *)
  seed : int64;
}

(** Test-sized default: 20 k records of 256 B, 8 threads, 2 SSDs,
    Zipf 0.99. *)
val default_scenario : scenario

(** Dataset bytes of a scenario. *)
val dataset_bytes : scenario -> int

(** Six interleaved Optane DIMMs (the paper's per-socket population):
    Figure 1 latency, 6x a single DIMM's bandwidth. *)
val nvm_array_spec : Prism_device.Spec.t

(** [prism engine s] builds a Prism store with Table 1 proportions;
    [tweak] post-processes the config (ablations, sweeps). Also returns
    the underlying store for component-level statistics. *)
val prism :
  ?tweak:(Prism_core.Config.t -> Prism_core.Config.t) ->
  ?name:string ->
  Prism_sim.Engine.t ->
  scenario ->
  Kv.t * Prism_core.Store.t

(** [prism_hotness engine s] is {!prism} under hotness placement
    ({!Prism_core.Config.hotness}): an NVM value tier is carved and the
    CLOCK policy migrates values across it. The Kv is named
    ["Prism-hotness"] so its metrics don't collide with the static store
    in the same engine. [tweak] runs after the hotness rewrite. *)
val prism_hotness :
  ?tweak:(Prism_core.Config.t -> Prism_core.Config.t) ->
  Prism_sim.Engine.t ->
  scenario ->
  Kv.t * Prism_core.Store.t

val kvell :
  ?queue_depth:int -> Prism_sim.Engine.t -> scenario -> Kv.t

val rocksdb_nvm : Prism_sim.Engine.t -> scenario -> Kv.t

val matrixkv : Prism_sim.Engine.t -> scenario -> Kv.t

(** SLM-DB is single-threaded and was evaluated on a reduced dataset
    (§7.4); the caller passes a suitably reduced scenario. *)
val slmdb : Prism_sim.Engine.t -> scenario -> Kv.t

(** [of_name name] builds the store a command line means by [name]
    (case-insensitive): [prism], [prism-hotness], [kvell], [matrixkv],
    [rocksdb-nvm] (alias [rocksdb]) or [slm-db] (alias [slmdb]). An
    unknown name is an [Error] that lists the known ones. *)
val of_name :
  string -> (Prism_sim.Engine.t -> scenario -> Kv.t, string) result

(** All four multi-threaded contenders of Figure 7, in paper order. *)
val contenders : Prism_sim.Engine.t -> scenario -> Kv.t list

(** Tune the host GC for simulation workloads: a 64 MB minor heap (so the
    short-lived event/continuation garbage dies young) and a relaxed major
    space overhead. Purely a wall-clock optimisation — virtual-time results
    are unaffected. Exposed behind the [--gc-tune] flag of the bench
    executables. *)
val gc_tune : unit -> unit
