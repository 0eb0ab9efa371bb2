(* The check-dpor workload: prism_check's default configuration explored
   by DPOR up to a fixed class budget, plus the checker's phases timed
   apart — seeded schedules ([Explore.run]) and [Linearize.check] on
   histories recorded with [History.wrap]. *)

open Prism_sim
open Prism_harness
open Prism_check
module Ycsb = Prism_workload.Ycsb

(* Classes per DPOR exploration: each explored class holds about 46 MB
   until its exploration ends, so the budget bounds the process's peak. *)
let classes_per_round = 4

(* Per [--seconds]: DPOR explorations, seeded schedules, recorded runs. *)
let rounds_per_second = 6

let seeded_per_second = 4

let recorded_per_second = 15

let config ~seed ~round =
  { Explore.default with Explore.seed = Int64.of_int ((seed * 7919) + round) }

let ops_per_class (cfg : Explore.config) = cfg.Explore.threads * cfg.Explore.ops_per_thread

(* ---- a recorded run, built as [Explore] builds its runs ---- *)

let scenario (cfg : Explore.config) =
  { Setup.default_scenario with
    Setup.records = cfg.Explore.records; value_size = cfg.Explore.value_size;
    threads = cfg.Explore.threads; num_ssds = 2; theta = cfg.Explore.theta;
    seed = cfg.Explore.seed }

(* The checker's PWB size: small enough that reclamation runs. *)
let tweak c = { c with Prism_core.Config.pwb_size = 16 * 1024 }

type op = Put of string * bytes | Get of string | Delete of string | Scan of string

(* The YCSB-A slice of [Explore]'s generator: updates, 1 in
   [delete_every] a delete; reads, 1 in [scan_every] an 8-item scan. *)
let gen_ops (cfg : Explore.config) =
  let rng = Rng.create cfg.Explore.seed in
  let gen =
    Ycsb.create Ycsb.ycsb_a ~records:cfg.Explore.records ~theta:cfg.Explore.theta
      ~value_size:cfg.Explore.value_size rng
  in
  let spice = Rng.create (Int64.lognot cfg.Explore.seed) in
  Array.init cfg.Explore.threads (fun _ ->
      Array.init cfg.Explore.ops_per_thread (fun _ ->
          match Ycsb.next gen with
          | Ycsb.Update (key, value) | Ycsb.Insert (key, value) ->
              if Rng.int spice cfg.Explore.delete_every = 0 then Delete key
              else Put (key, value)
          | Ycsb.Read key ->
              if Rng.int spice cfg.Explore.scan_every = 0 then Scan key else Get key
          | Ycsb.Scan (key, _) -> Scan key))

let preload (cfg : Explore.config) key =
  Ycsb.value_for ~size:cfg.Explore.value_size ~key ~version:0

type recorded = {
  events : History.event array;
  start : float;  (** virtual time the recorded ops began *)
  finish : float;
  space_amp : float;
  violation : string option;
  linearize_s : float;  (** CPU seconds of [Linearize.check] *)
}

let record_run (cfg : Explore.config) ~tie_seed =
  let engine = Engine.create () in
  Engine.set_tie_break engine (Engine.Seeded tie_seed);
  let hist = History.create () in
  let kv, store = Setup.prism ~tweak engine (scenario cfg) in
  let kv = History.wrap hist kv in
  History.set_enabled hist false;
  let ops = gen_ops cfg in
  let start = ref 0.0 in
  Engine.spawn engine (fun () ->
      for i = 0 to cfg.Explore.records - 1 do
        let key = Ycsb.key_of i in
        kv.Kv.put ~tid:0 key (preload cfg key)
      done;
      kv.Kv.quiesce ();
      History.set_enabled hist true;
      start := Engine.now engine;
      Array.iteri
        (fun tid thread_ops ->
          Engine.spawn engine (fun () ->
              Array.iter
                (function
                  | Put (k, v) -> kv.Kv.put ~tid k v
                  | Get k -> ignore (kv.Kv.get ~tid k)
                  | Delete k -> ignore (kv.Kv.delete ~tid k)
                  | Scan k -> ignore (kv.Kv.scan ~tid k 8))
                thread_ops))
        ops);
  ignore (Engine.run engine);
  let events = History.events hist in
  let finish =
    Array.fold_left (fun a e -> Float.max a e.History.resp_time) !start events
  in
  let reg = Engine.stats engine in
  let g n = float_of_int (Stats.get_int reg n) in
  let held =
    Array.fold_left
      (fun a vs -> a + Prism_core.Value_storage.live_bytes vs)
      0
      (Prism_core.Store.value_storages store)
  in
  let live = Prism_core.Store.length store * cfg.Explore.value_size in
  let space_amp =
    (float_of_int held +. g "prism.pwb.used_bytes" +. g "prism.index.nvm_bytes")
    /. float_of_int (max 1 live)
  in
  let init_keys = List.init cfg.Explore.records Ycsb.key_of in
  let init key =
    match Oracle.ordinal key with
    | Some i when i < cfg.Explore.records -> Some (preload cfg key)
    | _ -> None
  in
  let verdict, linearize_s =
    Host.timed (fun () -> Linearize.check ~init ~init_keys ~scans:cfg.Explore.scan_check events)
  in
  let violation =
    match verdict with
    | Ok () -> None
    | Error v -> Some (Format.asprintf "%a" Linearize.pp_violation v)
  in
  { events; start = !start; finish; space_amp; violation; linearize_s }

(* The set-up every checker run repeats before its clients start: build
   the store and preload its keys. *)
let setup_once (cfg : Explore.config) =
  let engine = Engine.create () in
  let kv, _ = Setup.prism ~tweak engine (scenario cfg) in
  Store_bench.in_process engine (fun () ->
      for i = 0 to cfg.Explore.records - 1 do
        let key = Ycsb.key_of i in
        kv.Kv.put ~tid:0 key (preload cfg key)
      done;
      kv.Kv.quiesce ())
