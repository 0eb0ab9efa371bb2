(* The three store workloads: closed-loop clients against one Prism store
   or a 4-shard Prism cluster, every returned value checked by the
   oracle. *)

open Prism_sim
open Prism_workload
open Prism_harness
module Store = Prism_core.Store
module Cluster = Prism_cluster.Cluster

let value_size = 256

let num_ssds = 2

type spec = {
  wname : string;
  mix : Ycsb.mix;
  records : int;
  clients : int;  (** closed-loop client processes *)
  theta : float;
  shards : int;  (** 0: one store, no cluster *)
  txn_every : int;  (** every n-th update is a 3-key 2PC batch *)
  warmup_ops : int;
      (** ops run after set-up and before the measured phase, so that it
          starts with Value Storage GC in its steady state *)
  ops_per_second : int;
      (** measured-phase ops per [--seconds]: a fixed count, so the
          virtual-time figures are a function of the seed alone *)
  store : [ `Prism | `Rocksdb_nvm | `Matrixkv ];
      (** baselines only for reproducing their wrong results *)
}

let nutanix =
  { wname = "nutanix"; mix = Ycsb.nutanix; records = 200_000; clients = 16; theta = 0.99;
    shards = 0; txn_every = 0; warmup_ops = 150_000; ops_per_second = 16_000; store = `Prism }

let read_uniform =
  { wname = "read-uniform"; mix = Ycsb.ycsb_c; records = 200_000; clients = 16; theta = 0.0;
    shards = 0; txn_every = 0; warmup_ops = 0; ops_per_second = 80_000; store = `Prism }

let cluster_2pc =
  { wname = "cluster-2pc"; mix = Ycsb.ycsb_a; records = 100_000; clients = 16; theta = 0.99;
    shards = 4; txn_every = 8; warmup_ops = 0; ops_per_second = 32_000; store = `Prism }

type fault = No_fault | Svc_invalidate | Scan_drop

let tweak fault c =
  match fault with
  | No_fault -> c
  | Svc_invalidate -> { c with Prism_core.Config.fault_skip_svc_invalidate = true }
  | Scan_drop -> { c with Prism_core.Config.fault_scan_drop_key = true }

(* ---- the system under test ---- *)

(* A store's [prism.*] metric handles, captured right after it registered
   them: shards of a cluster share one registry in which the last
   registration of a name wins, so summing per-store handles is the only
   way to see every shard from outside. *)
type probe = (string * Stats.metric) list

type sut = {
  engine : Engine.t;
  kv : Kv.t;
  stores : Store.t array;
  probes : probe array;
  cluster : Cluster.t option;
}

let capture reg : probe =
  List.filter_map
    (fun n ->
      if String.starts_with ~prefix:"prism." n then
        Option.map (fun m -> (n, m)) (Stats.find reg n)
      else None)
    (Stats.names reg)

let metric_value = function
  | Stats.Counter c -> Some (float_of_int (Metric.Counter.value c))
  | Stats.Gauge f -> (
      match f () with
      | Stats.Int i -> Some (float_of_int i)
      | Stats.Float x -> Some x
      | Stats.Dist _ -> None)
  | Stats.Histogram _ | Stats.Timeline _ -> None

(* Sum of every store's value per name ([max] for utilizations). *)
let store_snapshot sut =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (List.iter (fun (n, m) ->
         match metric_value m with
         | None -> ()
         | Some v ->
             let prev = Hashtbl.find_opt tbl n in
             let combined =
               match prev with
               | None -> v
               | Some p ->
                   if String.ends_with ~suffix:"max_utilization" n then Float.max p v
                   else p +. v
             in
             Hashtbl.replace tbl n combined))
    sut.probes;
  tbl

(* Run [body] in a fresh process and drive the engine until it is done. *)
let in_process engine body =
  let finished = ref false in
  Engine.spawn engine (fun () ->
      body ();
      finished := true;
      Engine.stop engine);
  ignore (Engine.run engine);
  if not !finished then failwith "perfbench: process did not complete"

(* [clients] closed-loop client processes; each takes the next op index
   and issues it when its previous op has returned. *)
let closed_loop engine ~clients ~ops body =
  let issued = ref 0 in
  let latch = Sync.Latch.create clients in
  for tid = 0 to clients - 1 do
    Engine.spawn engine (fun () ->
        while !issued < ops do
          let i = !issued in
          incr issued;
          body ~tid i
        done;
        Sync.Latch.arrive latch)
  done;
  in_process engine (fun () -> Sync.Latch.wait latch)

(* The op stream of a phase: one generator shared by all clients and
   drawn in issue order, so the ops are a function of the seed alone. *)
let streams spec ~seed =
  ( Ycsb.create spec.mix ~records:spec.records ~theta:spec.theta ~value_size
      (Rng.create (Int64.add (Int64.of_int seed) 0x5eedL)),
    Rng.create (Int64.add (Int64.of_int seed) 0x7cL) )

(* Two keys for a batch, distinct from [key] and from each other. *)
let batch_partners rng ~records key =
  let rec pick avoid =
    let k = Ycsb.key_of (Rng.int rng records) in
    if List.mem k avoid then pick avoid else k
  in
  let a = pick [ key ] in
  (a, pick [ key; a ])

(* The shard [Cluster] routes [key] to (checked against
   [Cluster.shard_of_key] once the cluster exists). *)
let shard_of spec key =
  Prism_index.Strhash.to_bucket (Prism_index.Strhash.fnv1a key) spec.shards

(* Both 2PC logs sized for the whole phase, since they never truncate: a
   dry run of the phase's op stream finds every batch, and each shard a
   batch touches gets a prepare record (frame 4 + tag/txn 9 + count 4 +
   per write 8 + key + value) and an applied marker (frame 4 + 9); the
   coordinator gets a commit record (4 + 9) per batch. *)
let log_sizes spec ~seed ~ops =
  let gen, partner_rng = streams spec ~seed in
  let plog = Array.make spec.shards 0 in
  let batches = ref 0 and updates = ref 0 in
  for _ = 1 to ops do
    match Ycsb.next gen with
    | Ycsb.Update (key, _) | Ycsb.Insert (key, _) ->
        incr updates;
        if !updates mod spec.txn_every = 0 then begin
          incr batches;
          let a, b = batch_partners partner_rng ~records:spec.records key in
          let writes = Array.make spec.shards 0 in
          List.iter (fun k -> let s = shard_of spec k in writes.(s) <- writes.(s) + 1) [ key; a; b ];
          Array.iteri
            (fun s n ->
              if n > 0 then
                plog.(s) <- plog.(s) + 17 + (n * (8 + String.length key + value_size)) + 13)
            writes
        end
    | Ycsb.Read _ | Ycsb.Scan _ -> ()
  done;
  (Array.fold_left max 0 plog + (1 lsl 20), (!batches * 13) + (1 lsl 20))

(* [tick] runs every [load_tick] puts of the LOAD, for a [Host.meter]. *)
let load_tick = 2_500

let build ?(tick = ignore) spec ~seed ~fault ~phase_ops =
  let engine = Engine.create () in
  let reg = Engine.stats engine in
  let scenario =
    { Setup.default_scenario with
      Setup.records = spec.records; value_size; threads = spec.clients; num_ssds;
      theta = spec.theta; seed = Int64.of_int seed }
  in
  let tweak = tweak fault in
  let kv, stores, probes, cluster =
    match spec.store with
    | `Rocksdb_nvm -> (Setup.rocksdb_nvm engine scenario, [||], [||], None)
    | `Matrixkv -> (Setup.matrixkv engine scenario, [||], [||], None)
    | `Prism when spec.shards = 0 ->
        let kv, store = Setup.prism ~tweak engine scenario in
        (kv, [| store |], [| capture reg |], None)
    | `Prism ->
      (* As [Cluster.of_scenario], keeping each shard's metric handles. *)
      let per = spec.records / spec.shards in
      let probes = Array.make spec.shards [] in
      let stores =
        Array.init spec.shards (fun i ->
            let _, st =
              Setup.prism ~tweak ~name:(Printf.sprintf "Prism-shard%d" i) engine
                { scenario with records = per; threads = spec.clients + 1 }
            in
            probes.(i) <- capture reg;
            st)
      in
      let plog_size, log_size = log_sizes spec ~seed ~ops:phase_ops in
      let cfg =
        { Cluster.default with
          Cluster.shards = spec.shards; plog_size; log_size;
          seed = Int64.of_int seed }
      in
      let c = Cluster.create engine cfg ~stores in
      for i = 0 to spec.records - 1 do
        let key = Ycsb.key_of i in
        if Cluster.shard_of_key c key <> shard_of spec key then
          failwith "perfbench: shard routing differs from Cluster.shard_of_key"
      done;
      (Cluster.kv c, stores, probes, Some c)
  in
  (* LOAD: version 0 of every key in shuffled order, then quiesce. *)
  let order = Ycsb.load_order ~records:spec.records (Rng.create (Int64.of_int seed)) in
  closed_loop engine ~clients:spec.clients ~ops:spec.records (fun ~tid i ->
      if i > 0 && i mod load_tick = 0 then tick ();
      let key = Ycsb.key_of order.(i) in
      kv.Kv.put ~tid key (Ycsb.value_for ~size:value_size ~key ~version:0));
  in_process engine kv.Kv.quiesce;
  { engine; kv; stores; probes; cluster }

(* ---- the measured phase ---- *)

type phase = {
  ops : int;
  vt_s : float;  (** virtual seconds of the phase *)
  host_s : float;  (** CPU seconds of the phase *)
  nominal_s : float;  (** [host_s] at the reference speed ([Host.meter]) *)
  get : Samples.t;  (** latencies, virtual seconds *)
  put : Samples.t;
  scan : Samples.t;
  batch : Samples.t;
  mutable put_bytes : int;  (** value bytes written (puts + committed batch writes) *)
  mutable scanned : int;
  mutable commits : int;
  mutable aborts : int;
  mutable exceptions : int;
  mutable first_exn : string;
}

(* The client side of one store across its phases: the op stream
   continues from phase to phase, and the oracle sees every op. *)
type client = {
  spec : spec;
  sut : sut;
  gen : Ycsb.t;
  partner_rng : Rng.t;
  mutable updates : int;
  mutable batch_version : int;  (** batch writes' own versions, above the generator's *)
  oracle : Oracle.t option;
}

let client spec sut ~seed ~oracle =
  let gen, partner_rng = streams spec ~seed in
  { spec; sut; gen; partner_rng; updates = 0; batch_version = 1 lsl 40; oracle }

(* Issue ops [first, first + ops) of the stream; op ids are stream
   positions, so a finding names the op exactly. *)
let run_phase d ~first ~ops =
  let spec = d.spec and engine = d.sut.engine and kv = d.sut.kv in
  let now () = Engine.now engine in
  let p =
    { ops; vt_s = 0.0; host_s = 0.0; nominal_s = 0.0; get = Samples.create ();
      put = Samples.create (); scan = Samples.create (); batch = Samples.create ();
      put_bytes = 0; scanned = 0; commits = 0; aborts = 0; exceptions = 0;
      first_exn = "" }
  in
  let guard f =
    try f ()
    with e ->
      p.exceptions <- p.exceptions + 1;
      if p.first_exn = "" then p.first_exn <- Printexc.to_string e
  in
  let check f = Option.iter f d.oracle in
  let write_begin key value ~start ~batch =
    check (fun o ->
        Option.iter
          (fun version -> Oracle.write_begin o ~key ~version ~start ~batch)
          (Ycsb.version_of value))
  in
  let write_end value ~committed =
    check (fun o ->
        Option.iter
          (fun version -> Oracle.write_end o ~version ~end_:(now ()) ~committed)
          (Ycsb.version_of value))
  in
  let body ~tid i =
    let op = first + i in
    match Ycsb.next d.gen with
    | Ycsb.Read key ->
        guard (fun () ->
            let rs = now () in
            let r = kv.Kv.get ~tid key in
            let re = now () in
            Samples.add p.get (re -. rs);
            check (fun o -> Oracle.check_get o ~op ~key ~rs ~re r))
    | Ycsb.Scan (key, len) ->
        guard (fun () ->
            let rs = now () in
            let items = kv.Kv.scan ~tid key len in
            let re = now () in
            Samples.add p.scan (re -. rs);
            p.scanned <- p.scanned + List.length items;
            check (fun o -> Oracle.check_scan o ~op ~key ~len ~rs ~re items))
    | Ycsb.Update (key, value) | Ycsb.Insert (key, value) -> (
        d.updates <- d.updates + 1;
        match d.sut.cluster with
        | Some c when spec.txn_every > 0 && d.updates mod spec.txn_every = 0 ->
            let a, b = batch_partners d.partner_rng ~records:spec.records key in
            let own k =
              d.batch_version <- d.batch_version + 1;
              (k, Ycsb.value_for ~size:value_size ~key:k ~version:d.batch_version)
            in
            let writes = [ (key, value); own a; own b ] in
            guard (fun () ->
                let rs = now () in
                List.iter (fun (k, v) -> write_begin k v ~start:rs ~batch:true) writes;
                let outcome = Cluster.batch c ~tid writes in
                Samples.add p.batch (now () -. rs);
                let committed = outcome = Cluster.Committed in
                List.iter (fun (_, v) -> write_end v ~committed) writes;
                if committed then begin
                  p.commits <- p.commits + 1;
                  p.put_bytes <- p.put_bytes + (3 * value_size)
                end
                else p.aborts <- p.aborts + 1)
        | _ ->
            guard (fun () ->
                let rs = now () in
                write_begin key value ~start:rs ~batch:false;
                kv.Kv.put ~tid key value;
                Samples.add p.put (now () -. rs);
                p.put_bytes <- p.put_bytes + value_size;
                write_end value ~committed:true))
  in
  (* the meter's reference runs about every 50 ms of the phase *)
  let every = max 1 (spec.ops_per_second / 20) in
  let metered_body m ~tid i =
    if i > 0 && i mod every = 0 then Host.tick m;
    body ~tid i
  in
  Gc.full_major ();
  let vt0 = now () in
  let m = Host.meter () in
  closed_loop engine ~clients:spec.clients ~ops (metered_body m);
  let nominal_s = Host.stop m in
  Printf.printf "meter: %s\n%!" (Host.describe m);
  { p with vt_s = now () -. vt0; host_s = m.Host.prog_s; nominal_s }

(* After the phases: quiesce, then read every key back through the same
   checks, as ops [first, first + records). *)
let readback d ~first =
  let sut = d.sut in
  in_process sut.engine sut.kv.Kv.quiesce;
  let exceptions = ref 0 in
  closed_loop sut.engine ~clients:d.spec.clients ~ops:d.spec.records (fun ~tid i ->
      let key = Ycsb.key_of i in
      let rs = Engine.now sut.engine in
      match sut.kv.Kv.get ~tid key with
      | r ->
          let re = Engine.now sut.engine in
          Option.iter (fun o -> Oracle.check_get o ~op:(first + i) ~key ~rs ~re r) d.oracle
      | exception e ->
          incr exceptions;
          Printf.printf "read-back exception on %s: %s\n" key (Printexc.to_string e));
  !exceptions

(* ---- space ---- *)

(* Bytes of framed records in a 2PC log's durable image. *)
let log_bytes nvm =
  let size = Prism_media.Nvm.size nvm in
  let rec walk off =
    if off + 4 > size then off
    else
      let len =
        Int32.to_int
          (Bytes.get_int32_le (Prism_media.Nvm.read_durable nvm ~off ~len:4) 0)
      in
      if len = 0 then off else walk (off + 4 + len)
  in
  walk 0

(* Bytes held: Value Storage live bytes + PWB bytes in use + key index and
   HSIT NVM, plus both 2PC logs on the cluster. *)
let bytes_held sut =
  let s = store_snapshot sut in
  let g n = Option.value (Hashtbl.find_opt s n) ~default:0.0 in
  let vs_live =
    Array.fold_left
      (fun acc st ->
        Array.fold_left
          (fun a vs -> a + Prism_core.Value_storage.live_bytes vs)
          acc (Store.value_storages st))
      0 sut.stores
  in
  let logs =
    match sut.cluster with
    | None -> 0
    | Some c ->
        log_bytes (Cluster.coordinator_log c)
        + List.fold_left
            (fun a i -> a + log_bytes (Cluster.prepare_log c i))
            0
            (List.init (Cluster.shards c) Fun.id)
  in
  float_of_int vs_live +. g "prism.pwb.used_bytes" +. g "prism.index.nvm_bytes"
  +. float_of_int logs

let ssd_bytes_written sut =
  Array.fold_left (fun a st -> a + Store.ssd_bytes_written st) 0 sut.stores
