(* Host timing of calls into single layers' public functions, at a
   workload's sizes. Each figure is CPU nanoseconds per call; calls that
   charge device time through the engine also report the engine events
   they cause, so the ledger can charge those events to the engine row
   once and the layer's own work ([self]) to the layer. *)

open Prism_sim

type cost = { ns_per_call : float; events_per_call : float }

let self c ~ns_per_event =
  Float.max 0.0 (c.ns_per_call -. (c.events_per_call *. ns_per_event))

(* [prepare] runs untimed in a process of a fresh engine and returns the
   per-call function; the calls then run timed in another process. *)
let measure_in_engine ~calls prepare =
  let engine = Engine.create () in
  let call = ref (fun _ -> ()) in
  Store_bench.in_process engine (fun () -> call := prepare engine);
  let call = !call in
  let ev0 = Engine.events_executed engine in
  let (), host_s =
    Host.timed (fun () ->
        Store_bench.in_process engine (fun () ->
            for i = 0 to calls - 1 do
              call i
            done))
  in
  { ns_per_call = host_s *. 1e9 /. float_of_int calls;
    events_per_call =
      float_of_int (Engine.events_executed engine - ev0) /. float_of_int calls }

(* Bare dispatch: 16 processes that only advance virtual time. *)
let engine_ns_per_event () =
  let engine = Engine.create () in
  let per = 100_000 in
  for _ = 1 to 16 do
    Engine.spawn engine (fun () ->
        for _ = 1 to per do
          Engine.delay 1e-6
        done)
  done;
  let ev0 = Engine.events_executed engine in
  let _, host_s = Host.timed (fun () -> Engine.run engine) in
  host_s *. 1e9 /. float_of_int (Engine.events_executed engine - ev0)

type btree = {
  ns_per_find : float;
  ns_per_scan : float;
  nodes_per_find : float;
}

(* A key index of [keys] YCSB keys (Prism's default order), probed with
   uniform finds and [scan_len]-item scans. Node visits are counted via
   [on_access], which is where Prism charges NVM time per node. *)
let btree ~keys ~scan_len ~seed =
  let reads = ref 0 in
  let t =
    Prism_index.Btree.create
      ~on_access:(fun kind _ -> if kind = `Read then incr reads)
      ()
  in
  let rng = Rng.create (Int64.of_int seed) in
  Array.iter
    (fun i -> ignore (Prism_index.Btree.insert t (Prism_workload.Ycsb.key_of i) i))
    (Prism_workload.Ycsb.load_order ~records:keys rng);
  let n = 200_000 in
  let probe = Array.init n (fun _ -> Prism_workload.Ycsb.key_of (Rng.int rng keys)) in
  reads := 0;
  let (), find_s =
    Host.timed (fun () ->
        Array.iter (fun k -> ignore (Prism_index.Btree.find t k)) probe)
  in
  let nodes = float_of_int !reads /. float_of_int n in
  let m = 20_000 in
  let (), scan_s =
    Host.timed (fun () ->
        for i = 0 to m - 1 do
          ignore (Prism_index.Btree.scan t ~from:probe.(i) ~count:scan_len)
        done)
  in
  { ns_per_find = find_s *. 1e9 /. float_of_int n;
    ns_per_scan = scan_s *. 1e9 /. float_of_int m;
    nodes_per_find = nodes }

(* HSIT sized as [Setup.prism] sizes it for [keys] records. *)
let hsit_read_primary ~keys ~seed =
  let capacity =
    let c = ref 1024 in
    while !c < 2 * keys do
      c := !c * 2
    done;
    !c
  in
  let rng = Rng.create (Int64.of_int seed) in
  let calls = 200_000 in
  let ids = Array.init calls (fun _ -> Rng.int rng keys) in
  measure_in_engine ~calls (fun engine ->
      let nvm =
        Prism_media.Nvm.create engine ~spec:Prism_harness.Setup.nvm_array_spec
          ~size:((capacity * 16) + 4096) ()
      in
      let h = Prism_core.Hsit.create nvm ~capacity in
      for _ = 1 to keys do
        ignore (Prism_core.Hsit.alloc h)
      done;
      fun i -> ignore (Prism_core.Hsit.read_primary h ids.(i)))

(* PWB-record-sized durable appends (value + 16 B header) cycling
   through a 16 MiB region. *)
let nvm_write_persist ~value_size =
  let size = 16 lsl 20 in
  let len = value_size + 16 in
  let calls = 100_000 in
  measure_in_engine ~calls (fun engine ->
      let nvm =
        Prism_media.Nvm.create engine ~spec:Prism_harness.Setup.nvm_array_spec ~size ()
      in
      let src = Bytes.make len 'v' in
      fun i -> Prism_media.Nvm.write_persist nvm ~off:(i * len mod (size - len)) src)

(* The benchmark's own per-op client work, so the ledger can charge it:
   drawing an op from the workload's generator ... *)
let ycsb_next ~mix ~records ~theta ~seed =
  let gen =
    Prism_workload.Ycsb.create mix ~records ~theta ~value_size:256 (Rng.create (Int64.of_int seed))
  in
  let n = 200_000 in
  let (), s =
    Host.timed (fun () ->
        for _ = 1 to n do
          ignore (Prism_workload.Ycsb.next gen)
        done)
  in
  s *. 1e9 /. float_of_int n

(* ... and the oracle's check of one returned value. *)
let oracle_check ~records ~value_size =
  let o = Oracle.create ~records ~value_size ~load_end:1.0 in
  let rng = Rng.create 5L in
  let keys = Array.init 1024 (fun _ -> Prism_workload.Ycsb.key_of (Rng.int rng records)) in
  let values =
    Array.map (fun key -> Prism_workload.Ycsb.value_for ~size:value_size ~key ~version:0) keys
  in
  let n = 200_000 in
  let (), s =
    Host.timed (fun () ->
        for i = 0 to n - 1 do
          let j = i land 1023 in
          Oracle.check_value o ~op:i ~key:keys.(j) ~rs:2.0 ~re:3.0 values.(j)
        done)
  in
  s *. 1e9 /. float_of_int n
