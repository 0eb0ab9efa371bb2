(* prism-ycsb: a YCSB-style command line driver for every store in this
   repository.

     dune exec bin/prism_ycsb.exe -- --store prism --workload a
     dune exec bin/prism_ycsb.exe -- --store kvell --records 50000 \
         --threads 32 --theta 1.2 --workload load,a,c,e

   Throughput and latency are virtual time: the simulated Optane + NVMe
   machine's clock, not this process's wall clock. *)

open Prism_sim
open Prism_harness
open Prism_workload
open Prism_frontend

let replay_trace engine kv ~threads path =
  match Trace.load ~path with
  | Error e -> Printf.eprintf "cannot load trace %s: %s\n" path e
  | Ok trace ->
      let r, u, i, s, d = Trace.summary trace in
      Printf.printf "replaying %s: %d ops (%dR %dU %dI %dS %dD)\n" path
        (Array.length trace) r u i s d;
      let lat = Hist.create () in
      let latch = Sync.Latch.create threads in
      let engine_ref = engine in
      let t_start = ref nan and t_end = ref nan in
      for tid = 0 to threads - 1 do
        Engine.spawn engine (fun () ->
            if Float.is_nan !t_start then t_start := Engine.now engine_ref;
            Array.iteri
              (fun i op ->
                if i mod threads = tid then begin
                  let t0 = Engine.now engine_ref in
                  (match op with
                  | Trace.Delete k -> ignore (kv.Kv.delete ~tid k)
                  | op -> (
                      match Trace.materialize op with
                      | Ycsb.Read k -> ignore (kv.Kv.get ~tid k)
                      | Ycsb.Update (k, v) | Ycsb.Insert (k, v) ->
                          kv.Kv.put ~tid k v
                      | Ycsb.Scan (k, n) -> ignore (kv.Kv.scan ~tid k n)));
                  Hist.record_span lat (Engine.now engine_ref -. t0)
                end)
              trace;
            t_end := Engine.now engine_ref;
            Sync.Latch.arrive latch)
      done;
      Engine.spawn engine (fun () -> Sync.Latch.wait latch);
      ignore (Engine.run engine);
      Printf.printf
        "trace replay: %.1f kops/s virtual (avg %.1f us, p99 %.1f us)\n"
        (float_of_int (Array.length trace) /. (!t_end -. !t_start) /. 1e3)
        (Hist.mean lat /. 1e3)
        (Hist.to_us (Hist.percentile lat 99.0))

let write_json path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.compact json))

(* Open-loop phase: requests arrive at a fixed offered rate regardless of
   completions, queue in front of the store, and an admission policy
   decides what to shed — the knee-curve setup of bench/sweep.exe, but for
   a single hand-picked operating point. *)
let run_open_loop engine kv ~mix ~records ~theta ~value_size ~ops ~seed ~rate
    ~arrival ~policy ~servers =
  let policy_spec =
    match Admission.of_string ~capacity:rate ~servers policy with
    | Ok p -> p
    | Error e -> failwith e
  in
  let point_seed =
    Int64.add seed
      (Prism_index.Strhash.fnv1a
         (Printf.sprintf "open-loop/%s/%s/%.3f" mix.Ycsb.name arrival rate))
  in
  let rng = Rng.create point_seed in
  let arr = Arrival.of_name arrival ~rate ~ops (Rng.split rng) in
  let gen = Ycsb.create mix ~records ~theta ~value_size rng in
  let trace =
    Trace.record_timed gen ~gap:(fun () -> Arrival.next_gap arr) ~ops
  in
  let r =
    Frontend.run ~servers engine kv ~policy:policy_spec
      ~offered_rate:(Arrival.mean_rate arr) ~trace
  in
  Format.printf "open-loop(%s) %a@." arrival Frontend.pp_result r

(* Scenario mode: calibrate the store's closed-loop capacity on a scratch
   engine, scale the named scenario to the op budget, then synthesize and
   replay it open-loop on the main engine — the single-store flavour of
   bench/scenario.exe. *)
let run_scenario make engine kv ~ename ~records ~value_size ~threads ~theta
    ~ops ~seed ~policy ~servers =
  let open Prism_scenario in
  let entry =
    match Library.find ename with
    | Some e -> e
    | None ->
        failwith
          (Printf.sprintf "unknown scenario %s (have: %s)" ename
             (String.concat ", " Library.names))
  in
  let r =
    Runner.calibrate make Ycsb.ycsb_b ~threads ~records ~ops:(min ops 6_000)
      ~theta ~value_size ~seed
  in
  let capacity = r.Runner.kops *. 1e3 in
  Printf.printf "scenario %s: closed-loop capacity %.0f ops/s\n" ename capacity;
  let unit = entry.Library.build ~dur:1.0 ~records in
  let per_unit =
    Scenario.expected_arrivals unit.Library.spec ~base_rate:capacity
  in
  let dur = float_of_int ops /. per_unit in
  let built = entry.Library.build ~dur ~records in
  let policy_spec =
    match Admission.of_string ~capacity ~servers policy with
    | Ok p -> p
    | Error e -> failwith e
  in
  let seed' =
    Int64.add seed
      (Prism_index.Strhash.fnv1a
         (Printf.sprintf "scenario/%s/%s" ename kv.Kv.name))
  in
  let trace =
    Scenario.synthesize built.Library.spec ~base_rate:capacity ~records
      ~seed:seed'
  in
  ignore (Runner.load engine kv ~threads ~records ~value_size ~seed);
  let o =
    Scenario.run ~servers engine kv built.Library.spec ~policy:policy_spec
      ~base_rate:capacity ~probes:built.Library.probes ~trace
  in
  let q h p = Hist.us_of_ns (Hist.quantile h p) in
  Array.iter
    (fun ps ->
      Printf.printf
        "  phase %-10s [%6.3f,%6.3f)s offered %5d shed %5d completed %5d \
         p50 %7.1f us p99 %7.1f us\n"
        ps.Scenario.ps_name ps.Scenario.ps_start ps.Scenario.ps_end
        ps.Scenario.ps_offered
        (ps.Scenario.ps_shed_admission + ps.Scenario.ps_shed_dequeue)
        ps.Scenario.ps_completed
        (q ps.Scenario.ps_sojourn 50.0)
        (q ps.Scenario.ps_sojourn 99.0))
    o.Scenario.phases;
  let checks = Library.checks_for built ~store:kv.Kv.name in
  let verdicts = Assertion.eval_all checks o in
  List.iter2
    (fun (c : Assertion.t) (v : Assertion.verdict) ->
      Printf.printf "  %s %-24s %s/%s: %s\n"
        (if v.Assertion.v_pass then "PASS" else "FAIL")
        v.Assertion.v_label c.Assertion.phase
        (Assertion.series_name c.Assertion.series)
        v.Assertion.v_detail)
    checks verdicts;
  Printf.printf "scenario %s on %s: %s\n" ename kv.Kv.name
    (if Assertion.passed verdicts then "pass" else "FAIL")

let run store_name placement workloads scenario_arg records value_size
    threads num_ssds theta ops shards txn_every open_loop arrival policy
    servers trace_out trace_in stats stats_json chrome_trace gc_tune =
  if gc_tune then Setup.gc_tune ();
  let scenario =
    {
      Setup.default_scenario with
      records;
      value_size;
      threads;
      num_ssds;
      theta;
      ops;
      scan_ops = max 1 (ops / 10);
    }
  in
  let usage_error msg =
    Printf.eprintf "prism-ycsb: %s\n" msg;
    exit 2
  in
  let store_name = String.lowercase_ascii store_name in
  (* --placement hotness selects the registry's prism-hotness; no other
     store has a placement policy to switch. *)
  let store_name =
    match (String.lowercase_ascii placement, store_name) with
    | "static", _ -> store_name
    | "hotness", "prism" -> "prism-hotness"
    | "hotness", _ -> usage_error "--placement hotness needs --store prism"
    | other, _ -> usage_error ("unknown placement policy: " ^ other)
  in
  let build =
    match Setup.of_name store_name with Ok b -> b | Error e -> usage_error e
  in
  let cluster_cfg =
    if shards > 1 || txn_every > 0 then begin
      if store_name <> "prism" then
        usage_error
          "--shards/--txn-every need --store prism and --placement static";
      Some
        {
          Prism_cluster.Cluster.default with
          Prism_cluster.Cluster.shards = max 1 shards;
          seed = scenario.Setup.seed;
        }
    end
    else None
  in
  let make =
    match cluster_cfg with
    | Some ccfg ->
        fun e -> snd (Prism_cluster.Cluster.of_scenario e ccfg scenario)
    | None -> fun e -> build e scenario
  in
  let engine = Engine.create () in
  (match chrome_trace with
  | Some _ ->
      Span.set_enabled (Engine.spans engine) true;
      Span.set_keep_events (Engine.spans engine) true
  | None -> ());
  let cluster, base_kv =
    match cluster_cfg with
    | Some ccfg ->
        let c, ckv = Prism_cluster.Cluster.of_scenario engine ccfg scenario in
        (Some c, ckv)
    | None -> (None, make engine)
  in
  let base_kv =
    match cluster with
    | Some c ->
        Prism_cluster.Cluster.with_batches c base_kv ~every:txn_every ~records
          ~seed:scenario.Setup.seed
    | None -> base_kv
  in
  let kv = Kv.instrument engine base_kv in
  Printf.printf "store=%s records=%d value=%dB threads=%d ssds=%d zipf=%.2f\n\n"
    kv.Kv.name records value_size threads num_ssds theta;
  (match trace_out with
  | Some path ->
      (* Record the first named mix into a replayable trace file. *)
      let mix =
        match
          String.split_on_char ',' (String.lowercase_ascii workloads)
          |> List.filter_map Ycsb.mix_of_name
        with
        | m :: _ -> m
        | [] -> Ycsb.ycsb_a
      in
      let gen =
        Ycsb.create mix ~records ~theta ~value_size
          (Rng.create scenario.Setup.seed)
      in
      let trace = Trace.record gen ~ops in
      Trace.save trace ~path;
      Printf.printf "recorded %d %s-ops to %s\n" ops mix.Ycsb.name path
  | None -> ());
  (match scenario_arg with
  | Some ename ->
      run_scenario make engine kv ~ename ~records ~value_size ~threads ~theta
        ~ops ~seed:scenario.Setup.seed ~policy
        ~servers:(Option.value servers ~default:threads)
  | None ->
  let phases = String.split_on_char ',' (String.lowercase_ascii workloads) in
  List.iter
    (fun phase ->
      match phase with
      | "load" ->
          let r =
            Runner.load engine kv ~threads ~records ~value_size
              ~seed:scenario.Setup.seed
          in
          Format.printf "%a@." Runner.pp_result r
      | name -> (
          match Ycsb.mix_of_name name with
          | Some mix ->
              let r =
                Runner.run engine kv mix ~threads ~records
                  ~ops:(if mix.Ycsb.name = "E" then scenario.Setup.scan_ops else ops)
                  ~theta ~value_size ~seed:scenario.Setup.seed
              in
              Format.printf "%a@." Runner.pp_result r
          | None -> Printf.eprintf "skipping unknown workload %S\n" name))
    phases);
  (match trace_in with
  | Some path -> replay_trace engine kv ~threads path
  | None -> ());
  (match open_loop with
  | Some rate ->
      let mix =
        match
          String.split_on_char ',' (String.lowercase_ascii workloads)
          |> List.filter_map Ycsb.mix_of_name
        with
        | m :: _ -> m
        | [] -> Ycsb.ycsb_b
      in
      run_open_loop engine kv ~mix ~records ~theta ~value_size ~ops
        ~seed:scenario.Setup.seed ~rate ~arrival ~policy
        ~servers:(Option.value servers ~default:threads)
  | None -> ());
  let reg = Engine.stats engine in
  Stats.register_gc reg;
  let dev medium =
    Stats.get_int reg (kv.Kv.stat_prefix ^ ".device." ^ medium ^ ".bytes_written")
  in
  Printf.printf "\nSSD bytes written: %.1f MB; NVM bytes written: %.1f MB\n"
    (float_of_int (dev "ssd") /. 1048576.0)
    (float_of_int (dev "nvm") /. 1048576.0);
  (match cluster with
  | Some c ->
      let commits, aborts, prepares = Prism_cluster.Cluster.txn_stats c in
      Printf.printf
        "cluster: %d shards, %d txns committed, %d aborted, %d prepares, %d \
         ops routed\n"
        (Prism_cluster.Cluster.shards c)
        commits aborts prepares
        (Stats.get_int reg "prism.cluster.ops.routed")
  | None -> ());
  if store_name = "prism-hotness" then
    Printf.printf
      "NVM tier: %d hits, %d promotions, %d demotions, %.1f MB resident, \
       %.1f MB migration writes\n"
      (Stats.get_int reg "prism.tier.hits")
      (Stats.get_int reg "prism.tier.promotions")
      (Stats.get_int reg "prism.tier.demotions")
      (float_of_int (Stats.get_int reg "prism.tier.used_bytes") /. 1048576.0)
      (float_of_int (Stats.get_int reg "prism.tier.migration.bytes")
      /. 1048576.0);
  if stats then Format.printf "@.%a@." Stats.pp reg;
  (match stats_json with
  | Some path ->
      write_json path (Stats.to_json reg);
      Printf.printf "wrote metric registry to %s\n" path
  | None -> ());
  match chrome_trace with
  | Some path ->
      write_json path (Span.to_chrome_json (Engine.spans engine));
      Printf.printf "wrote Chrome trace to %s\n" path
  | None -> ()

let () =
  let open Cmdliner in
  let store =
    Arg.(
      value & opt string "prism"
      & info [ "store" ]
          ~doc:"prism | prism-hotness | kvell | matrixkv | rocksdb-nvm | slm-db")
  in
  let placement =
    Arg.(
      value & opt string "static"
      & info [ "placement" ]
          ~doc:
            "Prism value-placement policy: static (all values to SSD Value \
             Storage, the paper's layout) | hotness (CLOCK-tracked hot \
             values promoted to an NVM value tier, cold residents demoted \
             during reclaim). Only --store prism has a placement policy")
  in
  let workload =
    Arg.(
      value & opt string "load,a,b,c,d,e"
      & info [ "workload" ] ~doc:"Comma-separated: load,a,b,c,d,e,nutanix")
  in
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ]
          ~doc:
            "Run a named time-varying scenario (flash-crowd, drift, \
             heavy-tail, growth, delete-churn) instead of the workload \
             phases, printing per-phase telemetry and assertion verdicts; \
             pair with --policy bounded for overload phases"
          ~docv:"NAME")
  in
  let records =
    Arg.(value & opt int 20_000 & info [ "records" ] ~doc:"Dataset size in keys")
  in
  let value_size =
    Arg.(value & opt int 256 & info [ "value-size" ] ~doc:"Value bytes")
  in
  let threads =
    Arg.(value & opt int 16 & info [ "threads" ] ~doc:"Client threads")
  in
  let ssds = Arg.(value & opt int 4 & info [ "ssds" ] ~doc:"Simulated SSDs") in
  let theta =
    Arg.(value & opt float 0.99 & info [ "theta" ] ~doc:"Zipfian coefficient")
  in
  let ops =
    Arg.(value & opt int 20_000 & info [ "ops" ] ~doc:"Operations per workload")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:
            "Hash-partition the keyspace across $(docv) Prism shards behind \
             a simulated network and a 2PC coordinator (--store prism only)"
          ~docv:"N")
  in
  let txn_every =
    Arg.(
      value & opt int 0
      & info [ "txn-every" ]
          ~doc:
            "Every $(docv)-th update becomes an atomic multi-key 2PC write \
             batch across the cluster (implies the cluster front even with \
             --shards 1; 0 disables)"
          ~docv:"K")
  in
  let open_loop =
    Arg.(
      value
      & opt (some float) None
      & info [ "open-loop" ]
          ~doc:
            "After the workload phases, drive the first named mix open-loop \
             at $(docv) offered ops per virtual second through a bounded \
             queue and admission policy"
          ~docv:"RATE")
  in
  let arrival =
    Arg.(
      value & opt string "poisson"
      & info [ "arrival" ]
          ~doc:"Open-loop arrival process: poisson | mmpp | diurnal")
  in
  let policy =
    Arg.(
      value & opt string "unbounded"
      & info [ "policy" ]
          ~doc:
            "Open-loop admission policy: unbounded | bounded[=N] | \
             token-bucket[=RATE[,BURST]] | codel[=TARGET_US,INTERVAL_US]; \
             defaults scale with the offered rate")
  in
  let servers =
    Arg.(
      value
      & opt (some int) None
      & info [ "servers" ]
          ~doc:"Server processes draining the open-loop queue (default: \
                --threads)")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~doc:"Record the first workload to a trace file")
  in
  let trace_in =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-in" ] ~doc:"Replay a recorded trace after the workloads")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the full metric registry after the run")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~doc:"Write the metric registry as JSON to $(docv)"
          ~docv:"FILE")
  in
  let chrome_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ]
          ~doc:
            "Collect virtual-time spans and write a Chrome trace_event file \
             to $(docv)"
          ~docv:"FILE")
  in
  let gc_tune =
    Arg.(
      value & flag
      & info [ "gc-tune" ]
          ~doc:
            "Tune the host GC for simulation workloads (large minor heap); \
             wall-clock only, virtual-time results are unaffected")
  in
  let cmd =
    Cmd.v
      (Cmd.info "prism-ycsb" ~doc:"Run YCSB workloads on simulated KV stores")
      Term.(
        const run $ store $ placement $ workload $ scenario_arg $ records $ value_size $ threads $ ssds
        $ theta $ ops $ shards $ txn_every $ open_loop $ arrival $ policy
        $ servers $ trace_out $ trace_in $ stats $ stats_json $ chrome_trace
        $ gc_tune)
  in
  exit (Cmd.eval cmd)
