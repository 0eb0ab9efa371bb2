(* bench/scenario: the time-varying scenario suite with pass/fail
   telemetry verdicts.

   For each (scenario, store) pair: calibrate the store's closed-loop
   capacity, scale the scenario's unit phase length so its expected
   arrival count meets the op budget at that capacity, synthesize the
   timed trace, replay it open-loop, and evaluate the scenario's
   assertions against the windowed telemetry.

     dune exec bench/scenario.exe --                    full suite
     dune exec bench/scenario.exe -- --quick            CI-sized
     dune exec bench/scenario.exe -- --list             name the suite
     dune exec bench/scenario.exe -- --scenarios flash-crowd \
         --stores prism,kvell --json scenario.json --strict

   Everything is virtual time: a given --seed reproduces every verdict —
   and the JSON — byte-identically. *)

open Prism_sim
open Prism_harness
open Prism_frontend
open Prism_scenario

let pf fmt = Printf.printf fmt

(* ---------------------------------------------------------------- *)
(* Configuration                                                     *)
(* ---------------------------------------------------------------- *)

type config = {
  stores : string list;
  scenarios : string list;
  policy : string;
  records : int;
  value_size : int;
  servers : int;
  ops : int; (* arrival budget per scenario run *)
  cal_ops : int; (* closed-loop calibration ops *)
  theta : float;
  seed : int64;
}

let default_config =
  {
    stores = [ "prism"; "kvell"; "rocksdb-nvm" ];
    scenarios = Library.names;
    policy = "bounded";
    records = 8_000;
    value_size = 256;
    servers = 16;
    ops = 12_000;
    cal_ops = 6_000;
    theta = 0.99;
    seed = 0xC0FFEEL;
  }

let quick_config =
  {
    default_config with
    stores = [ "prism"; "kvell" ];
    scenarios = [ "flash-crowd" ];
    records = 4_000;
    servers = 8;
    ops = 6_000;
    cal_ops = 5_000;
  }

let scenario cfg =
  {
    Setup.default_scenario with
    records = cfg.records;
    value_size = cfg.value_size;
    threads = cfg.servers;
    theta = cfg.theta;
    seed = cfg.seed;
  }

(* ---------------------------------------------------------------- *)
(* One (scenario, store) run                                         *)
(* ---------------------------------------------------------------- *)

type run = {
  scenario_name : string;
  store_name : string;
  capacity : float;
  dur : float; (* unit phase length, virtual seconds *)
  outcome : Scenario.outcome;
  verdicts : Assertion.verdict list;
  checks : Assertion.t list;
}

let run_pass r = Assertion.passed r.verdicts

let run_one cfg (entry : Library.entry) ~store build =
  let ename = entry.Library.ename in
  let make e = build e (scenario cfg) in
  let capacity =
    (Runner.calibrate make Prism_workload.Ycsb.ycsb_b ~threads:cfg.servers
       ~records:cfg.records ~ops:cfg.cal_ops ~theta:cfg.theta
       ~value_size:cfg.value_size ~seed:cfg.seed)
      .Runner.kops *. 1e3
  in
  (* Scale the unit phase length so the whole scenario offers ~ops
     arrivals at this store's capacity. Durations (and ramps, and
     assertion windows) are all multiples of dur, so expected arrivals
     scale linearly in it. *)
  let unit = entry.Library.build ~dur:1.0 ~records:cfg.records in
  let per_unit =
    Scenario.expected_arrivals unit.Library.spec ~base_rate:capacity
  in
  let dur = float_of_int cfg.ops /. per_unit in
  let built = entry.Library.build ~dur ~records:cfg.records in
  let policy =
    match Admission.of_string ~capacity ~servers:cfg.servers cfg.policy with
    | Ok p -> p
    | Error e -> failwith e
  in
  (* Decorrelate the trace across (scenario, store) pairs while keeping
     each a pure function of the suite seed. *)
  let seed =
    Int64.add cfg.seed
      (Prism_index.Strhash.fnv1a (Printf.sprintf "scenario/%s/%s" ename store))
  in
  let trace =
    Scenario.synthesize built.Library.spec ~base_rate:capacity
      ~records:cfg.records ~seed
  in
  let e = Engine.create () in
  let kv = Kv.instrument e (make e) in
  ignore
    (Runner.load e kv ~threads:cfg.servers ~records:cfg.records
       ~value_size:cfg.value_size ~seed:cfg.seed);
  let outcome =
    Scenario.run ~servers:cfg.servers e kv built.Library.spec ~policy
      ~base_rate:capacity ~probes:built.Library.probes ~trace
  in
  let checks = Library.checks_for built ~store:kv.Kv.name in
  let verdicts = Assertion.eval_all checks outcome in
  {
    scenario_name = ename;
    store_name = kv.Kv.name;
    capacity;
    dur;
    outcome;
    verdicts;
    checks;
  }

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)
(* ---------------------------------------------------------------- *)

let qs h p = Hist.us_of_ns (Hist.quantile h p)

let print_run r =
  let o = r.outcome in
  Report.table
    ~title:
      (Printf.sprintf "%s / %s — %s, capacity %.0f ops/s" r.scenario_name
         r.store_name o.Scenario.policy r.capacity)
    ~columns:
      [
        "phase"; "span s"; "offered"; "shed"; "completed"; "p50 us"; "p99 us";
      ]
    (Array.to_list
       (Array.map
          (fun ps ->
            [
              ps.Scenario.ps_name;
              Printf.sprintf "%.2f-%.2f" ps.Scenario.ps_start
                ps.Scenario.ps_end;
              string_of_int ps.Scenario.ps_offered;
              string_of_int
                (ps.Scenario.ps_shed_admission + ps.Scenario.ps_shed_dequeue);
              string_of_int ps.Scenario.ps_completed;
              Printf.sprintf "%.1f" (qs ps.Scenario.ps_sojourn 50.0);
              Printf.sprintf "%.1f" (qs ps.Scenario.ps_sojourn 99.0);
            ])
          o.Scenario.phases));
  List.iter2
    (fun (c : Assertion.t) (v : Assertion.verdict) ->
      pf "  %s %-24s %s/%s: %s\n"
        (if v.Assertion.v_pass then "PASS" else "FAIL")
        v.Assertion.v_label c.Assertion.phase
        (Assertion.series_name c.Assertion.series)
        v.Assertion.v_detail)
    r.checks r.verdicts;
  pf "\n"

(* ---------------------------------------------------------------- *)
(* JSON export                                                       *)
(* ---------------------------------------------------------------- *)

let json_of_runs cfg runs =
  let open Json in
  let us x = Fixed (3, x) and secs x = Fixed (6, x) in
  let run r =
    let o = r.outcome in
    Obj
      [
        ("scenario", String r.scenario_name);
        ("store", String r.store_name);
        ("policy", String o.Scenario.policy);
        ("capacity_per_sec", Fixed (1, r.capacity));
        ("unit_dur_s", secs r.dur);
        ("window_s", secs o.Scenario.interval);
        ("offered", Int o.Scenario.offered);
        ("accepted", Int o.Scenario.accepted);
        ("shed_admission", Int o.Scenario.shed_admission);
        ("shed_dequeue", Int o.Scenario.shed_dequeue);
        ("completed", Int o.Scenario.completed);
        ( "phases",
          List
            (Array.to_list
               (Array.map
                  (fun ps ->
                    Obj
                      [
                        ("name", String ps.Scenario.ps_name);
                        ("start_s", secs ps.Scenario.ps_start);
                        ("end_s", secs ps.Scenario.ps_end);
                        ("offered", Int ps.Scenario.ps_offered);
                        ("accepted", Int ps.Scenario.ps_accepted);
                        ("shed_admission", Int ps.Scenario.ps_shed_admission);
                        ("shed_dequeue", Int ps.Scenario.ps_shed_dequeue);
                        ("completed", Int ps.Scenario.ps_completed);
                        ("p50_us", us (qs ps.Scenario.ps_sojourn 50.0));
                        ("p99_us", us (qs ps.Scenario.ps_sojourn 99.0));
                      ])
                  o.Scenario.phases)) );
        ( "assertions",
          List
            (List.map2
               (fun (c : Assertion.t) (v : Assertion.verdict) ->
                 Obj
                   [
                     ("label", String v.Assertion.v_label);
                     ("phase", String c.Assertion.phase);
                     ("series", String (Assertion.series_name c.Assertion.series));
                     ("pass", Bool v.Assertion.v_pass);
                     ("detail", String v.Assertion.v_detail);
                   ])
               r.checks r.verdicts) );
        ("pass", Bool (run_pass r));
      ]
  in
  Obj
    [
      ("schema", String "prism-scenario-v1");
      ("seed", Int64 cfg.seed);
      ("records", Int cfg.records);
      ("value_size", Int cfg.value_size);
      ("servers", Int cfg.servers);
      ("ops_budget", Int cfg.ops);
      ("policy", String cfg.policy);
      ("runs", List (List.map run runs));
      ("pass", Bool (List.for_all run_pass runs));
    ]

(* ---------------------------------------------------------------- *)
(* CLI                                                               *)
(* ---------------------------------------------------------------- *)

let () =
  let open Cmdliner in
  let quick = Cli.quick ~doc:"CI-sized: one scenario x two stores" in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List scenarios and exit")
  in
  let stores =
    Cli.override Arg.(list string) "stores"
      "Comma-separated: prism,kvell,matrixkv,rocksdb-nvm"
  in
  let scenarios =
    Cli.override Arg.(list string) "scenarios"
      "Comma-separated scenario names (see --list)"
  in
  let policy =
    Arg.(
      value & opt string "bounded"
      & info [ "policy" ]
          ~doc:
            "Admission policy: unbounded, bounded[=N], \
             token-bucket[=RATE[,BURST]], codel[=TARGET_US,INTERVAL_US]")
  in
  let records = Cli.override Arg.int "records" "Dataset size in keys" in
  let servers =
    Cli.override Arg.int "servers" "Server processes draining the queue"
  in
  let ops = Cli.override Arg.int "ops" "Arrival budget per scenario run" in
  let json =
    Cli.json ~doc:"Write prism-scenario-v1 verdicts as JSON to $(docv)"
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit nonzero when any assertion fails")
  in
  let main quick list_flag stores scenarios policy records servers ops seed
      json strict () jobs =
    if list_flag then begin
      List.iter
        (fun e -> pf "%-14s %s\n" e.Library.ename e.Library.esummary)
        Library.all;
      exit 0
    end;
    let base = if quick then quick_config else default_config in
    let cfg =
      {
        base with
        stores = Option.value stores ~default:base.stores;
        scenarios = Option.value scenarios ~default:base.scenarios;
        policy;
        records = Option.value records ~default:base.records;
        servers = Option.value servers ~default:base.servers;
        ops = Option.value ops ~default:base.ops;
        seed;
      }
    in
    let t0 = Unix.gettimeofday () in
    Report.section
      (Printf.sprintf
         "Scenario suite: %d keys x %dB, %d servers, ~%d arrivals per run, \
          policy %s"
         cfg.records cfg.value_size cfg.servers cfg.ops cfg.policy);
    (* Each (scenario, store) pair is an independent fleet job — it
       calibrates, synthesizes and replays from the suite seed alone.
       Merging in pair order keeps stdout and JSON byte-identical for
       any --jobs. *)
    let pairs =
      Array.of_list
        (List.concat_map
           (fun ename ->
             let entry =
               match Library.find ename with
               | Some e -> e
               | None ->
                   Cli.usage_error
                     (Printf.sprintf "unknown scenario %S (known: %s)" ename
                        (String.concat ", " Library.names))
             in
             (* Store-restricted scenarios (the placement ones) override
                the configured store list: they only make sense on their
                own stores and would read all-zero probes elsewhere. *)
             let stores = Option.value entry.Library.estores ~default:cfg.stores in
             List.map (fun store -> (entry, store, Cli.store store)) stores)
           cfg.scenarios)
    in
    let results =
      Prism_fleet.Fleet.with_pool ~jobs (fun pool ->
          Prism_fleet.Fleet.map pool (Array.length pairs) (fun i ->
              let entry, store, build = pairs.(i) in
              run_one cfg entry ~store build))
    in
    let runs =
      Array.to_list
        (Array.map
           (fun r ->
             pf "%s / %s: %s\n%!" r.scenario_name r.store_name
               (if run_pass r then "pass" else "FAIL");
             r)
           results)
    in
    pf "\n";
    List.iter print_run runs;
    Option.iter
      (fun path -> Cli.save path (Json.pretty (json_of_runs cfg runs)))
      json;
    let failed = List.filter (fun r -> not (run_pass r)) runs in
    pf "suite: %d/%d runs pass (%.1fs wall)\n"
      (List.length runs - List.length failed)
      (List.length runs)
      (Unix.gettimeofday () -. t0);
    if strict && failed <> [] then exit 1
  in
  let cmd =
    Cmd.v
      (Cmd.info "scenario" ~doc:"Time-varying scenario suite with verdicts")
      Term.(
        const main $ quick $ list_flag $ stores $ scenarios $ policy $ records
        $ servers $ ops $ Cli.seed $ json $ strict $ Cli.gc_tune
        $ Cli.jobs ~what:"(scenario, store) pairs")
  in
  exit (Cmd.eval cmd)
