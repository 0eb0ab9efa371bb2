(* bench/cluster_sweep: shard-scaling sweep of the Prism cluster.

   For each shard count, run the same YCSB phase against a
   hash-partitioned cluster (every shard a full Prism store inside one
   engine, clients routed over the simulated network) with every K-th
   put upgraded to a multi-key 2PC write batch. Record throughput,
   latency quantiles, transaction outcomes and network traffic. The
   claim under test: sharding scales single-key throughput while the
   cross-shard commit rate — prepares, network round trips — grows with
   the shard count, the coordination tax the sweep makes visible.

     dune exec bench/cluster_sweep.exe --                  default sweep
     dune exec bench/cluster_sweep.exe -- --quick          CI-sized
     dune exec bench/cluster_sweep.exe -- --shard-counts 1,2,4 \
         --txn-every 8 --json cluster.json

   Everything is virtual time, so a given --seed reproduces the sweep —
   including the JSON — byte-identically for any --jobs. *)

open Prism_sim
open Prism_harness
open Prism_workload

let pf fmt = Printf.printf fmt

(* ---------------------------------------------------------------- *)
(* Configuration                                                     *)
(* ---------------------------------------------------------------- *)

type config = {
  shard_counts : int list;
  txn_every : int; (* every K-th put becomes a 3-key 2PC batch; 0 = none *)
  mix : Ycsb.mix;
  records : int;
  value_size : int;
  threads : int;
  theta : float;
  ops : int;
  seed : int64;
}

let default_config =
  {
    shard_counts = [ 1; 2; 4 ];
    txn_every = 8;
    mix = Ycsb.ycsb_a;
    records = 8_000;
    value_size = 256;
    threads = 4;
    theta = 0.99;
    ops = 20_000;
    seed = 0xC0FFEEL;
  }

let quick_config =
  { default_config with shard_counts = [ 1; 2 ]; records = 4_000; ops = 8_000 }

(* ---------------------------------------------------------------- *)
(* One cell: shard count -> measurements                             *)
(* ---------------------------------------------------------------- *)

type cell = {
  shards : int;
  kops : float;
  p50_us : float;
  p99_us : float;
  commits : int;
  aborts : int;
  prepares : int;
  routed : int; (* single-key ops routed over the network *)
  net_msgs : int;
  net_bytes : int;
}

let run_cell cfg ~shards =
  let e = Engine.create () in
  let s =
    {
      Setup.default_scenario with
      records = cfg.records;
      value_size = cfg.value_size;
      threads = cfg.threads;
      theta = cfg.theta;
      ops = cfg.ops;
      seed = cfg.seed;
    }
  in
  (* Prepare records carry the batch's writes, and nothing truncates the
     logs mid-run, so size them for the whole phase: every batch may land
     all three writes on one shard (with key + length framing), 2x slack. *)
  let plog_size =
    let batches = (cfg.ops / max 1 cfg.txn_every) + 1 in
    max (1 lsl 20) (batches * 3 * (cfg.value_size + 64) * 2)
  in
  let ccfg =
    {
      Prism_cluster.Cluster.default with
      Prism_cluster.Cluster.shards;
      plog_size;
      seed = cfg.seed;
    }
  in
  let cluster, base_kv = Prism_cluster.Cluster.of_scenario e ccfg s in
  let kv =
    Kv.instrument e
      (Prism_cluster.Cluster.with_batches cluster base_kv ~every:cfg.txn_every
         ~records:cfg.records ~seed:cfg.seed)
  in
  ignore
    (Runner.load e kv ~threads:cfg.threads ~records:cfg.records
       ~value_size:cfg.value_size ~seed:cfg.seed);
  let r =
    Runner.run e kv cfg.mix ~threads:cfg.threads ~records:cfg.records
      ~ops:cfg.ops ~theta:cfg.theta ~value_size:cfg.value_size ~seed:cfg.seed
  in
  let gi = Stats.get_int (Engine.stats e) in
  let commits, aborts, prepares =
    Prism_cluster.Cluster.txn_stats cluster
  in
  {
    shards;
    kops = r.Runner.kops;
    p50_us = Hist.us_of_ns (Hist.quantile r.Runner.latency 50.0);
    p99_us = Hist.us_of_ns (Hist.quantile r.Runner.latency 99.0);
    commits;
    aborts;
    prepares;
    routed = gi "prism.cluster.ops.routed";
    net_msgs = gi "net.msgs";
    net_bytes = gi "net.bytes";
  }

(* One fleet job per shard count; merged in shard order so tables,
   progress lines and JSON stay byte-identical for any --jobs. *)
let run_points cfg ~jobs =
  let counts = Array.of_list cfg.shard_counts in
  let n = Array.length counts in
  let cells =
    Prism_fleet.Fleet.with_pool ~jobs:(min jobs n) (fun pool ->
        Prism_fleet.Fleet.map pool n (fun i ->
            run_cell cfg ~shards:counts.(i)))
  in
  List.init n (fun k ->
      let c = cells.(k) in
      pf "  %d shard%s done (%.0f kops, %d txns committed)\n%!" c.shards
        (if c.shards = 1 then "" else "s")
        c.kops c.commits;
      c)

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)
(* ---------------------------------------------------------------- *)

let print_table points =
  Report.table ~title:"Cluster sweep: shard scaling under 2PC write batches"
    ~columns:
      [
        "shards"; "kops/s"; "p50 us"; "p99 us"; "commits"; "aborts";
        "prepares"; "routed"; "net msgs"; "net KB";
      ]
    (List.map
       (fun c ->
         [
           string_of_int c.shards;
           Printf.sprintf "%.1f" c.kops;
           Printf.sprintf "%.1f" c.p50_us;
           Printf.sprintf "%.1f" c.p99_us;
           string_of_int c.commits;
           string_of_int c.aborts;
           string_of_int c.prepares;
           string_of_int c.routed;
           string_of_int c.net_msgs;
           string_of_int (c.net_bytes / 1024);
         ])
       points)

(* The claim the sweep exists to check: every acked batch committed or
   aborted cleanly (2PC never wedges), and prepares scale with the
   participant count — more shards, more coordination. *)
let print_verdict cfg points =
  match points with
  | [] -> ()
  | first :: _ ->
      let last = List.nth points (List.length points - 1) in
      let expected_txns =
        if cfg.txn_every <= 0 then 0
        else
          (* Runner.run issues one put per update in the mix. *)
          List.fold_left (fun acc c -> max acc (c.commits + c.aborts)) 0
            points
      in
      let all_resolved =
        List.for_all
          (fun c ->
            cfg.txn_every <= 0 || c.commits + c.aborts = expected_txns)
          points
      in
      let coordination_grows =
        List.length points < 2 || last.prepares >= first.prepares
      in
      pf "  cluster: %d..%d shards, prepares %d -> %d, %s\n" first.shards
        last.shards first.prepares last.prepares
        (if all_resolved then "every batch resolved"
         else "TXN COUNTS DIVERGE across shard counts");
      if all_resolved && coordination_grows then
        pf "  cluster: verdict PASS (2PC resolved; coordination scales)\n"
      else pf "  cluster: verdict FAIL\n"

(* ---------------------------------------------------------------- *)
(* JSON export                                                       *)
(* ---------------------------------------------------------------- *)

let json_of_points cfg points =
  let open Json in
  Obj
    [
      ("schema", String "prism-cluster-v1");
      ("seed", Int64 cfg.seed);
      ("mix", String cfg.mix.Ycsb.name);
      ("records", Int cfg.records);
      ("value_size", Int cfg.value_size);
      ("threads", Int cfg.threads);
      ("theta", Fixed (4, cfg.theta));
      ("ops", Int cfg.ops);
      ("txn_every", Int cfg.txn_every);
      ( "points",
        List
          (List.map
             (fun c ->
               Obj
                 [
                   ("shards", Int c.shards);
                   ("kops", Fixed (3, c.kops));
                   ("p50_us", Fixed (3, c.p50_us));
                   ("p99_us", Fixed (3, c.p99_us));
                   ("txn_commits", Int c.commits);
                   ("txn_aborts", Int c.aborts);
                   ("txn_prepares", Int c.prepares);
                   ("ops_routed", Int c.routed);
                   ("net_msgs", Int c.net_msgs);
                   ("net_bytes", Int c.net_bytes);
                 ])
             points) );
    ]

(* ---------------------------------------------------------------- *)
(* CLI                                                               *)
(* ---------------------------------------------------------------- *)

let () =
  let open Cmdliner in
  let quick = Cli.quick ~doc:"CI-sized sweep: 2 shard counts, smaller run" in
  let shard_counts =
    Cli.override Arg.(list int) "shard-counts" "Comma-separated shard counts"
  in
  let txn_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "txn-every" ] ~docv:"K"
          ~doc:"Every $(docv)-th put becomes a 3-key 2PC batch; 0 disables")
  in
  let records = Cli.override Arg.int "records" "Dataset size in keys" in
  let ops = Cli.override Arg.int "ops" "Operations per cell" in
  let threads = Cli.override Arg.int "threads" "Client threads" in
  let json = Cli.json ~doc:"Write the sweep as JSON to $(docv)" in
  let main quick shard_counts txn_every mix records ops threads seed json jobs
      =
    let base = if quick then quick_config else default_config in
    let cfg =
      {
        base with
        shard_counts = Option.value shard_counts ~default:base.shard_counts;
        txn_every = Option.value txn_every ~default:base.txn_every;
        mix;
        records = Option.value records ~default:base.records;
        ops = Option.value ops ~default:base.ops;
        threads = Option.value threads ~default:base.threads;
        seed;
      }
    in
    let t0 = Unix.gettimeofday () in
    Report.section
      (Printf.sprintf
         "Cluster shard-sweep: mix %s, %d keys x %dB, %d threads, %d \
          ops/cell, txn every %d"
         cfg.mix.Ycsb.name cfg.records cfg.value_size cfg.threads cfg.ops
         cfg.txn_every);
    let points = run_points cfg ~jobs in
    print_table points;
    print_verdict cfg points;
    Option.iter
      (fun path ->
        pf "\n";
        Cli.save ~what:"cluster sweep" path
          (Json.pretty (json_of_points cfg points)))
      json;
    pf "\nSweep done in %.1fs wall.\n" (Unix.gettimeofday () -. t0)
  in
  let cmd =
    Cmd.v
      (Cmd.info "prism-cluster-sweep"
         ~doc:"Shard-scaling sweep of the 2PC Prism cluster")
      Term.(
        const main $ quick $ shard_counts $ txn_every
        $ Cli.mix ~default:Ycsb.ycsb_a $ records $ ops $ threads $ Cli.seed
        $ json $ Cli.jobs ~what:"sweep cells")
  in
  exit (Cmd.eval cmd)
