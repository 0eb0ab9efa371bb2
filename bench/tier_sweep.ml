(* bench/tier_sweep: Zipfian-skew sweep of the value-placement layer.

   For each Zipfian θ, run the same YCSB phase twice — static placement
   (every value reclaimed to SSD Value Storage, the paper's layout) and
   hotness placement (CLOCK-tracked hot values promoted to an NVM value
   tier) — and record throughput, latency quantiles, application WAF and
   the tier's NVM footprint. The claim under test: at high skew the tier
   absorbs the hot set, cutting SSD traffic and tail latency, while at
   low skew it degrades gracefully (bounded NVM footprint, no WAF
   regression beyond the migration budget).

     dune exec bench/tier_sweep.exe --                    default sweep
     dune exec bench/tier_sweep.exe -- --quick            CI-sized
     dune exec bench/tier_sweep.exe -- --thetas 0.8,1.2 --mix a \
         --json tier.json

   Everything is virtual time, so a given --seed reproduces the sweep —
   including the JSON — byte-identically. *)

open Prism_sim
open Prism_harness
open Prism_workload

let pf fmt = Printf.printf fmt

(* ---------------------------------------------------------------- *)
(* Configuration                                                     *)
(* ---------------------------------------------------------------- *)

type config = {
  thetas : float list;
  mix : Ycsb.mix;
  records : int;
  value_size : int;
  threads : int;
  num_ssds : int;
  ops : int;
  seed : int64;
}

let default_config =
  {
    thetas = [ 0.6; 0.8; 0.99; 1.1; 1.2; 1.3 ];
    mix = Ycsb.ycsb_a;
    records = 10_000;
    value_size = 256;
    threads = 8;
    num_ssds = 2;
    ops = 30_000;
    seed = 0xC0FFEEL;
  }

let quick_config =
  { default_config with thetas = [ 0.8; 1.2 ]; records = 5_000; ops = 12_000 }

(* ---------------------------------------------------------------- *)
(* One cell: (θ, placement) -> measurements                          *)
(* ---------------------------------------------------------------- *)

type cell = {
  placement : string;
  kops : float;
  p50_us : float;
  p99_us : float;
  waf : float; (* application-induced SSD writes / put bytes *)
  ssd_bytes : int; (* all SSD writes, migrations included *)
  nvm_bytes : int;
  tier_resident : int; (* tier bytes in use at end of phase *)
  tier_capacity : int;
  tier_hits : int;
  promotions : int;
  demotions : int;
  migration_bytes : int;
}

let run_cell cfg ~theta ~placement =
  let e = Engine.create () in
  let s =
    {
      Setup.default_scenario with
      records = cfg.records;
      value_size = cfg.value_size;
      threads = cfg.threads;
      num_ssds = cfg.num_ssds;
      theta;
      ops = cfg.ops;
      seed = cfg.seed;
    }
  in
  let kv, store =
    if placement = "hotness" then Setup.prism_hotness e s else Setup.prism e s
  in
  let kv = Kv.instrument e kv in
  ignore
    (Runner.load e kv ~threads:cfg.threads ~records:cfg.records
       ~value_size:cfg.value_size ~seed:cfg.seed);
  let r =
    Runner.run e kv cfg.mix ~threads:cfg.threads ~records:cfg.records
      ~ops:cfg.ops ~theta ~value_size:cfg.value_size ~seed:cfg.seed
  in
  let reg = Engine.stats e in
  let gi = Stats.get_int reg in
  let put_bytes = gi "prism.ops.put_bytes" in
  let migration_bytes = gi "prism.tier.migration.bytes" in
  let ssd_bytes = Prism_core.Store.ssd_bytes_written store in
  let waf =
    if put_bytes = 0 then 0.0
    else float_of_int (ssd_bytes - migration_bytes) /. float_of_int put_bytes
  in
  let tier_hits, promotions, demotions = Prism_core.Store.tier_stats store in
  {
    placement;
    kops = r.Runner.kops;
    p50_us = Hist.us_of_ns (Hist.quantile r.Runner.latency 50.0);
    p99_us = Hist.us_of_ns (Hist.quantile r.Runner.latency 99.0);
    waf;
    ssd_bytes;
    nvm_bytes = Prism_core.Store.nvm_bytes_written store;
    tier_resident = gi "prism.tier.used_bytes";
    tier_capacity = gi "prism.tier.capacity";
    tier_hits;
    promotions;
    demotions;
    migration_bytes;
  }

type point = { theta : float; static : cell; hotness : cell }

(* One fleet job per (θ, placement) cell; merged in θ order so tables,
   progress lines and JSON stay byte-identical for any --jobs. *)
let run_points cfg ~jobs =
  let thetas = Array.of_list cfg.thetas in
  let n = Array.length thetas in
  let cells =
    Prism_fleet.Fleet.with_pool ~jobs (fun pool ->
        Prism_fleet.Fleet.map pool (2 * n) (fun i ->
            run_cell cfg ~theta:thetas.(i / 2)
              ~placement:(if i land 1 = 0 then "static" else "hotness")))
  in
  List.init n (fun k ->
      let static = cells.(2 * k) and hotness = cells.((2 * k) + 1) in
      pf "  theta %.2f done (static %.0f kops, hotness %.0f kops)\n%!"
        thetas.(k) static.kops hotness.kops;
      { theta = thetas.(k); static; hotness })

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)
(* ---------------------------------------------------------------- *)

let print_table points =
  Report.table ~title:"Placement sweep: static vs hotness per Zipfian theta"
    ~columns:
      [
        "theta"; "policy"; "kops/s"; "p50 us"; "p99 us"; "WAF";
        "tier KB"; "hits"; "promo"; "demo";
      ]
    (List.concat_map
       (fun p ->
         List.map
           (fun c ->
             [
               Printf.sprintf "%.2f" p.theta;
               c.placement;
               Printf.sprintf "%.1f" c.kops;
               Printf.sprintf "%.1f" c.p50_us;
               Printf.sprintf "%.1f" c.p99_us;
               Printf.sprintf "%.3f" c.waf;
               string_of_int (c.tier_resident / 1024);
               string_of_int c.tier_hits;
               string_of_int c.promotions;
               string_of_int c.demotions;
             ])
           [ p.static; p.hotness ])
       points)

(* The claim the sweep exists to prove, checked at the highest skew
   point with θ >= 1.2: hotness beats static on p99 or application WAF,
   with the tier footprint bounded by its configured capacity. *)
let print_verdict points =
  match
    List.filter (fun p -> p.theta >= 1.2) points |> List.rev |> function
    | p :: _ -> Some p
    | [] -> None
  with
  | None -> pf "  tier: no point with theta >= 1.2; verdict skipped\n"
  | Some p ->
      let bounded = p.hotness.tier_resident <= p.hotness.tier_capacity in
      let wins_p99 = p.hotness.p99_us < p.static.p99_us in
      let wins_waf = p.hotness.waf < p.static.waf in
      pf
        "  tier @ theta %.2f: p99 %s (%.1f vs %.1f us), WAF %s (%.3f vs \
         %.3f), footprint %s (%d KB of %d KB)\n"
        p.theta
        (if wins_p99 then "hotness wins" else "static wins")
        p.hotness.p99_us p.static.p99_us
        (if wins_waf then "hotness wins" else "static wins")
        p.hotness.waf p.static.waf
        (if bounded then "bounded" else "OVERFLOWED")
        (p.hotness.tier_resident / 1024)
        (p.hotness.tier_capacity / 1024);
      if (wins_p99 || wins_waf) && bounded then
        pf "  tier: verdict PASS (hotness beats static at high skew)\n"
      else pf "  tier: verdict FAIL\n"

(* ---------------------------------------------------------------- *)
(* JSON export                                                       *)
(* ---------------------------------------------------------------- *)

let json_of_points cfg points =
  let open Json in
  let cell c =
    Obj
      [
        ("kops", Fixed (3, c.kops));
        ("p50_us", Fixed (3, c.p50_us));
        ("p99_us", Fixed (3, c.p99_us));
        ("waf", Fixed (6, c.waf));
        ("ssd_bytes_written", Int c.ssd_bytes);
        ("nvm_bytes_written", Int c.nvm_bytes);
        ("tier_resident_bytes", Int c.tier_resident);
        ("tier_capacity_bytes", Int c.tier_capacity);
        ("tier_hits", Int c.tier_hits);
        ("promotions", Int c.promotions);
        ("demotions", Int c.demotions);
        ("migration_bytes", Int c.migration_bytes);
      ]
  in
  Obj
    [
      ("schema", String "prism-tier-v1");
      ("seed", Int64 cfg.seed);
      ("mix", String cfg.mix.Ycsb.name);
      ("records", Int cfg.records);
      ("value_size", Int cfg.value_size);
      ("threads", Int cfg.threads);
      ("ssds", Int cfg.num_ssds);
      ("ops", Int cfg.ops);
      ( "points",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("theta", Fixed (4, p.theta));
                   (p.static.placement, cell p.static);
                   (p.hotness.placement, cell p.hotness);
                 ])
             points) );
    ]

(* ---------------------------------------------------------------- *)
(* CLI                                                               *)
(* ---------------------------------------------------------------- *)

let () =
  let open Cmdliner in
  let quick = Cli.quick ~doc:"CI-sized sweep: 2 thetas, smaller dataset" in
  let thetas =
    Cli.override Arg.(list float) "thetas" "Comma-separated Zipfian coefficients"
  in
  let records = Cli.override Arg.int "records" "Dataset size in keys" in
  let ops = Cli.override Arg.int "ops" "Operations per cell" in
  let threads = Cli.override Arg.int "threads" "Client threads" in
  let json = Cli.json ~doc:"Write the sweep as JSON to $(docv)" in
  let main quick thetas mix records ops threads seed json () jobs =
    let base = if quick then quick_config else default_config in
    let cfg =
      {
        base with
        thetas = Option.value thetas ~default:base.thetas;
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
         "Placement theta-sweep: mix %s, %d keys x %dB, %d threads, %d \
          ops/cell"
         cfg.mix.Ycsb.name cfg.records cfg.value_size cfg.threads cfg.ops);
    let points = run_points cfg ~jobs in
    print_table points;
    print_verdict points;
    Option.iter
      (fun path ->
        pf "\n";
        Cli.save ~what:"tier sweep" path
          (Json.pretty (json_of_points cfg points)))
      json;
    pf "\nSweep done in %.1fs wall.\n" (Unix.gettimeofday () -. t0)
  in
  let cmd =
    Cmd.v
      (Cmd.info "prism-tier-sweep"
         ~doc:"Zipfian-skew sweep of static vs hotness value placement")
      Term.(
        const main $ quick $ thetas $ Cli.mix ~default:Ycsb.ycsb_a $ records
        $ ops $ threads $ Cli.seed $ json $ Cli.gc_tune
        $ Cli.jobs ~what:"sweep cells")
  in
  exit (Cmd.eval cmd)
