(* bench/sweep: offered-load knee curves.

   For each store, calibrate its closed-loop capacity, then drive it
   open-loop (Prism_frontend) at multiples of that capacity under each
   admission policy and record goodput, shed rate and latency quantiles —
   the latency-vs-offered-load "knee curve" family no paper figure covers.

     dune exec bench/sweep.exe --                      default sweep
     dune exec bench/sweep.exe -- --quick              CI-sized (2 stores
                                                       x 2 policies)
     dune exec bench/sweep.exe -- --stores prism,kvell --policies \
         unbounded,codel --points 0.6,1.0,1.4 --json knee.json

   Everything is virtual time, so a given --seed reproduces the sweep —
   including the JSON — byte-identically. *)

open Prism_sim
open Prism_harness
open Prism_workload
open Prism_frontend

let pf fmt = Printf.printf fmt

(* ---------------------------------------------------------------- *)
(* Configuration                                                     *)
(* ---------------------------------------------------------------- *)

type config = {
  stores : string list;
  policies : string list;
  points : float list; (* offered load as multiples of calibrated capacity *)
  arrival : string; (* poisson | mmpp | diurnal *)
  mix : Ycsb.mix;
  records : int;
  value_size : int;
  servers : int;
  ops : int; (* open-loop arrivals per point *)
  cal_ops : int; (* closed-loop calibration ops *)
  theta : float;
  seed : int64;
}

let default_config =
  {
    stores = [ "prism"; "kvell"; "rocksdb-nvm" ];
    policies = [ "unbounded"; "bounded"; "token-bucket"; "codel" ];
    points = [ 0.5; 0.75; 0.9; 1.05; 1.2; 1.5 ];
    arrival = "poisson";
    mix = Ycsb.ycsb_b;
    records = 10_000;
    value_size = 256;
    servers = 16;
    ops = 8_000;
    cal_ops = 6_000;
    theta = 0.99;
    seed = 0xC0FFEEL;
  }

let quick_config =
  {
    default_config with
    stores = [ "prism"; "kvell" ];
    policies = [ "unbounded"; "bounded" ];
    points = [ 0.6; 1.0; 1.8 ];
    records = 4_000;
    servers = 8;
    ops = 6_000;
    cal_ops = 6_000;
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
(* Per-store sweep                                                   *)
(* ---------------------------------------------------------------- *)

type point = {
  multiplier : float;
  result : Frontend.result;
}

type curve = { policy_arg : string; policy : Admission.spec; points : point list }

type store_sweep = {
  store_name : string;
  capacity : float; (* closed-loop ops per virtual second *)
  service_p50 : float; (* closed-loop median latency, virtual seconds *)
  curves : curve list;
}

let run_point cfg make ~policy ~policy_arg ~capacity ~multiplier =
  let e = Engine.create () in
  let kv = Kv.instrument e (make e) in
  ignore
    (Runner.load e kv ~threads:cfg.servers ~records:cfg.records
       ~value_size:cfg.value_size ~seed:cfg.seed);
  (* Decorrelate the arrival stream and key sequence across sweep points
     while keeping every point a pure function of the sweep seed. *)
  let point_seed =
    Int64.add cfg.seed
      (Prism_index.Strhash.fnv1a
         (Printf.sprintf "knee/%s/%s/%s/%.4f" kv.Kv.name policy_arg cfg.arrival
            multiplier))
  in
  let rng = Rng.create point_seed in
  let arrival =
    Arrival.of_name cfg.arrival ~rate:(multiplier *. capacity) ~ops:cfg.ops
      (Rng.split rng)
  in
  let gen =
    Ycsb.create cfg.mix ~records:cfg.records ~theta:cfg.theta
      ~value_size:cfg.value_size rng
  in
  let trace =
    Trace.record_timed gen ~gap:(fun () -> Arrival.next_gap arrival) ~ops:cfg.ops
  in
  let result =
    Frontend.run ~servers:cfg.servers e kv ~policy
      ~offered_rate:(Arrival.mean_rate arrival) ~trace
  in
  { multiplier; result }

(* Closed-loop calibration gives the store's saturation throughput with
   [servers] concurrent clients and its uncontended median service time.
   Deterministic, so the whole sweep is a pure function of the seed. *)
let sweep_store cfg pool build =
  let make e = build e (scenario cfg) in
  let cal =
    Runner.calibrate make cfg.mix ~threads:cfg.servers ~records:cfg.records
      ~ops:cfg.cal_ops ~theta:cfg.theta ~value_size:cfg.value_size
      ~seed:cfg.seed
  in
  let store_name = cal.Runner.store in
  let capacity = cal.Runner.kops *. 1e3 in
  let service_p50 = Hist.quantile cal.Runner.latency 50.0 *. 1e-9 in
  pf "%s: closed-loop capacity %.0f ops/s, service p50 %.1f us\n%!" store_name
    capacity (service_p50 *. 1e6);
  let policies =
    List.map
      (fun policy_arg ->
        match Admission.of_string ~capacity ~servers:cfg.servers policy_arg with
        | Ok p -> (policy_arg, p)
        | Error e -> failwith e)
      cfg.policies
  in
  (* Every (policy, point) cell builds its own engine and store from the
     sweep seed, so cells are independent fleet jobs; merging in grid
     order keeps the tables, progress lines and JSON byte-identical for
     any --jobs. *)
  let npts = List.length cfg.points in
  let cells =
    Array.of_list
      (List.concat_map
         (fun (policy_arg, policy) ->
           List.map (fun m -> (policy_arg, policy, m)) cfg.points)
         policies)
  in
  let results =
    Prism_fleet.Fleet.map pool (Array.length cells) (fun i ->
        let policy_arg, policy, multiplier = cells.(i) in
        run_point cfg make ~policy ~policy_arg ~capacity ~multiplier)
  in
  let curves =
    List.mapi
      (fun pi (policy_arg, policy) ->
        let points =
          List.init npts (fun k ->
              let p = results.((pi * npts) + k) in
              pf "  %-22s x%.2f done\n%!" (Admission.describe policy)
                p.multiplier;
              p)
        in
        { policy_arg; policy; points })
      policies
  in
  { store_name; capacity; service_p50; curves }

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)
(* ---------------------------------------------------------------- *)

let q hist p = Hist.us_of_ns (Hist.quantile hist p)

let print_tables sw =
  List.iter
    (fun c ->
      Report.table
        ~title:
          (Printf.sprintf "%s / %s — knee curve" sw.store_name
             (Admission.describe c.policy))
        ~columns:
          [
            "x cap"; "offered/s"; "goodput/s"; "shed %"; "depth";
            "p50 us"; "p99 us"; "p999 us"; "wait p99 us";
          ]
        (List.map
           (fun { multiplier; result = r } ->
             [
               Printf.sprintf "%.2f" multiplier;
               Printf.sprintf "%.0f" r.Frontend.offered_rate;
               Printf.sprintf "%.0f" r.Frontend.goodput;
               Printf.sprintf "%.1f" (100.0 *. Frontend.shed_rate r);
               string_of_int r.Frontend.max_depth;
               Printf.sprintf "%.1f" (q r.Frontend.sojourn 50.0);
               Printf.sprintf "%.1f" (q r.Frontend.sojourn 99.0);
               Printf.sprintf "%.1f" (q r.Frontend.sojourn 99.9);
               Printf.sprintf "%.1f" (q r.Frontend.wait 99.0);
             ])
           c.points))
    sw.curves

(* The claim knee curves exist to prove: past the saturation knee an
   admission policy keeps p99 bounded while the unbounded baseline's
   diverges. Checked at the highest overload multiplier. *)
let print_verdict sw =
  let last_p99 c =
    match List.rev c.points with
    | [] -> nan
    | { result; _ } :: _ -> q result.Frontend.sojourn 99.0
  in
  match
    List.find_opt (fun c -> c.policy = Admission.Unbounded) sw.curves
  with
  | None -> ()
  | Some baseline ->
      let base_p99 = last_p99 baseline in
      List.iter
        (fun c ->
          if c.policy <> Admission.Unbounded then begin
            let p99 = last_p99 c in
            if p99 > 0.0 && base_p99 >= 3.0 *. p99 then
              pf
                "  knee: %s bounds p99 at max overload (%.0f us vs unbounded \
                 %.0f us, %.0fx)\n"
                (Admission.describe c.policy)
                p99 base_p99 (base_p99 /. p99)
            else
              pf "  knee: %s p99 %.0f us vs unbounded %.0f us\n"
                (Admission.describe c.policy)
                p99 base_p99
          end)
        sw.curves

(* ---------------------------------------------------------------- *)
(* JSON export                                                       *)
(* ---------------------------------------------------------------- *)

let json_of_point { multiplier; result = r } =
  let open Json in
  let us hist p = Fixed (3, q hist p) in
  Obj
    [
      ("multiplier", Fixed (4, multiplier));
      ("offered_per_sec", Fixed (1, r.Frontend.offered_rate));
      ("goodput_per_sec", Fixed (1, r.Frontend.goodput));
      ("shed_rate", Fixed (6, Frontend.shed_rate r));
      ("offered", Int r.Frontend.offered);
      ("completed", Int r.Frontend.completed);
      ("shed", Int (Frontend.shed r));
      ("max_depth", Int r.Frontend.max_depth);
      ("p50_us", us r.Frontend.sojourn 50.0);
      ("p99_us", us r.Frontend.sojourn 99.0);
      ("p999_us", us r.Frontend.sojourn 99.9);
      ("wait_p99_us", us r.Frontend.wait 99.0);
      ("service_p99_us", us r.Frontend.service 99.0);
    ]

let json_of_sweep sw =
  let open Json in
  let curve c =
    Obj
      [
        ("policy", String (Admission.name c.policy));
        ("policy_detail", String (Admission.describe c.policy));
        ("points", List (List.map json_of_point c.points));
      ]
  in
  Obj
    [
      ("store", String sw.store_name);
      ("capacity_per_sec", Fixed (1, sw.capacity));
      ("service_p50_us", Fixed (3, sw.service_p50 *. 1e6));
      ("curves", List (List.map curve sw.curves));
    ]

let json_of_sweeps cfg sweeps =
  let open Json in
  Obj
    [
      ("schema", String "prism-knee-v1");
      ("seed", Int64 cfg.seed);
      ("mix", String cfg.mix.Ycsb.name);
      ("arrival", String cfg.arrival);
      ("servers", Int cfg.servers);
      ("records", Int cfg.records);
      ("value_size", Int cfg.value_size);
      ("ops_per_point", Int cfg.ops);
      ("stores", List (List.map json_of_sweep sweeps));
    ]

(* ---------------------------------------------------------------- *)
(* CLI                                                               *)
(* ---------------------------------------------------------------- *)

let () =
  let open Cmdliner in
  let quick =
    Cli.quick ~doc:"CI-sized sweep: 2 stores x 2 policies x 3 points"
  in
  let stores =
    Cli.override Arg.(list string) "stores"
      "Comma-separated: prism,kvell,matrixkv,rocksdb-nvm"
  in
  let policies =
    Cli.override Arg.(list string) "policies"
      "Comma-separated admission policies: unbounded, bounded[=N], \
       token-bucket[=RATE[,BURST]], codel[=TARGET_US,INTERVAL_US]"
  in
  let points =
    Cli.override Arg.(list float) "points"
      "Comma-separated offered-load multipliers of calibrated capacity"
  in
  let arrival =
    Arg.(
      value & opt string "poisson"
      & info [ "arrival" ] ~doc:"Arrival process: poisson | mmpp | diurnal")
  in
  let records = Cli.override Arg.int "records" "Dataset size in keys" in
  let servers =
    Cli.override Arg.int "servers" "Server processes draining the queue"
  in
  let ops = Cli.override Arg.int "ops" "Open-loop arrivals per sweep point" in
  let json = Cli.json ~doc:"Write the knee curves as JSON to $(docv)" in
  let main quick stores policies points arrival mix records servers ops seed
      json () jobs =
    let base = if quick then quick_config else default_config in
    let cfg =
      {
        base with
        stores = Option.value stores ~default:base.stores;
        policies = Option.value policies ~default:base.policies;
        points = Option.value points ~default:base.points;
        arrival;
        mix;
        records = Option.value records ~default:base.records;
        servers = Option.value servers ~default:base.servers;
        ops = Option.value ops ~default:base.ops;
        seed;
      }
    in
    let builds = List.map Cli.store cfg.stores in
    let t0 = Unix.gettimeofday () in
    Report.section
      (Printf.sprintf
         "Offered-load knee curves: %s arrivals, mix %s, %d keys x %dB, %d \
          servers, %d arrivals/point"
         cfg.arrival cfg.mix.Ycsb.name cfg.records cfg.value_size cfg.servers
         cfg.ops);
    let sweeps =
      Prism_fleet.Fleet.with_pool ~jobs (fun pool ->
          List.map (sweep_store cfg pool) builds)
    in
    List.iter
      (fun sw ->
        print_tables sw;
        print_verdict sw)
      sweeps;
    Option.iter
      (fun path ->
        pf "\n";
        Cli.save ~what:"knee curves" path
          (Json.pretty (json_of_sweeps cfg sweeps)))
      json;
    pf "\nSweep done in %.1fs wall.\n" (Unix.gettimeofday () -. t0)
  in
  let cmd =
    Cmd.v
      (Cmd.info "prism-sweep"
         ~doc:"Offered-load sweeps past saturation (knee curves)")
      Term.(
        const main $ quick $ stores $ policies $ points $ arrival
        $ Cli.mix ~default:Ycsb.ycsb_b $ records $ servers $ ops $ Cli.seed
        $ json $ Cli.gc_tune $ Cli.jobs ~what:"sweep cells")
  in
  exit (Cmd.eval cmd)
