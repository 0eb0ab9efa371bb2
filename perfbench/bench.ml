(* The Prism benchmark. One run = one workload, one seed:

     bench.exe --workload nutanix|read-uniform|cluster-2pc|check-dpor
               --seed N --seconds S --trace 0|1

   prints a human-readable report and, as its last line, one JSON object
   {correct, attempted, failed, metrics}. With --trace 0 the metrics are
   the end-to-end ones; with --trace 1 a traced run prints the per-layer
   ones. See README.md for every metric, the oracle's rules and the
   layer map. *)

open Prism_sim
module S = Store_bench
module C = Check_bench

let us x = x *. 1e6

(* ---- arguments ---- *)

let workload = ref ""

let seed = ref 1

let seconds = ref 10

let trace = ref 0

let rev = ref "unknown"

let oracle_on = ref 1

let fault = ref "none"

(* Store set-ups per run: [setup_s] is their median. *)
let setup_reps = 3

let store = ref "prism"

let records = ref 0

let clients = ref 0

let args =
  Arg.align
    [
      ("--workload", Arg.Set_string workload, " nutanix|read-uniform|cluster-2pc|check-dpor");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured-phase size, in nominal seconds");
      ("--trace", Arg.Set_int trace, " 1: traced run printing per-layer metrics");
      ("--rev", Arg.Set_string rev, " source revision for the host stamp");
      ("--oracle", Arg.Set_int oracle_on, " 0: skip result checks (virtual time is unchanged)");
      ("--fault", Arg.Set_string fault, " none|svc-invalidate|scan-drop: plant a store fault");
      ("--store", Arg.Set_string store,
       " prism|rocksdb-nvm|matrixkv: baselines only reproduce their known wrong results");
      ("--records", Arg.Set_int records, " override a store workload's record count");
      ("--clients", Arg.Set_int clients, " override a store workload's client count");
    ]

(* ---- shared pieces ---- *)

(* Every per-layer metric with its unit, in report order. *)
let per_layer =
  [ ("engine.events_per_op", "events/op"); ("engine.host_ns_per_event", "ns/event");
    ("gc.minor_words_per_op", "words/op"); ("gc.major_collections", "count");
    ("btree.host_ns_per_find", "ns/find"); ("btree.host_ns_per_scan", "ns/scan");
    ("btree.nodes_read_per_find", "nodes/find"); ("hsit.host_ns_per_read_primary", "ns/call");
    ("nvm.persists_per_put", "persists/put"); ("nvm.bytes_written_per_op", "B/op");
    ("nvm.bytes_read_per_op", "B/op"); ("nvm.host_ns_per_write_persist", "ns/call");
    ("pwb.hit_frac", "ratio"); ("pwb.max_utilization", "ratio");
    ("reclaim.migrated_per_put", "values/put"); ("reclaim.dead_frac", "ratio");
    ("vs.reads_per_get", "reads/lookup"); ("vs.gc_runs_per_kop", "runs/kop");
    ("vs.live_bytes", "B"); ("svc.hit_frac", "ratio"); ("svc.evictions_per_kop", "evictions/kop");
    ("svc.reorgs_per_kop", "reorgs/kop"); ("tcq.mean_batch", "reqs/batch");
    ("tcq.requests_per_op", "reqs/op"); ("uring.sqes_per_submit", "sqes/submit");
    ("ssd.reads_per_op", "reads/op"); ("ssd.bytes_read_per_op", "B/op");
    ("ssd.bytes_written_per_op", "B/op"); ("span.vs_gc.vt_ms_per_kop", "ms/kop");
    ("span.reclaimer_pass.vt_ms_per_kop", "ms/kop"); ("net.msgs_per_op", "msgs/op");
    ("net.bytes_per_op", "B/op"); ("net.dropped", "count");
    ("cluster.prepares_per_batch", "prepares/batch"); ("cluster.abort_frac", "ratio");
    ("check.host_ms_per_dpor_run", "ms/run"); ("check.host_ms_per_seeded_run", "ms/run");
    ("check.host_ms_per_linearize", "ms/check"); ("check.dpor_overhead_ms_per_run", "ms/run");
    ("check.runs_per_class", "runs/class"); ("check.pruned_frac", "ratio");
    ("check.rss_mb_per_class", "MiB/class"); ("ledger.explained_frac", "ratio");
    ("ledger.residual_ns_per_op", "ns/op"); ("trace.overhead_frac", "ratio");
    ("oracle.stale", "count"); ("oracle.missing", "count"); ("oracle.foreign_or_torn", "count");
    ("oracle.scan_shape", "count"); ("ops_failed_frac", "ratio");
    ("check_classes_per_s", "classes/s"); ("vt_get_p50_us", "us"); ("vt_put_p50_us", "us"); ("vt_put_p999_us", "us");
    ("vt_scan_p50_us", "us"); ("vt_scan_p99_us", "us"); ("vt_batch_p50_us", "us");
    ("vt_batch_p999_us", "us"); ("waf", "ratio") ]

(* Every per-layer name, in order: the produced value, or 0 with the
   reason it is absent. *)
let emit_layers produced ~absent =
  List.iter
    (fun (name, unit_) ->
      match List.assoc_opt name produced with
      | Some (u, value, note) ->
          if u <> unit_ then failwith ("perfbench: unit of " ^ name ^ " is " ^ unit_);
          Out.emit ~note name unit_ value
      | None -> Out.emit ~note:("n/a: " ^ absent name) name unit_ 0.0)
    per_layer

(* Median and tail of a latency sample (virtual seconds), in µs, with
   its support. *)
let latency s ~tail =
  let sorted = Samples.sorted s in
  let n = Array.length sorted in
  if n = 0 then None
  else
    let note =
      Printf.sprintf "(n=%d, %d beyond p%g)" n (Samples.beyond sorted tail) (tail *. 100.0)
    in
    Some (us (Samples.quantile sorted 0.5), us (Samples.quantile sorted tail), note)

(* Get latency as the end-to-end rows report it: the mean, which moves
   with every seed (a median on a fixed-cost path can read the same
   constant on every run), the tail, and the median as information. *)
let emit_get_latency s =
  match latency s ~tail:0.999 with
  | None -> failwith "perfbench: the workload ran no gets"
  | Some (m, t, note) ->
      Out.emit "vt_get_mean_us" "us" (us (Samples.mean s)) ~note;
      Out.emit "vt_get_p999_us" "us" t ~note;
      Out.info "vt_get_p50_us" "us" m ~note

(* [name_p50, name_pTAIL] rows of a latency sample, if it has any. *)
let latency_rows s ~tail ~p50 ~ptail =
  match latency s ~tail with
  | None -> []
  | Some (m, t, note) -> [ (p50, ("us", m, note)); (ptail, ("us", t, note)) ]

let p50_row name s =
  match latency s ~tail:0.999 with None -> [] | Some (m, _, note) -> [ (name, ("us", m, note)) ]

let print_rows rows = List.iter (fun (n, (u, v, note)) -> Out.info ~note n u v) rows

let fault_of_string = function
  | "none" -> S.No_fault
  | "svc-invalidate" -> S.Svc_invalidate
  | "scan-drop" -> S.Scan_drop
  | f -> failwith ("unknown --fault " ^ f)

(* ---- store workloads ---- *)

type run = {
  sut : S.sut;
  warm : S.phase option;  (** the warm-up before the measured phase *)
  phase : S.phase;
  mutable read_exceptions : int;
  oracle : Oracle.t option;
  before : (string, float) Hashtbl.t;
  after : (string, float) Hashtbl.t;
  reg_before : (string * Stats.value) list;
  reg_after : (string * Stats.value) list;
  events : int;
  minor_words : float;
  major_collections : int;
  ssd_written : int;
  spans : (string * int * float * float) list;
}

let setup spec ~ops =
  let m = Host.meter () in
  let sut =
    S.build ~tick:(fun () -> Host.tick m) spec ~seed:!seed ~fault:(fault_of_string !fault)
      ~phase_ops:(spec.S.warmup_ops + ops)
  in
  let t = Host.stop m in
  Printf.printf
    "setup: %.6f s CPU at reference speed, %.6f s as measured (store build, LOAD of %d \
     records, quiesce)\n%!"
    t m.Host.prog_s spec.S.records;
  (sut, t)

let measure spec sut ~ops ~traced =
  let engine = sut.S.engine in
  let sut =
    if traced then begin
      Span.set_enabled (Engine.spans engine) true;
      { sut with S.kv = Prism_harness.Kv.instrument engine sut.S.kv }
    end
    else sut
  in
  let oracle =
    if !oracle_on = 1 then
      Some
        (Oracle.create ~records:spec.S.records ~value_size:S.value_size
           ~load_end:(Engine.now engine))
    else None
  in
  let d = S.client spec sut ~seed:!seed ~oracle in
  let warmup = spec.S.warmup_ops in
  let warm =
    if warmup = 0 then None
    else begin
      let w = S.run_phase d ~first:0 ~ops:warmup in
      Printf.printf "warm-up: %d ops, %.3f s CPU (not measured)\n%!" warmup w.S.host_s;
      Some w
    end
  in
  Span.reset (Engine.spans engine);
  let reg = Engine.stats engine in
  let before = S.store_snapshot sut and reg_before = Stats.snapshot reg in
  let ssd0 = S.ssd_bytes_written sut in
  let ev0 = Engine.events_executed engine in
  let gc0 = Gc.quick_stat () in
  let phase = S.run_phase d ~first:warmup ~ops in
  let gc1 = Gc.quick_stat () in
  let run =
    { sut; warm; phase; read_exceptions = 0; oracle; before; after = S.store_snapshot sut;
      reg_before; reg_after = Stats.snapshot reg;
      events = Engine.events_executed engine - ev0;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      ssd_written = S.ssd_bytes_written sut - ssd0;
      spans = Span.totals (Engine.spans engine) }
  in
  run.read_exceptions <- S.readback d ~first:(warmup + ops);
  run

let delta run name =
  let g t = Option.value (Hashtbl.find_opt t name) ~default:0.0 in
  g run.after -. g run.before

let reg_delta run name =
  let num = function
    | Some (Stats.Int i) -> float_of_int i
    | Some (Stats.Float x) -> x
    | Some (Stats.Dist d) -> float_of_int d.count
    | None -> 0.0
  in
  num (List.assoc_opt name run.reg_after) -. num (List.assoc_opt name run.reg_before)

(* Op-kind figures every store run prints; the traced run also reports
   them as per-layer metrics. *)
let op_rows spec run =
  let p = run.phase in
  let waf =
    if p.S.put_bytes = 0 then []
    else
      [ ("waf", ("ratio", float_of_int run.ssd_written /. float_of_int p.S.put_bytes,
                 Printf.sprintf "(%d SSD bytes / %d value bytes put)" run.ssd_written
                   p.S.put_bytes)) ]
  in
  latency_rows p.S.put ~tail:0.999 ~p50:"vt_put_p50_us" ~ptail:"vt_put_p999_us"
  @ latency_rows p.S.scan ~tail:0.99 ~p50:"vt_scan_p50_us" ~ptail:"vt_scan_p99_us"
  @ latency_rows p.S.batch ~tail:0.999 ~p50:"vt_batch_p50_us" ~ptail:"vt_batch_p999_us"
  @ waf
  @
  if spec.S.txn_every > 0 then
    let batches = p.S.commits + p.S.aborts in
    [ ("cluster.abort_frac",
       ("ratio", float_of_int p.S.aborts /. float_of_int (max 1 batches),
        Printf.sprintf "(%d aborted of %d batches, %d committed)" p.S.aborts batches
          p.S.commits)) ]
  else []

(* Wrong results and the accounting behind [correct]/[failed]: every
   op of the warm-up, the measured phase and the read-back counts. *)
let verdict spec run =
  let phases = run.phase :: Option.to_list run.warm in
  let sum f = List.fold_left (fun a p -> a + f p) 0 phases in
  let exceptions = sum (fun p -> p.S.exceptions) + run.read_exceptions in
  let aborts = sum (fun p -> p.S.aborts) in
  let attempted = sum (fun p -> p.S.ops) + spec.S.records in
  List.iter
    (fun p ->
      if p.S.first_exn <> "" then
        Printf.printf "exceptions: %d (first: %s)\n" p.S.exceptions p.S.first_exn)
    phases;
  let wrong, correct =
    match run.oracle with
    | None ->
        print_endline "oracle: off (--oracle 0): results unchecked";
        (0, false)
    | Some o ->
        Oracle.print_findings o;
        Printf.printf
          "oracle: %d values checked; stale=%d missing=%d foreign_or_torn=%d \
           scan_shape=%d; %d of %d ops wrong\n"
          o.Oracle.checked o.Oracle.stale o.Oracle.missing o.Oracle.foreign_or_torn
          o.Oracle.scan_shape (Oracle.failed_ops o) attempted;
        (* [correct]: every op returned and every value went through the
           oracle; wrong results are counted in [failed], not hidden *)
        let reads = sum (fun p -> Samples.count p.S.get) + spec.S.records in
        ( Oracle.failed_ops o,
          Oracle.pending_batches o = 0
          && o.Oracle.checked >= reads - exceptions
          && reg_delta run "net.dropped" = 0.0 )
  in
  let failed = wrong + exceptions + aborts in
  Printf.printf
    "ops_failed_frac: %d failed of %d attempted (%d wrong results, %d exceptions, \
     %d aborted batches)\n"
    failed attempted wrong exceptions aborts;
  (correct, attempted, failed)

let store_e2e spec =
  let ops = spec.S.ops_per_second * !seconds in
  let setups = ref [] in
  let sut = ref None in
  for _ = 1 to setup_reps do
    sut := None;
    Gc.full_major ();
    let s, t = setup spec ~ops in
    setups := t :: !setups;
    sut := Some s
  done;
  let sut = Option.get !sut in
  let run = measure spec sut ~ops ~traced:false in
  let p = run.phase in
  Out.emit "host_ops_per_s" "ops/s" (float_of_int ops /. p.S.nominal_s)
    ~note:(Printf.sprintf "(%d ops in %.3f s CPU at reference speed, %.3f s as measured)"
             ops p.S.nominal_s p.S.host_s);
  Out.emit "setup_s" "s" (Samples.median !setups)
    ~note:(Printf.sprintf "(median of %d)" (List.length !setups));
  Out.emit "peak_rss_mb" "MiB" (Host.peak_rss_mb ());
  Out.emit "vt_kops" "kops/s" (float_of_int ops /. p.S.vt_s /. 1e3)
    ~note:(Printf.sprintf "(%.6f virtual s)" p.S.vt_s);
  emit_get_latency p.S.get;
  let live = float_of_int (spec.S.records * S.value_size) in
  Out.emit "space_amp" "ratio" (S.bytes_held run.sut /. live)
    ~note:(Printf.sprintf "(%d live keys x %d B)" spec.S.records S.value_size);
  print_rows (op_rows spec run);
  verdict spec run

(* ---- the traced run ---- *)

let store_traced spec =
  let ops = spec.S.ops_per_second * !seconds in
  (* untraced twin, for the tracing overhead *)
  let untraced =
    let sut, _ = setup spec ~ops in
    (measure spec sut ~ops ~traced:false).phase
  in
  Gc.full_major ();
  let sut, _ = setup spec ~ops in
  let run = measure spec sut ~ops ~traced:true in
  let p = run.phase in
  let fops = float_of_int ops in
  let per_op x = x /. fops and per_kop x = x *. 1e3 /. fops in
  let d = delta run in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let gets = d "prism.ops.gets" and puts = d "prism.ops.puts" in
  (* value lookups: every get and every item a scan returned *)
  let lookups = gets +. float_of_int p.S.scanned in
  let per_lookup unit_ name =
    (unit_, ratio (d name) lookups, Printf.sprintf "(per value lookup: %.0f gets + %d scanned items)" gets p.S.scanned)
  in
  let sum_vs suffix =
    Hashtbl.fold
      (fun n _ acc ->
        if String.starts_with ~prefix:"prism.vs." n && String.ends_with ~suffix n
        then acc +. d n
        else acc)
      run.after 0.0
  in
  let vs_live =
    Hashtbl.fold
      (fun n v acc ->
        if String.starts_with ~prefix:"prism.vs." n && String.ends_with ~suffix:".live_bytes" n
        then acc +. v
        else acc)
      run.after 0.0
  in
  let span name =
    match List.find_opt (fun (n, _, _, _) -> n = name) run.spans with
    | Some (_, count, total, _) ->
        ("ms/kop", per_kop (total *. 1e3), Printf.sprintf "(%d spans, %.6f virtual s)" count total)
    | None -> ("ms/kop", 0.0, "(no spans)")
  in
  (* layer host costs at this workload's sizes *)
  let keys = if spec.S.shards = 0 then spec.S.records else spec.S.records / spec.S.shards in
  let ns_event = Layers.engine_ns_per_event () in
  let bt = Layers.btree ~keys ~scan_len:spec.S.mix.Prism_workload.Ycsb.scan_len ~seed:!seed in
  let hsit = Layers.hsit_read_primary ~keys ~seed:!seed in
  let nvm = Layers.nvm_write_persist ~value_size:S.value_size in
  let next_ns =
    Layers.ycsb_next ~mix:spec.S.mix ~records:spec.S.records ~theta:spec.S.theta ~seed:!seed
  in
  let check_ns = Layers.oracle_check ~records:spec.S.records ~value_size:S.value_size in
  let host_ns_op = untraced.S.host_s *. 1e9 /. fops in
  let events_op = per_op (float_of_int run.events) in
  let persists = d "prism.device.nvm.persists" in
  let ledger =
    [ ("engine dispatch", events_op *. ns_event);
      ("btree find+scan",
       (per_op (gets +. puts) *. bt.Layers.ns_per_find)
       +. (per_op (d "prism.ops.scans") *. bt.Layers.ns_per_scan));
      ("hsit read_primary (self)",
       per_op lookups *. Layers.self hsit ~ns_per_event:ns_event);
      ("nvm write_persist (self)", per_op persists *. Layers.self nvm ~ns_per_event:ns_event);
      ("client: Ycsb.next", next_ns);
      ("client: oracle checks", per_op lookups *. check_ns) ]
  in
  let explained = List.fold_left (fun a (_, ns) -> a +. ns) 0.0 ledger in
  List.iter (fun (row, ns) -> Printf.printf "ledger %-26s %10.1f ns/op\n" row ns) ledger;
  Printf.printf "ledger %-26s %10.1f ns/op (host %.1f ns/op untraced)\n" "residual"
    (host_ns_op -. explained) host_ns_op;
  let with_unit u v = (u, v, "") in
  let store_rows =
    [ ("nvm.persists_per_put", with_unit "persists/put" (ratio persists puts));
      ("nvm.bytes_written_per_op", with_unit "B/op" (per_op (d "prism.device.nvm.bytes_written")));
      ("nvm.bytes_read_per_op", with_unit "B/op" (per_op (d "prism.device.nvm.bytes_read")));
      ("pwb.hit_frac", per_lookup "ratio" "prism.pwb.hits");
      ("pwb.max_utilization",
       with_unit "ratio" (Option.value (Hashtbl.find_opt run.after "prism.pwb.max_utilization") ~default:0.0));
      ("reclaim.migrated_per_put", with_unit "values/put" (ratio (d "prism.reclaim.migrated") puts));
      ("reclaim.dead_frac",
       with_unit "ratio"
         (ratio (d "prism.reclaim.dead") (d "prism.reclaim.dead" +. d "prism.reclaim.migrated")));
      ("vs.reads_per_get", per_lookup "reads/lookup" "prism.vs.reads");
      ("vs.gc_runs_per_kop", with_unit "runs/kop" (per_kop (d "prism.vs_gc.runs")));
      ("vs.live_bytes", with_unit "B" vs_live);
      ("svc.hit_frac", per_lookup "ratio" "prism.svc.hits");
      ("svc.evictions_per_kop", with_unit "evictions/kop" (per_kop (d "prism.svc.evictions")));
      ("svc.reorgs_per_kop", with_unit "reorgs/kop" (per_kop (d "prism.svc.reorgs")));
      ("tcq.mean_batch", with_unit "reqs/batch" (ratio (d "prism.tcq.requests") (d "prism.tcq.batches")));
      ("tcq.requests_per_op", with_unit "reqs/op" (per_op (d "prism.tcq.requests")));
      ("uring.sqes_per_submit", with_unit "sqes/submit" (ratio (sum_vs ".uring.sqes") (sum_vs ".uring.submits")));
      ("ssd.reads_per_op", with_unit "reads/op" (per_op (sum_vs ".dev.reads")));
      ("ssd.bytes_read_per_op", with_unit "B/op" (per_op (d "prism.device.ssd.bytes_read")));
      ("ssd.bytes_written_per_op", with_unit "B/op" (per_op (float_of_int run.ssd_written)));
      ("span.vs_gc.vt_ms_per_kop", span "vs.gc");
      ("span.reclaimer_pass.vt_ms_per_kop", span "reclaimer.pass") ]
  in
  let net_rows =
    if spec.S.shards = 0 then []
    else
      let batches = float_of_int (p.S.commits + p.S.aborts) in
      [ ("net.msgs_per_op", with_unit "msgs/op" (per_op (reg_delta run "net.msgs")));
        ("net.bytes_per_op", with_unit "B/op" (per_op (reg_delta run "net.bytes")));
        ("net.dropped", with_unit "count" (reg_delta run "net.dropped"));
        ("cluster.prepares_per_batch",
         with_unit "prepares/batch" (ratio (reg_delta run "prism.cluster.txn.prepares") batches)) ]
  in
  let o = run.oracle in
  let ocount f = float_of_int (Option.fold ~none:0 ~some:f o) in
  let correct, attempted, failed = verdict spec run in
  let produced =
    [ ("engine.events_per_op", with_unit "events/op" events_op);
      ("engine.host_ns_per_event", with_unit "ns/event" ns_event);
      ("gc.minor_words_per_op", with_unit "words/op" (per_op run.minor_words));
      ("gc.major_collections", with_unit "count" (float_of_int run.major_collections));
      ("btree.host_ns_per_find", ("ns/find", bt.Layers.ns_per_find, Printf.sprintf "(%d keys)" keys));
      ("btree.host_ns_per_scan",
       ("ns/scan", bt.Layers.ns_per_scan,
        Printf.sprintf "(%d keys, %d items)" keys spec.S.mix.Prism_workload.Ycsb.scan_len));
      ("btree.nodes_read_per_find", ("nodes/find", bt.Layers.nodes_per_find, Printf.sprintf "(%d keys)" keys));
      ("hsit.host_ns_per_read_primary",
       ("ns/call", hsit.Layers.ns_per_call,
        Printf.sprintf "(%.2f engine events/call)" hsit.Layers.events_per_call));
      ("nvm.host_ns_per_write_persist",
       ("ns/call", nvm.Layers.ns_per_call,
        Printf.sprintf "(%.2f engine events/call)" nvm.Layers.events_per_call));
      ("ledger.explained_frac",
       ("ratio", explained /. host_ns_op,
        Printf.sprintf "(%.1f of %.1f ns/op; target 0.85, reported not gated)" explained host_ns_op));
      ("ledger.residual_ns_per_op", with_unit "ns/op" (host_ns_op -. explained));
      ("trace.overhead_frac",
       ("ratio", (p.S.nominal_s /. untraced.S.nominal_s) -. 1.0,
        Printf.sprintf "(traced %.3f s vs untraced %.3f s CPU at reference speed)"
          p.S.nominal_s untraced.S.nominal_s));
      ("oracle.stale", with_unit "count" (ocount (fun o -> o.Oracle.stale)));
      ("oracle.missing", with_unit "count" (ocount (fun o -> o.Oracle.missing)));
      ("oracle.foreign_or_torn", with_unit "count" (ocount (fun o -> o.Oracle.foreign_or_torn)));
      ("oracle.scan_shape", with_unit "count" (ocount (fun o -> o.Oracle.scan_shape)));
      ("ops_failed_frac",
       ("ratio", float_of_int failed /. float_of_int attempted,
        Printf.sprintf "(%d of %d)" failed attempted)) ]
    @ store_rows
    @ net_rows @ op_rows spec run
    @ p50_row "vt_get_p50_us" p.S.get
  in
  let absent name =
    if String.starts_with ~prefix:"check" name then "this workload runs no checker"
    else if String.starts_with ~prefix:"net." name || String.starts_with ~prefix:"cluster." name
    then "single store, no network or 2PC"
    else if String.starts_with ~prefix:"vt_put" name || name = "waf" then "no puts in this workload"
    else if String.starts_with ~prefix:"vt_scan" name then "no scans in this workload"
    else "no 2PC batches in this workload"
  in
  emit_layers produced ~absent;
  (correct, attempted, failed)

(* ---- check-dpor ---- *)

let check_run ~traced =
  let cfg0 = C.config ~seed:!seed ~round:0 in
  (* set-ups too short to meter one by one: their median, scaled by the
     machine's slowdown over all of them *)
  let m = Host.meter () in
  let raw =
    List.init 101 (fun _ ->
        let (), t = Host.timed (fun () -> C.setup_once cfg0) in
        Host.tick m;
        t)
  in
  ignore (Host.stop m);
  let setups = List.map (fun t -> t /. Host.slowdown m) raw in
  Printf.printf
    "setup: %.6f s CPU at reference speed, %.6f s as measured, median of %d (store build \
     and preload of %d keys)\n%!"
    (Samples.median setups) (Samples.median raw) (List.length setups)
    cfg0.Prism_check.Explore.records;
  (* DPOR explorations: the measured phase *)
  let rounds = C.rounds_per_second * !seconds in
  let classes = ref 0 and runs = ref 0 and pruned = ref 0 in
  let dpor_s = ref 0.0 and dpor_raw_s = ref 0.0 in
  let intervals = ref [] and failures = ref [] in
  let rss_per_class = ref 0.0 in
  for r = 0 to rounds - 1 do
    let cfg = C.config ~seed:!seed ~round:r in
    let rss0 = Host.rss_mb () in
    let m = Host.meter () in
    let last = ref (Host.cpu_s ()) in
    let report =
      Prism_check.Explore.run_dpor ~max_classes:C.classes_per_round
        ~progress:(fun _ ->
          intervals := (Host.cpu_s () -. !last) :: !intervals;
          Host.tick m;
          last := Host.cpu_s ())
        cfg
    in
    let t = Host.stop m in
    if r = 0 then
      rss_per_class :=
        (Host.peak_rss_mb () -. rss0) /. float_of_int (max 1 report.Prism_check.Explore.classes);
    classes := !classes + report.Prism_check.Explore.classes;
    runs := !runs + report.Prism_check.Explore.runs;
    pruned := !pruned + report.Prism_check.Explore.pruned;
    dpor_s := !dpor_s +. t;
    dpor_raw_s := !dpor_raw_s +. m.Host.prog_s;
    (* the exploration's per-class state is garbage now: free it before
       the next one so the peak stays one exploration's *)
    Gc.full_major ();
    List.iter
      (fun f ->
        failures :=
          Printf.sprintf "DPOR seed %Ld class %d: %s" cfg.Prism_check.Explore.seed
            f.Prism_check.Explore.class_index f.Prism_check.Explore.violation
          :: !failures)
      report.Prism_check.Explore.dpor_failures
  done;
  let per_class = C.ops_per_class cfg0 in
  (* seeded schedules *)
  let schedules = C.seeded_per_second * !seconds in
  let seeded, seeded_s =
    Host.timed (fun () -> Prism_check.Explore.run ~schedules cfg0)
  in
  List.iter
    (fun f ->
      failures :=
        Printf.sprintf "seeded schedule %d: %s" f.Prism_check.Explore.stats.Prism_check.Explore.index
          f.Prism_check.Explore.violation
        :: !failures)
    seeded.Prism_check.Explore.failures;
  (* recorded runs: virtual-time latencies and Linearize.check timing *)
  let recorded = C.recorded_per_second * !seconds in
  let get = Samples.create () and put = Samples.create () and scan = Samples.create () in
  let vt = ref 0.0 and nops = ref 0 and lin_s = ref [] and amps = ref [] and sim_s = ref 0.0 in
  for i = 0 to recorded - 1 do
    let cfg = C.config ~seed:!seed ~round:i in
    let r, t =
      Host.timed (fun () ->
          C.record_run cfg ~tie_seed:(Prism_check.Explore.tie_seed_for cfg.Prism_check.Explore.seed i))
    in
    sim_s := !sim_s +. (t -. r.C.linearize_s);
    lin_s := r.C.linearize_s :: !lin_s;
    amps := r.C.space_amp :: !amps;
    vt := !vt +. (r.C.finish -. r.C.start);
    Array.iter
      (fun e ->
        incr nops;
        let l = e.Prism_check.History.resp_time -. e.Prism_check.History.inv_time in
        match e.Prism_check.History.call with
        | Prism_check.History.Get _ -> Samples.add get l
        | Prism_check.History.Put _ -> Samples.add put l
        | Prism_check.History.Scan _ -> Samples.add scan l
        | _ -> ())
      r.C.events;
    Option.iter
      (fun v -> failures := Printf.sprintf "recorded run %d: %s" i v :: !failures)
      r.C.violation
  done;
  List.iter (fun f -> Printf.printf "WRONG %s\n" f) (List.rev !failures);
  let attempted = !classes + schedules + recorded in
  let failed = List.length !failures in
  Printf.printf
    "checker: %d DPOR classes in %d runs (%d pruned) over %d explorations of %d \
     classes; %d seeded schedules; %d recorded runs; %d violations\n"
    !classes !runs !pruned rounds C.classes_per_round schedules recorded failed;
  let classes_per_s = float_of_int !classes /. !dpor_s in
  if not traced then begin
    Out.emit "host_ops_per_s" "ops/s" (float_of_int (!classes * per_class) /. !dpor_s)
      ~note:(Printf.sprintf
               "(%d explorations; %d classes x %d ops in %.3f s CPU at reference speed, %.3f s \
                as measured)"
               rounds !classes per_class !dpor_s !dpor_raw_s);
    Out.emit "setup_s" "s" (Samples.median setups)
      ~note:(Printf.sprintf "(median of %d)" (List.length setups));
    Out.emit "peak_rss_mb" "MiB" (Host.peak_rss_mb ());
    Out.emit "vt_kops" "kops/s" (float_of_int !nops /. !vt /. 1e3)
      ~note:(Printf.sprintf "(%d recorded ops in %.6f virtual s)" !nops !vt);
    emit_get_latency get;
    Out.emit "space_amp" "ratio" (Samples.median !amps)
      ~note:(Printf.sprintf "(median over %d recorded runs)" recorded);
    Out.info "check_classes_per_s" "classes/s" classes_per_s
  end
  else begin
    let ms x = x *. 1e3 in
    let dpor_ms = ms (Samples.median !intervals) in
    let seeded_ms = ms (seeded_s /. float_of_int schedules) in
    let produced =
      [ ("check.host_ms_per_dpor_run",
         ("ms/run", dpor_ms, Printf.sprintf "(median of %d progress intervals)" (List.length !intervals)));
        ("check.host_ms_per_seeded_run", ("ms/run", seeded_ms, Printf.sprintf "(%d schedules)" schedules));
        ("check.host_ms_per_linearize",
         ("ms/check", ms (Samples.median !lin_s), Printf.sprintf "(median of %d recorded runs)" recorded));
        ("check.dpor_overhead_ms_per_run", ("ms/run", dpor_ms -. seeded_ms, "(DPOR run - seeded run)"));
        ("check.runs_per_class", ("runs/class", float_of_int !runs /. float_of_int !classes, ""));
        ("check.pruned_frac", ("ratio", float_of_int !pruned /. float_of_int !runs, ""));
        ("check.rss_mb_per_class", ("MiB/class", !rss_per_class, "(first exploration's peak RSS growth)"));
        ("check_classes_per_s", ("classes/s", classes_per_s, ""));
        ("ops_failed_frac",
         ("ratio", float_of_int failed /. float_of_int attempted, Printf.sprintf "(%d of %d)" failed attempted)) ]
      @ p50_row "vt_get_p50_us" get
      @ latency_rows put ~tail:0.999 ~p50:"vt_put_p50_us" ~ptail:"vt_put_p999_us"
      @ latency_rows scan ~tail:0.99 ~p50:"vt_scan_p50_us" ~ptail:"vt_scan_p99_us"
    in
    Printf.printf "checker host split: simulate %.3f s in recorded runs, linearize %.3f s\n"
      !sim_s (List.fold_left ( +. ) 0.0 !lin_s);
    emit_layers produced ~absent:(fun _ -> "measured on the store workloads")
  end;
  (true, attempted, failed)

(* ---- main ---- *)

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  (* [Setup.gc_tune]'s 16 MB minor heap, with the default major-heap
     pacing: peak RSS then tracks live data instead of collector slack *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 };
  print_endline (Host.stamp ~rev:!rev ~seed:!seed ~workload:!workload);
  let traced = !trace = 1 in
  let correct, attempted, failed =
    match !workload with
    | "nutanix" | "read-uniform" | "cluster-2pc" ->
        let spec =
          match !workload with
          | "nutanix" -> S.nutanix
          | "read-uniform" -> S.read_uniform
          | _ -> S.cluster_2pc
        in
        let spec =
          { spec with
            S.records = (if !records > 0 then !records else spec.S.records);
            clients = (if !clients > 0 then !clients else spec.S.clients);
            store =
              (match !store with
              | "prism" -> `Prism
              | "rocksdb-nvm" when spec.S.shards = 0 -> `Rocksdb_nvm
              | "matrixkv" when spec.S.shards = 0 -> `Matrixkv
              | s -> failwith ("--store " ^ s ^ " is not available on " ^ spec.S.wname)) }
        in
        Printf.printf "workload %s on %s: %d records x %d B, %d clients (closed loop), %d SSDs/node%s\n%!"
          spec.S.wname !store spec.S.records S.value_size spec.S.clients S.num_ssds
          (if spec.S.shards > 0 then Printf.sprintf ", %d shards, 2PC every %d updates"
               spec.S.shards spec.S.txn_every else "");
        if traced then store_traced spec else store_e2e spec
    | "check-dpor" -> check_run ~traced
    | w -> failwith ("unknown --workload " ^ w)
  in
  Out.final ~correct ~attempted ~failed
