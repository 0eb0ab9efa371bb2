(* Command-line pieces shared by the bench executables (main, perf,
   sweep, scenario, tier_sweep, cluster_sweep): each common flag is
   declared once here, so its name, default and meaning agree across
   tools. *)

open Cmdliner
open Prism_harness

let quick ~doc = Arg.(value & flag & info [ "quick" ] ~doc)

let json ~doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")

(* Write [contents] to [path] and say so on stdout. *)
let save ?what path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  match what with
  | Some what -> Printf.printf "wrote %s to %s\n" what path
  | None -> Printf.printf "wrote %s\n" path

(* An optional setting: [None] keeps the configuration's default. *)
let override c name doc = Arg.(value & opt (some c) None & info [ name ] ~doc)

let seed =
  Arg.(
    value & opt int64 0xC0FFEEL
    & info [ "seed" ]
        ~doc:"Seed; a given seed reproduces the output byte for byte")

(* The tuning is applied as the command line is evaluated. *)
let gc_tune =
  Term.(
    const (fun on -> if on then Setup.gc_tune ())
    $ Arg.(
        value & flag
        & info [ "gc-tune" ]
            ~doc:
              "Tune the host GC for simulation workloads (large minor heap); \
               wall-clock only, virtual-time results are unaffected"))

(* Lane count with the "0 = one per core" rule already applied. *)
let jobs ~what =
  Term.(
    const Prism_fleet.Fleet.jobs_of_flag
    $ Arg.(
        value & opt int 1
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:
              ("Worker domains running " ^ what
             ^ ". Output is byte-identical for any $(docv); 0 means one per \
                core.")))

let mix ~default =
  let open Prism_workload in
  let parse s =
    match Ycsb.mix_of_name s with
    | Some m -> Ok m
    | None -> Error (`Msg ("unknown mix " ^ s ^ " (use a|b|c|d|e|nutanix)"))
  in
  let print fmt m =
    Format.pp_print_string fmt (String.lowercase_ascii m.Ycsb.name)
  in
  Arg.(
    value
    & opt (conv (parse, print)) default
    & info [ "mix" ] ~doc:"Workload mix: a|b|c|d|e|nutanix")

(* A bad argument found after parsing: report it like a usage error. *)
let usage_error msg =
  Printf.eprintf "%s: %s\nTry '%s --help' for more information.\n"
    (Filename.basename Sys.executable_name)
    msg
    (Filename.basename Sys.executable_name);
  exit 2

(* The registered store for [name], or a usage error. *)
let store name =
  match Setup.of_name name with Ok make -> make | Error e -> usage_error e
