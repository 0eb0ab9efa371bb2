(* Host-side measurements: process CPU time, resident memory and the
   stamp every report carries. Nothing here touches a simulation. *)

(* User + system CPU seconds of this process (getrusage resolution). *)
let cpu_s () = Sys.time ()

(* [timed f] is [f ()] and the CPU seconds it took. *)
let timed f =
  let t0 = cpu_s () in
  let r = f () in
  (r, cpu_s () -. t0)

let status_kib field =
  let prefix = field ^ ":" in
  let plen = String.length prefix in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.length line > plen && String.sub line 0 plen = prefix
          ->
            Scanf.sscanf (String.sub line plen (String.length line - plen))
              " %d" Fun.id
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Peak resident set (VmHWM) and current resident set, in MiB. *)
let peak_rss_mb () = float_of_int (status_kib "VmHWM") /. 1024.0

let rss_mb () = float_of_int (status_kib "VmRSS") /. 1024.0

let stamp ~rev ~seed ~workload =
  let g = Gc.get () in
  Printf.sprintf
    "host: nproc=%d ocaml=%s rev=%s seed=%d workload=%s \
     gc(minor_heap_words=%d space_overhead=%d) word_size=%d"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version rev seed workload g.Gc.minor_heap_size
    g.Gc.space_overhead Sys.word_size

(* ---- CPU time at a reference machine speed ----

   The host is a few vCPUs of a shared machine: the CPU time of a fixed
   job drifts by a third or more as neighbours come and go, over spans
   of seconds to minutes. A meter therefore interleaves a fixed
   reference job with the code it measures, every few tens of
   milliseconds, and scales the measured CPU time by how fast the
   reference ran beside it. The reference neither allocates on the
   OCaml heap nor touches the program's data, and it reloads its
   256 KiB into the cache in a small part of its run, so what the
   program does barely changes its cost; the machine's speed does. *)

let ref_buf =
  let n = 1 lsl 15 in
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set a i ((i * 40503) land (n - 1))
  done;
  a

let ref_sink = ref 0

(* The reference job: dependent loads and integer mixing over [ref_buf].
   Returns its CPU seconds. *)
let reference () =
  let a = ref_buf in
  let mask = Bigarray.Array1.dim a - 1 in
  let t0 = cpu_s () in
  let p = ref 0 and h = ref 0 in
  for i = 1 to 400_000 do
    p := (Bigarray.Array1.unsafe_get a !p + i) land mask;
    h := (!h lxor !p) * 0x2545F491
  done;
  ref_sink := !h;
  cpu_s () -. t0

(* The reference job's CPU seconds on a quiet 2-vCPU Intel Xeon at
   2.0 GHz (2.8-3.3 ms over 200 runs); a meter reports CPU time at this
   speed. *)
let reference_nominal_s = 0.003

type meter = {
  mutable prog_s : float;  (** CPU seconds of the measured code *)
  mutable ref_s : float;  (** CPU seconds of the reference runs *)
  mutable refs : int;
  mutable mark : float;  (** start of the current measured span *)
}

(* Start measuring, after one reference run. *)
let meter () =
  let r = reference () in
  { prog_s = 0.0; ref_s = r; refs = 1; mark = cpu_s () }

(* Close the current span, run the reference, open the next span. *)
let tick m =
  m.prog_s <- m.prog_s +. (cpu_s () -. m.mark);
  m.ref_s <- m.ref_s +. reference ();
  m.refs <- m.refs + 1;
  m.mark <- cpu_s ()

(* How much slower than nominal the machine ran during the meter's spans. *)
let slowdown m = m.ref_s /. float_of_int m.refs /. reference_nominal_s

let describe m =
  Printf.sprintf "%d reference runs of %.3f ms on average; slowdown %.3f" m.refs
    (m.ref_s /. float_of_int m.refs *. 1e3) (slowdown m)

(* [stop m] closes the meter (a last reference run included) and gives
   the measured CPU seconds scaled to the nominal speed. *)
let stop m =
  tick m;
  m.prog_s /. slowdown m
