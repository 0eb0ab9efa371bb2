(* Per-key result oracle.

   Every value a store workload writes is [Ycsb.value_for ~key ~version]
   with a version that names exactly one write (LOAD writes version 0 of
   every key; later versions are unique across the run). The oracle
   remembers each write's virtual-time interval and checks every value a
   get or scan returns:

   - foreign_or_torn: the bytes are not [value_for ~key ~version] for the
     version in their header, or that version was never written to that
     key by a write that started before the read ended, or it belongs to
     an aborted batch;
   - stale: some other write on the key started after the returned
     version's write ended and ended before the read started;
   - missing: a get or scan of a loaded key found nothing (the key set is
     fixed: no workload inserts or deletes);
   - scan_shape: a scan did not return exactly the min(len, remaining)
     consecutive keys from its start key, in order.

   It reads only the virtual times its caller passes in, so it cannot
   perturb a simulation. *)

open Prism_workload

type state = Pending | Done | Aborted

type write = {
  w_key : int;
  w_start : float;
  mutable w_end : float;
  mutable w_state : state;
  w_batch : bool;
}

(* Completed writes of one key in completion order, with the running
   maximum of their start times: "did a write that ended before [rs]
   start after [ve]?" is one binary search. *)
type key_log = {
  mutable n : int;
  mutable ends : float array;
  mutable pmax : float array;
  mutable starts : float array;
  mutable vers : int array;
}

type finding = {
  f_op : int;
  f_kind : string;
  f_text : string;
}

type t = {
  value_size : int;
  records : int;
  load_end : float;
  writes : (int, write) Hashtbl.t;
  logs : key_log array;
  (* reads that returned a version of a batch still in flight: judged
     when the batch resolves *)
  deferred : (int, int * string * float * float) Hashtbl.t;
  failed_ops : (int, unit) Hashtbl.t;
  mutable findings : finding list;  (* newest first *)
  mutable n_findings : int;
  mutable stale : int;
  mutable missing : int;
  mutable foreign_or_torn : int;
  mutable scan_shape : int;
  mutable checked : int;
}

let create ~records ~value_size ~load_end =
  {
    value_size;
    records;
    load_end;
    writes = Hashtbl.create 65536;
    logs =
      Array.init records (fun _ ->
          { n = 0; ends = [||]; pmax = [||]; starts = [||]; vers = [||] });
    deferred = Hashtbl.create 16;
    failed_ops = Hashtbl.create 16;
    findings = [];
    n_findings = 0;
    stale = 0;
    missing = 0;
    foreign_or_torn = 0;
    scan_shape = 0;
    checked = 0;
  }

(* Keys are [Ycsb.key_of i] = "user" ^ 12-digit ordinal. *)
let ordinal key =
  if String.length key = 16 && String.sub key 0 4 = "user" then
    int_of_string_opt (String.sub key 4 12)
  else None

let flag t ~op kind text =
  Hashtbl.replace t.failed_ops op ();
  t.n_findings <- t.n_findings + 1;
  (match kind with
  | "stale" -> t.stale <- t.stale + 1
  | "missing" -> t.missing <- t.missing + 1
  | "scan_shape" -> t.scan_shape <- t.scan_shape + 1
  | _ -> t.foreign_or_torn <- t.foreign_or_torn + 1);
  t.findings <- { f_op = op; f_kind = kind; f_text = text } :: t.findings

let write_begin t ~key ~version ~start ~batch =
  match ordinal key with
  | Some k when k < t.records ->
      Hashtbl.replace t.writes version
        { w_key = k; w_start = start; w_end = nan; w_state = Pending;
          w_batch = batch }
  | _ -> invalid_arg ("Oracle.write_begin: key outside the loaded set: " ^ key)

let grow a n fill =
  let b = Array.make (max 16 (2 * n)) fill in
  Array.blit a 0 b 0 n;
  b

let append_log l ~start ~end_ ~version =
  if l.n = Array.length l.ends then begin
    l.ends <- grow l.ends l.n 0.0;
    l.pmax <- grow l.pmax l.n 0.0;
    l.starts <- grow l.starts l.n 0.0;
    l.vers <- grow l.vers l.n 0
  end;
  let i = l.n in
  l.ends.(i) <- end_;
  l.pmax.(i) <- (if i = 0 then start else Float.max start l.pmax.(i - 1));
  l.starts.(i) <- start;
  l.vers.(i) <- version;
  l.n <- i + 1

(* [write_end t ~version ~end_ ~committed]: the write returned at [end_].
   A committed write becomes visible history; an aborted one must never
   be observed, and reads that already returned it are flagged now. *)
let write_end t ~version ~end_ ~committed =
  match Hashtbl.find_opt t.writes version with
  | None -> invalid_arg "Oracle.write_end: unknown version"
  | Some w ->
      w.w_end <- end_;
      if committed then begin
        w.w_state <- Done;
        append_log t.logs.(w.w_key) ~start:w.w_start ~end_ ~version
      end
      else w.w_state <- Aborted;
      List.iter
        (fun (op, key, rs, re) ->
          if not committed then
            flag t ~op "foreign"
              (Printf.sprintf
                 "key=%s returned v=%d of a batch that aborted at %.9f s \
                  (read [%.9f, %.9f] s)"
                 key version end_ rs re))
        (Hashtbl.find_all t.deferred version);
      while Hashtbl.mem t.deferred version do
        Hashtbl.remove t.deferred version
      done

(* Last completed write of [l] that ended strictly before [rs]. *)
let last_before l rs =
  let lo = ref 0 and hi = ref l.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if l.ends.(mid) < rs then lo := mid + 1 else hi := mid
  done;
  !lo - 1

let value_matches t ~key ~version value =
  Bytes.length value = t.value_size
  && Bytes.equal value (Ycsb.value_for ~size:t.value_size ~key ~version)

(* Check one returned value of a read op spanning [rs, re]. *)
let check_value t ~op ~key ~rs ~re value =
  t.checked <- t.checked + 1;
  match (ordinal key, Ycsb.version_of value) with
  | None, _ | Some _, None ->
      flag t ~op "foreign"
        (Printf.sprintf "key=%s returned unparseable bytes (read [%.9f, %.9f] s)"
           key rs re)
  | Some k, Some version -> (
      if k >= t.records || not (value_matches t ~key ~version value) then
        flag t ~op "torn"
          (Printf.sprintf
             "key=%s returned bytes that are not value_for v=%d (read [%.9f, \
              %.9f] s)"
             key version rs re)
      else
        let ended =
          if version = 0 then Some t.load_end
          else
            match Hashtbl.find_opt t.writes version with
            | Some w when w.w_key = k && w.w_start <= re -> (
                match w.w_state with
                | Done -> Some w.w_end
                | Pending ->
                    if w.w_batch then Hashtbl.add t.deferred version (op, key, rs, re);
                    None
                | Aborted ->
                    flag t ~op "foreign"
                      (Printf.sprintf
                         "key=%s returned v=%d of an aborted batch (read [%.9f, \
                          %.9f] s)"
                         key version rs re);
                    None)
            | _ ->
                flag t ~op "foreign"
                  (Printf.sprintf
                     "key=%s returned v=%d, never written to this key before \
                      the read ended (read [%.9f, %.9f] s)"
                     key version rs re);
                None
        in
        match ended with
        | None -> ()
        | Some ve ->
            let l = t.logs.(k) in
            let i = last_before l rs in
            if i >= 0 && l.pmax.(i) > ve then begin
              (* witness: the latest-ending newer write before the read *)
              let j = ref i in
              while l.starts.(!j) <= ve do
                decr j
              done;
              let vstart =
                if version = 0 then neg_infinity
                else (Hashtbl.find t.writes version).w_start
              in
              flag t ~op "stale"
                (Printf.sprintf
                   "key=%s returned v=%d (written [%.9f, %.9f] s) but v=%d was \
                    written [%.9f, %.9f] s, before the read [%.9f, %.9f] s \
                    started"
                   key version vstart ve l.vers.(!j) l.starts.(!j) l.ends.(!j)
                   rs re)
            end)

let check_get t ~op ~key ~rs ~re = function
  | Some v -> check_value t ~op ~key ~rs ~re v
  | None ->
      t.checked <- t.checked + 1;
      flag t ~op "missing"
        (Printf.sprintf "key=%s not found (read [%.9f, %.9f] s)" key rs re)

let check_scan t ~op ~key ~len ~rs ~re items =
  (match ordinal key with
  | None -> invalid_arg "Oracle.check_scan: start key outside the loaded set"
  | Some s ->
      let expect = max 0 (min len (t.records - s)) in
      let rec shape i = function
        | [] -> i = expect
        | (k, _) :: rest -> i < expect && k = Ycsb.key_of (s + i) && shape (i + 1) rest
      in
      if not (shape 0 items) then
        flag t ~op "scan_shape"
          (Printf.sprintf
             "scan from %s len %d returned %d items, expected the %d \
              consecutive keys %s.. (scan [%.9f, %.9f] s)"
             key len (List.length items) expect key rs re));
  List.iter (fun (k, v) -> check_value t ~op ~key:k ~rs ~re v) items

let failed_ops t = Hashtbl.length t.failed_ops

let pending_batches t = Hashtbl.length t.deferred

(* Print every finding (oldest first), up to [cap] lines. *)
let print_findings ?(cap = 50) t =
  let all = List.rev t.findings in
  List.iteri
    (fun i f ->
      if i < cap then Printf.printf "WRONG %s op=%d %s\n" f.f_kind f.f_op f.f_text)
    all;
  if t.n_findings > cap then
    Printf.printf "WRONG ... %d more findings not printed\n" (t.n_findings - cap)
