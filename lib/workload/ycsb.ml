open Prism_sim

type op =
  | Read of string
  | Update of string * bytes
  | Insert of string * bytes
  | Scan of string * int

type mix = {
  name : string;
  reads : float;
  updates : float;
  inserts : float;
  scans : float;
  latest : bool;
  scan_len : int;
}

let base =
  {
    name = "";
    reads = 0.0;
    updates = 0.0;
    inserts = 0.0;
    scans = 0.0;
    latest = false;
    scan_len = 50;
  }

let ycsb_a = { base with name = "A"; reads = 0.5; updates = 0.5 }

let ycsb_b = { base with name = "B"; reads = 0.95; updates = 0.05 }

let ycsb_c = { base with name = "C"; reads = 1.0 }

let ycsb_d = { base with name = "D"; reads = 0.95; updates = 0.05; latest = true }

let ycsb_e = { base with name = "E"; scans = 0.95; updates = 0.05 }

let nutanix =
  { base with name = "Nutanix"; reads = 0.41; updates = 0.57; scans = 0.02 }

let all_ycsb = [ ycsb_a; ycsb_b; ycsb_c; ycsb_d; ycsb_e ]

let mix_of_name name =
  List.find_opt
    (fun m -> String.lowercase_ascii m.name = String.lowercase_ascii name)
    (nutanix :: all_ycsb)

let key_of i = Printf.sprintf "user%012d" i

(* Payload: "<version>|<key>|" then a repeating fill derived from both, so
   torn or misplaced data is detectable. *)
let value_for ~size ~key ~version =
  let header = Printf.sprintf "%d|%s|" version key in
  let b = Bytes.make size 'z' in
  let n = min size (String.length header) in
  Bytes.blit_string header 0 b 0 n;
  if size > n then begin
    let fill =
      Char.chr (97 + ((version + String.length key) mod 26))
    in
    Bytes.fill b n (size - n) fill
  end;
  b

let version_of v =
  match Bytes.index_opt v '|' with
  | None -> None
  | Some i -> int_of_string_opt (Bytes.sub_string v 0 i)

type t = {
  mix : mix;
  rng : Rng.t;
  zipf : Zipfian.t;
  value_size : int;
  mutable records : int;
  mutable versions : int;
}

let create mix ~records ~theta ~value_size rng =
  if records <= 0 then invalid_arg "Ycsb.create: records <= 0";
  {
    mix;
    rng;
    zipf = Zipfian.create ~items:records ~theta rng;
    value_size;
    records;
    versions = 0;
  }

let records t = t.records

let pick_key t =
  if t.mix.latest then begin
    (* YCSB "latest": rank 0 maps to the most recent record. *)
    Zipfian.grow t.zipf ~items:t.records;
    let rank = Zipfian.next_rank t.zipf in
    key_of (t.records - 1 - rank)
  end
  else key_of (Zipfian.next_scrambled t.zipf)

let fresh_value t key =
  t.versions <- t.versions + 1;
  value_for ~size:t.value_size ~key ~version:t.versions

let next t =
  let u = Rng.float t.rng in
  let m = t.mix in
  if u < m.reads then Read (pick_key t)
  else if u < m.reads +. m.updates then begin
    let key = pick_key t in
    Update (key, fresh_value t key)
  end
  else if u < m.reads +. m.updates +. m.inserts then begin
    let key = key_of t.records in
    t.records <- t.records + 1;
    Insert (key, fresh_value t key)
  end
  else begin
    (* Scan length uniform in [1, 2*avg), mean = avg (YCSB uses uniform
       up to a max; the paper reports the average length 50). *)
    let len = 1 + Rng.int t.rng (2 * m.scan_len) in
    Scan (pick_key t, len)
  end

let load_order ~records rng =
  let order = Array.init records (fun i -> i) in
  Rng.shuffle rng order;
  order
