(* Tests for the media layer: NVM flush/fence semantics, crash behaviour,
   atomic RMW, and the SSD image. *)

open Prism_sim
open Prism_media
open Prism_device
open Helpers

let make_nvm ?(size = 64 * 1024) e =
  Nvm.create e ~spec:Spec.optane_dcpmm ~size ()

(* ---- basic read/write ---- *)

let test_nvm_write_read_roundtrip () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      let data = Bytes.of_string "hello nvm" in
      Nvm.write nvm ~off:100 data;
      Alcotest.check bytes_eq "roundtrip" data
        (Nvm.read nvm ~off:100 ~len:(Bytes.length data)))

let test_nvm_bounds_checked () =
  in_sim (fun e ->
      let nvm = make_nvm ~size:4096 e in
      (try
         Nvm.write nvm ~off:4090 (Bytes.make 16 'x');
         Alcotest.fail "expected out-of-range failure"
       with Invalid_argument _ -> ());
      try
        ignore (Nvm.read nvm ~off:(-1) ~len:4);
        Alcotest.fail "expected negative offset failure"
      with Invalid_argument _ -> ())

let test_nvm_charges_time () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      let t0 = Engine.now e in
      ignore (Nvm.read nvm ~off:0 ~len:64);
      let elapsed = Engine.now e -. t0 in
      (* NVM read latency is 0.30us. *)
      Alcotest.(check bool) "nvm read latency" true
        (elapsed >= 0.29e-6 && elapsed < 0.5e-6))

(* ---- persistence semantics ---- *)

let test_nvm_unpersisted_write_lost_on_crash () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.write nvm ~off:0 (Bytes.of_string "volatile!");
      Nvm.crash nvm;
      let b = Nvm.read_durable nvm ~off:0 ~len:9 in
      Alcotest.check bytes_eq "lost" (Bytes.make 9 '\000') b)

let test_nvm_persisted_write_survives_crash () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      let data = Bytes.of_string "durable!!" in
      Nvm.write_persist nvm ~off:128 data;
      Nvm.crash nvm;
      Alcotest.check bytes_eq "survives"
        data
        (Nvm.read nvm ~off:128 ~len:(Bytes.length data)))

let test_nvm_partial_persist () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      (* Two writes on different lines; persist only the first line. *)
      Nvm.write nvm ~off:0 (Bytes.of_string "AAAA");
      Nvm.write nvm ~off:256 (Bytes.of_string "BBBB");
      Nvm.persist nvm ~off:0 ~len:4;
      Nvm.crash nvm;
      Alcotest.check bytes_eq "first survives" (Bytes.of_string "AAAA")
        (Nvm.read nvm ~off:0 ~len:4);
      Alcotest.check bytes_eq "second lost" (Bytes.make 4 '\000')
        (Nvm.read nvm ~off:256 ~len:4))

let test_nvm_same_line_covered_by_one_flush () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      (* Two writes on the same 64-byte line; flushing any part persists
         the whole line (cache-line granularity). *)
      Nvm.write nvm ~off:0 (Bytes.of_string "AA");
      Nvm.write nvm ~off:32 (Bytes.of_string "BB");
      Nvm.persist nvm ~off:0 ~len:1;
      Nvm.crash nvm;
      Alcotest.check bytes_eq "whole line durable" (Bytes.of_string "BB")
        (Nvm.read nvm ~off:32 ~len:2))

let test_nvm_dirty_lines_tracking () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Alcotest.(check int) "clean" 0 (Nvm.dirty_lines nvm);
      Nvm.write nvm ~off:0 (Bytes.make 65 'x');
      Alcotest.(check int) "two lines dirty" 2 (Nvm.dirty_lines nvm);
      Nvm.persist nvm ~off:0 ~len:65;
      Alcotest.(check int) "clean after persist" 0 (Nvm.dirty_lines nvm))

let test_nvm_rewrite_after_persist () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.write_persist nvm ~off:0 (Bytes.of_string "first");
      Nvm.write nvm ~off:0 (Bytes.of_string "secnd");
      Nvm.crash nvm;
      Alcotest.check bytes_eq "old durable version wins"
        (Bytes.of_string "first")
        (Nvm.read nvm ~off:0 ~len:5))

(* ---- int64 and atomic RMW ---- *)

let test_nvm_int64_roundtrip () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.set_int64 nvm 8 0x1122334455667788L ~persist:false;
      Alcotest.(check int64) "roundtrip" 0x1122334455667788L
        (Nvm.get_int64 nvm 8))

let test_nvm_int64_persist_flag () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.set_int64 nvm 0 111L ~persist:true;
      Nvm.set_int64 nvm 512 222L ~persist:false;
      Nvm.crash nvm;
      Alcotest.(check int64) "persisted word" 111L (Nvm.get_int64 nvm 0);
      Alcotest.(check int64) "volatile word lost" 0L (Nvm.get_int64 nvm 512))

let test_nvm_atomic_rmw_applies () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.set_int64 nvm 0 10L ~persist:false;
      let seen = Nvm.atomic_rmw nvm 0 ~f:(fun w -> Some (Int64.add w 1L)) in
      Alcotest.(check int64) "saw old" 10L seen;
      Alcotest.(check int64) "applied" 11L (Nvm.get_int64 nvm 0))

let test_nvm_atomic_rmw_can_decline () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.set_int64 nvm 0 10L ~persist:false;
      let seen =
        Nvm.atomic_rmw nvm 0 ~f:(fun w -> if w = 99L then Some 1L else None)
      in
      Alcotest.(check int64) "saw" 10L seen;
      Alcotest.(check int64) "unchanged" 10L (Nvm.get_int64 nvm 0))

let test_nvm_atomic_rmw_is_atomic_under_contention () =
  (* N processes increment the same word through atomic_rmw; every
     increment must survive despite the interleaving. *)
  let e = Engine.create () in
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:4096 () in
  let n = 10 and per = 50 in
  for _ = 1 to n do
    Engine.spawn e (fun () ->
        for _ = 1 to per do
          ignore (Nvm.atomic_rmw nvm 0 ~f:(fun w -> Some (Int64.add w 1L)));
          Engine.delay 1e-7
        done)
  done;
  ignore (Engine.run e);
  let final = ref 0L in
  Engine.spawn e (fun () -> final := Nvm.get_int64 nvm 0);
  ignore (Engine.run e);
  Alcotest.(check int64) "all increments applied"
    (Int64.of_int (n * per))
    !final

let test_nvm_allocation_accounting () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Alcotest.(check int) "fresh" 0 (Nvm.allocated nvm);
      Nvm.note_alloc nvm 1024;
      Alcotest.(check int) "allocated" 1024 (Nvm.allocated nvm))

let prop_nvm_crash_partition =
  (* Property: after arbitrary (write, persist?) sequences and a crash,
     every persisted write is visible and every never-persisted line is
     zero or holds a persisted value. We verify the stronger, simpler
     invariant that persisted writes survive. *)
  qcase ~count:50 "persisted writes survive crash"
    QCheck.(small_list (pair (int_bound 63) bool))
    (fun ops ->
      in_sim (fun e ->
          let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:8192 () in
          let expect = Hashtbl.create 16 in
          List.iteri
            (fun i (slot, persist) ->
              let off = slot * 128 in
              let data = Bytes.of_string (Printf.sprintf "%08d" i) in
              Nvm.write nvm ~off data;
              if persist then begin
                Nvm.persist nvm ~off ~len:8;
                Hashtbl.replace expect off data
              end)
            ops;
          Nvm.crash nvm;
          Hashtbl.fold
            (fun off data acc ->
              acc && Bytes.equal (Nvm.read_durable nvm ~off ~len:8) data)
            expect true))

let prop_nvm_dirty_set_model =
  (* Random write / set_int64 / atomic_rmw / persist / crash / restore
     sequences against a naive model that keeps one flag per 64-byte
     line. The region (1,572 bytes: 25 lines, the last one partial and
     alone in the last byte of the dirty bitmap) spans several bitmap
     bytes, and half the ranges are
     pulled onto line and bitmap-byte boundaries so they straddle them.
     After every step the dirty-line count and both images must match
     the model. *)
  let size = (3 * 512) + 36 in
  let line = 64 in
  let anchors = [| 0; 63; 64; 448; 511; 512; 575; 1023; 1024; 1535; 1536; size - 1 |] in
  qcase ~count:300 "dirty set matches per-line model"
    QCheck.(small_list (pair (int_bound 6) (triple (int_bound (size - 1)) (int_bound 200) bool)))
    (fun ops ->
      in_sim (fun e ->
          let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size () in
          let vol = Bytes.make size '\000' in
          let dur = Bytes.make size '\000' in
          let dirty = Array.make ((size + line - 1) / line) false in
          let mark off len =
            if len > 0 then
              for l = off / line to (off + len - 1) / line do
                dirty.(l) <- true
              done
          in
          let flush off len =
            if len > 0 then
              for l = off / line to (off + len - 1) / line do
                if dirty.(l) then begin
                  dirty.(l) <- false;
                  let start = l * line in
                  let n = min line (size - start) in
                  Bytes.blit vol start dur start n
                end
              done
          in
          let ok = ref true in
          List.iteri
            (fun i (kind, (off, len, snap)) ->
              let off =
                if snap then
                  max 0 (anchors.(off mod Array.length anchors) - (len / 2))
                else off
              in
              let len = min len (size - off) in
              let fill = Bytes.make len (Char.chr (65 + (i mod 26))) in
              (match kind with
              | 0 | 1 ->
                  Nvm.write nvm ~off fill;
                  Bytes.blit fill 0 vol off len;
                  mark off len
              | 2 ->
                  Nvm.persist nvm ~off ~len;
                  flush off len
              | 3 ->
                  let off = min off (size - 8) in
                  let w = Int64.of_int i in
                  Nvm.set_int64 nvm off w ~persist:snap;
                  Bytes.set_int64_le vol off w;
                  mark off 8;
                  if snap then flush off 8
              | 4 ->
                  let off = min off (size - 8) in
                  ignore (Nvm.atomic_rmw nvm off ~f:(fun w -> Some (Int64.succ w)));
                  Bytes.set_int64_le vol off
                    (Int64.succ (Bytes.get_int64_le vol off));
                  mark off 8
              | 5 ->
                  Nvm.crash nvm;
                  Bytes.blit dur 0 vol 0 size;
                  Array.fill dirty 0 (Array.length dirty) false
              | _ ->
                  Nvm.restore nvm ~off fill;
                  Bytes.blit fill 0 vol off len;
                  Bytes.blit fill 0 dur off len;
                  if len > 0 then
                    for l = off / line to (off + len - 1) / line do
                      dirty.(l) <- false
                    done);
              let ndirty =
                Array.fold_left (fun n d -> if d then n + 1 else n) 0 dirty
              in
              if
                Nvm.dirty_lines nvm <> ndirty
                || not (Bytes.equal (Nvm.read_durable nvm ~off:0 ~len:size) dur)
                || not (Bytes.equal (Nvm.read nvm ~off:0 ~len:size) vol)
              then ok := false)
            ops;
          !ok))

(* ---- Ssd_image ---- *)

let test_image_roundtrip () =
  let img = Ssd_image.create ~size:8192 in
  Ssd_image.write img ~off:1000 (Bytes.of_string "ssd data");
  Alcotest.check bytes_eq "roundtrip" (Bytes.of_string "ssd data")
    (Ssd_image.read img ~off:1000 ~len:8)

let test_image_zero_initialized () =
  let img = Ssd_image.create ~size:4096 in
  Alcotest.check bytes_eq "zeroed" (Bytes.make 16 '\000')
    (Ssd_image.read img ~off:0 ~len:16)

let test_image_bounds () =
  let img = Ssd_image.create ~size:4096 in
  try
    Ssd_image.write img ~off:4090 (Bytes.make 16 'x');
    Alcotest.fail "expected bounds failure"
  with Invalid_argument _ -> ()

let test_image_blit_to () =
  let img = Ssd_image.create ~size:4096 in
  Ssd_image.write img ~off:0 (Bytes.of_string "abcdef");
  let dst = Bytes.make 10 '.' in
  Ssd_image.blit_to img ~off:2 dst ~dst_off:3 ~len:3;
  Alcotest.check bytes_eq "blit" (Bytes.of_string "...cde....") dst

let () =
  Alcotest.run "media"
    [
      ( "nvm-basic",
        [
          case "roundtrip" test_nvm_write_read_roundtrip;
          case "bounds" test_nvm_bounds_checked;
          case "charges time" test_nvm_charges_time;
          case "alloc accounting" test_nvm_allocation_accounting;
        ] );
      ( "nvm-persistence",
        [
          case "unpersisted lost" test_nvm_unpersisted_write_lost_on_crash;
          case "persisted survives" test_nvm_persisted_write_survives_crash;
          case "partial persist" test_nvm_partial_persist;
          case "line granularity" test_nvm_same_line_covered_by_one_flush;
          case "dirty tracking" test_nvm_dirty_lines_tracking;
          case "rewrite after persist" test_nvm_rewrite_after_persist;
          prop_nvm_crash_partition;
          prop_nvm_dirty_set_model;
        ] );
      ( "nvm-atomic",
        [
          case "int64 roundtrip" test_nvm_int64_roundtrip;
          case "int64 persist flag" test_nvm_int64_persist_flag;
          case "rmw applies" test_nvm_atomic_rmw_applies;
          case "rmw declines" test_nvm_atomic_rmw_can_decline;
          case "rmw contention" test_nvm_atomic_rmw_is_atomic_under_contention;
        ] );
      ( "ssd-image",
        [
          case "roundtrip" test_image_roundtrip;
          case "zeroed" test_image_zero_initialized;
          case "bounds" test_image_bounds;
          case "blit" test_image_blit_to;
        ] );
    ]
