(* Unit tests for Prism's core components in isolation: location encoding,
   HSIT protocols, PWB ring, Value Storage chunks + GC, epoch reclamation,
   TCQ / TA batching, SVC cache mechanics. *)

open Prism_sim
open Prism_core
open Prism_device
open Prism_media
open Helpers

(* ---- Location ---- *)

let loc_testable =
  Alcotest.testable Location.pp Location.equal

let test_location_roundtrips () =
  let locs =
    [
      Location.Nowhere;
      Location.In_pwb { thread = 0; voff = 0 };
      Location.In_pwb { thread = 11; voff = 123456789 };
      Location.In_vs { vs = 0; gen = 0; chunk = 0; slot = 0 };
      Location.In_vs { vs = 7; gen = 1234; chunk = 99999; slot = 321 };
      Location.In_vs { vs = 255; gen = (1 lsl 17) - 1; chunk = (1 lsl 20) - 1; slot = (1 lsl 15) - 1 };
    ]
  in
  List.iter
    (fun loc ->
      List.iter
        (fun dirty ->
          let w = Location.encode loc ~dirty in
          let loc', dirty' = Location.decode w in
          Alcotest.check loc_testable "roundtrip" loc loc';
          Alcotest.(check bool) "dirty bit" dirty dirty')
        [ false; true ])
    locs

let test_location_out_of_range () =
  Alcotest.(check bool) "thread too large" true
    (try
       ignore (Location.encode (Location.In_pwb { thread = 5000; voff = 0 }) ~dirty:false);
       false
     with Invalid_argument _ -> true)

let test_location_set_dirty () =
  let w = Location.encode (Location.In_pwb { thread = 1; voff = 2 }) ~dirty:false in
  let w' = Location.set_dirty w true in
  let _, dirty = Location.decode w' in
  Alcotest.(check bool) "set" true dirty;
  Alcotest.(check int64) "clear restores" w (Location.set_dirty w' false)

let test_location_same_slot_ignores_gen () =
  let a = Location.In_vs { vs = 1; gen = 5; chunk = 2; slot = 3 } in
  let b = Location.In_vs { vs = 1; gen = 9; chunk = 2; slot = 3 } in
  Alcotest.(check bool) "same slot" true (Location.same_slot a b);
  Alcotest.(check bool) "not equal" false (Location.equal a b)

let prop_location_roundtrip =
  qcase "random In_vs roundtrips"
    QCheck.(quad (int_bound 255) (int_bound ((1 lsl 17) - 1)) (int_bound ((1 lsl 20) - 1)) (int_bound ((1 lsl 15) - 1)))
    (fun (vs, gen, chunk, slot) ->
      let loc = Location.In_vs { vs; gen; chunk; slot } in
      let loc', _ = Location.decode (Location.encode loc ~dirty:false) in
      Location.equal loc loc')

(* ---- Hsit ---- *)

let make_nvm_hsit ?(capacity = 64) e =
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  (nvm, Hsit.create nvm ~capacity)

let test_hsit_alloc_free () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit e in
      let a = Hsit.alloc h in
      let b = Hsit.alloc h in
      Alcotest.(check bool) "distinct" true (a <> b);
      Alcotest.(check int) "live" 2 (Hsit.live h);
      Hsit.free h a;
      Alcotest.(check int) "after free" 1 (Hsit.live h);
      let c = Hsit.alloc h in
      Alcotest.(check int) "reuses freed id" a c)

let test_hsit_full () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit ~capacity:2 e in
      ignore (Hsit.alloc h);
      ignore (Hsit.alloc h);
      Alcotest.check_raises "full" (Failure "Hsit.alloc: table full") (fun () ->
          ignore (Hsit.alloc h)))

let test_hsit_write_read_primary () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      Alcotest.check loc_testable "initial" Location.Nowhere
        (Hsit.read_primary h id);
      let loc = Location.In_pwb { thread = 3; voff = 42 } in
      Hsit.write_primary h id loc;
      Alcotest.check loc_testable "written" loc (Hsit.read_primary h id))

let test_hsit_update_cas_semantics () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      let a = Location.In_pwb { thread = 0; voff = 1 } in
      let b = Location.In_pwb { thread = 0; voff = 2 } in
      Hsit.write_primary h id a;
      Alcotest.(check bool) "wrong expect fails" false
        (Hsit.update_primary h id ~expect:b a);
      Alcotest.(check bool) "right expect wins" true
        (Hsit.update_primary h id ~expect:a b);
      Alcotest.check loc_testable "updated" b (Hsit.read_primary h id))

let test_hsit_durable_after_write () =
  in_sim (fun e ->
      let nvm, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      let loc = Location.In_pwb { thread = 1; voff = 7 } in
      Hsit.write_primary h id loc;
      Nvm.crash nvm;
      Alcotest.check loc_testable "survives crash" loc
        (Hsit.durable_primary h id))

let test_hsit_cas_race_lost_update () =
  (* Regression for the lost-update bug: two processes race a CAS and an
     unconditional write; the unconditional write (newer value) must never
     be overwritten by the CAS that started earlier. *)
  let e = Engine.create () in
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  let h = Hsit.create nvm ~capacity:8 in
  let id = ref 0 in
  let old_loc = Location.In_pwb { thread = 0; voff = 0 } in
  let relocated = Location.In_vs { vs = 0; gen = 0; chunk = 1; slot = 1 } in
  let newer = Location.In_pwb { thread = 0; voff = 100 } in
  Engine.spawn e (fun () ->
      id := Hsit.alloc h;
      Hsit.write_primary h !id old_loc);
  (* Reclaimer-like CAS. *)
  Engine.spawn e (fun () ->
      Engine.delay 1e-6;
      ignore (Hsit.update_primary h !id ~expect:old_loc relocated));
  (* Writer-like unconditional update landing in the CAS window. *)
  Engine.spawn e (fun () ->
      Engine.delay 1e-6;
      Hsit.write_primary h !id newer);
  ignore (Engine.run e);
  let final = ref Location.Nowhere in
  Engine.spawn e (fun () -> final := Hsit.read_primary h !id);
  ignore (Engine.run e);
  Alcotest.(check bool) "newer value never reverted" true
    (Location.equal !final newer || Location.equal !final relocated);
  (* Stronger: if the CAS succeeded it must have happened BEFORE the
     writer; either way the final value cannot be old_loc. *)
  Alcotest.(check bool) "old value gone" false (Location.equal !final old_loc)

let test_hsit_svc_pointer () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      Alcotest.(check (option int)) "initial" None (Hsit.read_svc h id);
      Hsit.write_svc h id (Some 5);
      Alcotest.(check (option int)) "set" (Some 5) (Hsit.read_svc h id);
      Alcotest.(check bool) "cas wrong expect" false
        (Hsit.cas_svc h id ~expect:None (Some 6));
      Alcotest.(check bool) "cas right expect" true
        (Hsit.cas_svc h id ~expect:(Some 5) None);
      Alcotest.(check (option int)) "cleared" None (Hsit.read_svc h id))

let test_hsit_svc_not_persisted () =
  in_sim (fun e ->
      let nvm, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      Hsit.write_svc h id (Some 9);
      Nvm.crash nvm;
      Hsit.recover_entry h id;
      Alcotest.(check (option int)) "nullified on recovery" None
        (Hsit.read_svc h id))

let test_hsit_flush_on_read () =
  (* A dirty-but-persisted pointer read by another thread gets its dirty
     bit cleared by that reader. We simulate by checking read_primary on a
     freshly written (hence briefly dirty) entry returns the right loc. *)
  in_sim (fun e ->
      let _, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      let loc = Location.In_pwb { thread = 2; voff = 16 } in
      Hsit.write_primary h id loc;
      Alcotest.check loc_testable "read sees value" loc (Hsit.read_primary h id);
      Alcotest.check loc_testable "second read stable" loc (Hsit.read_primary h id))

let test_hsit_rebuild_free_list () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit ~capacity:8 e in
      let ids = List.init 5 (fun _ -> Hsit.alloc h) in
      ignore ids;
      Hsit.rebuild_free_list h ~reachable:(fun id -> id < 2);
      Alcotest.(check int) "two live" 2 (Hsit.live h);
      (* Allocation must hand out only ids >= 2 (the unreachable ones). *)
      let fresh = List.init 6 (fun _ -> Hsit.alloc h) in
      Alcotest.(check bool) "no clash with live" true
        (List.for_all (fun id -> id >= 2) fresh))

(* ---- Pwb ---- *)

let make_pwb ?(size = 4096) e =
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  (nvm, Pwb.create nvm ~thread:0 ~size)

let test_pwb_append_read () =
  in_sim (fun e ->
      let _, p = make_pwb e in
      let voff = Pwb.append p ~hsit_id:7 ~value:(Bytes.of_string "payload") in
      let id, data = Pwb.read p ~voff in
      Alcotest.(check int) "backptr" 7 id;
      Alcotest.check bytes_eq "payload" (Bytes.of_string "payload") data)

let test_pwb_monotonic_voffs () =
  in_sim (fun e ->
      let _, p = make_pwb e in
      let a = Pwb.append p ~hsit_id:1 ~value:(Bytes.make 10 'a') in
      let b = Pwb.append p ~hsit_id:2 ~value:(Bytes.make 10 'b') in
      Alcotest.(check bool) "monotone" true (b > a))

let test_pwb_utilization_and_advance () =
  in_sim (fun e ->
      let _, p = make_pwb ~size:1024 e in
      Alcotest.(check (float 0.001)) "empty" 0.0 (Pwb.utilization p);
      let v1 = Pwb.append p ~hsit_id:1 ~value:(Bytes.make 100 'x') in
      ignore v1;
      Alcotest.(check bool) "in use" true (Pwb.utilization p > 0.1);
      Pwb.advance_head p ~to_:(Pwb.tail p);
      Alcotest.(check (float 0.001)) "drained" 0.0 (Pwb.utilization p))

let test_pwb_wraparound () =
  in_sim (fun e ->
      let _, p = make_pwb ~size:512 e in
      (* Fill/drain several times to force wrapping. *)
      for round = 0 to 9 do
        let voffs =
          List.init 3 (fun i ->
              (i, Pwb.append p ~hsit_id:i ~value:(value ~size:100 (round + i))))
        in
        List.iter
          (fun (i, voff) ->
            let id, data = Pwb.read p ~voff in
            Alcotest.(check int) "backptr" i id;
            Alcotest.check bytes_eq "data survives wrap"
              (value ~size:100 (round + i))
              data)
          voffs;
        Pwb.advance_head p ~to_:(Pwb.tail p)
      done)

let test_pwb_blocks_when_full_until_advance () =
  let e = Engine.create () in
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  let p = Pwb.create nvm ~thread:0 ~size:512 in
  let appended = ref 0 in
  Engine.spawn e (fun () ->
      for i = 0 to 4 do
        ignore (Pwb.append p ~hsit_id:i ~value:(Bytes.make 120 'x'));
        incr appended
      done);
  Engine.spawn e (fun () ->
      Engine.delay 1e-3;
      (* Appender must be stuck well before 5 appends (3*136 < 512 < 4*136). *)
      Alcotest.(check bool) "blocked" true (!appended < 5);
      Pwb.advance_head p ~to_:(Pwb.tail p));
  ignore (Engine.run e);
  Alcotest.(check int) "all eventually appended" 5 !appended

let test_pwb_fold_records_skips_pads () =
  in_sim (fun e ->
      let _, p = make_pwb ~size:512 e in
      (* Appends sized to force a pad before the wrap. *)
      let voffs = ref [] in
      for i = 0 to 2 do
        voffs := Pwb.append p ~hsit_id:i ~value:(Bytes.make 100 'x') :: !voffs
      done;
      Pwb.advance_head p ~to_:(List.nth (List.rev !voffs) 1);
      ignore (Pwb.append p ~hsit_id:3 ~value:(Bytes.make 100 'y'));
      let seen = Pwb.fold_records p (fun acc ~voff:_ ~hsit_id ~len:_ -> hsit_id :: acc) [] in
      Alcotest.(check (list int)) "live records in order" [ 1; 2; 3 ]
        (List.rev seen))

let test_pwb_read_durable_coupling () =
  in_sim (fun e ->
      let nvm, p = make_pwb e in
      let voff = Pwb.append p ~hsit_id:5 ~value:(Bytes.of_string "keepme") in
      Nvm.crash nvm;
      (match Pwb.read_durable p ~voff with
      | Some (id, data) ->
          Alcotest.(check int) "backptr" 5 id;
          Alcotest.check bytes_eq "data" (Bytes.of_string "keepme") data
      | None -> Alcotest.fail "record should be durable");
      Alcotest.(check bool) "out of range" true
        (Pwb.read_durable p ~voff:(Pwb.tail p + 64) = None))

let test_pwb_too_large_value_rejected () =
  in_sim (fun e ->
      let _, p = make_pwb ~size:512 e in
      try
        ignore (Pwb.append p ~hsit_id:0 ~value:(Bytes.make 400 'x'));
        Alcotest.fail "expected rejection"
      with Invalid_argument _ -> ())

let prop_pwb_ring_model =
  (* Random interleaving of appends and head advances against a queue
     model: every record still inside [head, tail) reads back exactly. *)
  qcase ~count:50 "ring preserves live records"
    QCheck.(small_list (pair bool (int_range 1 120)))
    (fun ops ->
      in_sim (fun e ->
          ignore e;
          let nvm =
            Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) ()
          in
          let p = Pwb.create nvm ~thread:0 ~size:2048 in
          let live = Queue.create () in
          let ok = ref true in
          List.iteri
            (fun i (advance, len) ->
              if advance then begin
                (* Drop roughly half of the live records. *)
                let keep = Queue.length live / 2 in
                while Queue.length live > keep do
                  ignore (Queue.pop live)
                done;
                let to_ =
                  match Queue.peek_opt live with
                  | Some (voff, _, _) -> voff
                  | None -> Pwb.tail p
                in
                Pwb.advance_head p ~to_
              end
              else if
                (* Only append when it cannot block (model stays simple). *)
                Pwb.used p + len + 64 < Pwb.capacity p
              then begin
                let data = value ~size:len i in
                let voff = Pwb.append p ~hsit_id:i ~value:data in
                Queue.add (voff, i, data) live
              end)
            ops;
          Queue.iter
            (fun (voff, id, data) ->
              let id', data' = Pwb.read p ~voff in
              if id' <> id || not (Bytes.equal data' data) then ok := false)
            live;
          !ok))

(* ---- Epoch ---- *)

let test_epoch_basic_reclamation () =
  let ep = Epoch.create ~threads:2 in
  let freed = ref false in
  Epoch.retire ep (fun () -> freed := true);
  Alcotest.(check int) "pending" 1 (Epoch.pending ep);
  Epoch.pin ep ~tid:0;
  Epoch.unpin ep ~tid:0;
  Epoch.pin ep ~tid:0;
  Epoch.unpin ep ~tid:0;
  Alcotest.(check bool) "freed after two epochs" true !freed

let test_epoch_pinned_blocks_advance () =
  let ep = Epoch.create ~threads:2 in
  let freed = ref false in
  Epoch.pin ep ~tid:1;
  Epoch.retire ep (fun () -> freed := true);
  (* Thread 0 churns, but thread 1 stays pinned in the old epoch. *)
  for _ = 1 to 5 do
    Epoch.pin ep ~tid:0;
    Epoch.unpin ep ~tid:0
  done;
  Alcotest.(check bool) "still pending" false !freed;
  Epoch.unpin ep ~tid:1;
  Epoch.pin ep ~tid:0;
  Epoch.unpin ep ~tid:0;
  Epoch.pin ep ~tid:0;
  Epoch.unpin ep ~tid:0;
  Alcotest.(check bool) "freed after unpin" true !freed

let test_epoch_drain () =
  let ep = Epoch.create ~threads:1 in
  let count = ref 0 in
  for _ = 1 to 10 do
    Epoch.retire ep (fun () -> incr count)
  done;
  Epoch.drain ep;
  Alcotest.(check int) "all freed" 10 !count

let test_epoch_reset_discards () =
  let ep = Epoch.create ~threads:1 in
  let ran = ref false in
  Epoch.pin ep ~tid:0;
  Epoch.retire ep (fun () -> ran := true);
  Epoch.reset ep;
  Epoch.drain ep;
  Alcotest.(check bool) "discarded, not run" false !ran;
  Alcotest.(check int) "queue empty" 0 (Epoch.pending ep)

let test_epoch_double_pin_rejected () =
  let ep = Epoch.create ~threads:1 in
  Epoch.pin ep ~tid:0;
  Alcotest.check_raises "double pin" (Invalid_argument "Epoch.pin: already pinned")
    (fun () -> Epoch.pin ep ~tid:0)

let test_epoch_with_pinned_exception_safe () =
  let ep = Epoch.create ~threads:1 in
  (try Epoch.with_pinned ep ~tid:0 (fun () -> failwith "x")
   with Failure _ -> ());
  (* Must be unpinned now. *)
  Epoch.with_pinned ep ~tid:0 (fun () -> ())

(* ---- Value storage ---- *)

let make_vs ?(size = 64 * 16 * 1024) ?(chunk_size = 16 * 1024)
    ?(gc_watermark = 0.75) e =
  Value_storage.create e ~id:0 ~size ~chunk_size ~queue_depth:16
    ~spec:Spec.samsung_980_pro ~cost:Cost.default ~gc_watermark

let test_vs_write_read_chunk () =
  in_sim (fun e ->
      let vs = make_vs e in
      let values = List.init 5 (fun i -> (i + 100, value ~size:200 i)) in
      let chunk, gen, done_ = Value_storage.write_chunk vs values in
      ignore (Sync.Ivar.read done_);
      Value_storage.seal vs ~chunk;
      List.iteri
        (fun slot (id, v) ->
          Alcotest.(check (option int)) "backptr" (Some id)
            (Value_storage.slot_backptr vs ~gen ~chunk ~slot);
          match Value_storage.read_slot_sync vs ~gen ~chunk ~slot with
          | Some data -> Alcotest.check bytes_eq "payload" v data
          | None -> Alcotest.fail "slot unreadable")
        values)

let test_vs_validity_bitmap () =
  in_sim (fun e ->
      let vs = make_vs e in
      let chunk, gen, done_ =
        Value_storage.write_chunk vs [ (1, value 1); (2, value 2) ]
      in
      ignore (Sync.Ivar.read done_);
      Value_storage.seal vs ~chunk;
      Alcotest.(check int) "initially invalid" 0 (Value_storage.live_slots vs ~chunk);
      Value_storage.set_valid vs ~gen ~chunk ~slot:0 true;
      Value_storage.set_valid vs ~gen ~chunk ~slot:1 true;
      Alcotest.(check int) "both live" 2 (Value_storage.live_slots vs ~chunk);
      Value_storage.set_valid vs ~gen ~chunk ~slot:0 false;
      Alcotest.(check int) "one live" 1 (Value_storage.live_slots vs ~chunk);
      Alcotest.(check bool) "is_valid" true
        (Value_storage.is_valid vs ~gen ~chunk ~slot:1))

let test_vs_stale_gen_rejected () =
  in_sim (fun e ->
      let vs = make_vs e in
      let chunk, gen, done_ = Value_storage.write_chunk vs [ (1, value 1) ] in
      ignore (Sync.Ivar.read done_);
      Value_storage.seal vs ~chunk;
      let stale = gen + 1 in
      Alcotest.(check (option int)) "backptr stale" None
        (Value_storage.slot_backptr vs ~gen:stale ~chunk ~slot:0);
      Alcotest.(check bool) "is_valid stale" false
        (Value_storage.is_valid vs ~gen:stale ~chunk ~slot:0);
      (* Stale set_valid must be a no-op. *)
      Value_storage.set_valid vs ~gen:stale ~chunk ~slot:0 true;
      Alcotest.(check int) "untouched" 0 (Value_storage.live_slots vs ~chunk))

let test_vs_chunk_exhaustion_blocks () =
  (* Writing more chunks than exist must block rather than fail; freeing
     chunks releases writers. *)
  let e = Engine.create () in
  let vs =
    Value_storage.create e ~id:0 ~size:(4 * 16 * 1024) ~chunk_size:(16 * 1024)
      ~queue_depth:16 ~spec:Spec.samsung_980_pro ~cost:Cost.default
      ~gc_watermark:0.75
  in
  let written = ref 0 in
  Engine.spawn e (fun () ->
      for i = 0 to 4 do
        let chunk, _, done_ = Value_storage.write_chunk vs [ (i, value i) ] in
        ignore (Sync.Ivar.read done_);
        Value_storage.seal vs ~chunk;
        incr written
      done);
  ignore (Engine.run ~until:1.0 e);
  (* 4 chunks, 1 reserved for GC: 3 writes succeed, the 4th blocks. *)
  Alcotest.(check int) "blocked at reserve" 3 !written

let test_vs_gc_compacts () =
  let e = Engine.create () in
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  let h = Hsit.create nvm ~capacity:256 in
  let vs =
    make_vs ~size:(10 * 16 * 1024) ~chunk_size:(16 * 1024) ~gc_watermark:0.5 e
  in
  Value_storage.start_gc vs ~relocate:(fun ~hsit_id ~from_ ~to_ ->
      Hsit.update_primary h hsit_id ~expect:from_ to_);
  let ids = Array.init 64 (fun _ -> -1) in
  Engine.spawn e (fun () ->
      (* Write chunks of 4 values each; invalidate most slots to create
         garbage; poke GC; then verify live data survived compaction. *)
      for c = 0 to 7 do
        let values = List.init 4 (fun i -> (c * 4) + i) in
        let batch =
          List.map
            (fun i ->
              ids.(i) <- Hsit.alloc h;
              (ids.(i), value ~size:2000 i))
            values
        in
        let chunk, gen, done_ = Value_storage.write_chunk vs batch in
        ignore (Sync.Ivar.read done_);
        List.iteri
          (fun slot i ->
            let loc = Location.In_vs { vs = 0; gen; chunk; slot } in
            Hsit.write_primary h ids.(i) loc;
            Value_storage.set_valid vs ~gen ~chunk ~slot true)
          values;
        Value_storage.seal vs ~chunk
      done;
      (* Kill 3 of 4 slots per chunk. *)
      for c = 0 to 7 do
        for s = 1 to 3 do
          let i = (c * 4) + s in
          (match Hsit.read_primary h ids.(i) with
          | Location.In_vs { gen; chunk; slot; _ } ->
              Value_storage.set_valid vs ~gen ~chunk ~slot false;
              Hsit.write_primary h ids.(i) Location.Nowhere
          | _ -> Alcotest.fail "expected VS location");
          ()
        done
      done;
      Value_storage.poke_gc vs);
  ignore (Engine.run e);
  (* GC should have consolidated the 6 surviving values. *)
  Alcotest.(check bool) "gc ran" true (Value_storage.gc_runs vs > 0);
  Alcotest.(check bool) "chunks were freed" true (Value_storage.free_chunks vs >= 4);
  let ok = ref true in
  Engine.spawn e (fun () ->
      for c = 0 to 7 do
        let i = c * 4 in
        match Hsit.read_primary h ids.(i) with
        | Location.In_vs { gen; chunk; slot; _ } -> (
            match Value_storage.read_slot_sync vs ~gen ~chunk ~slot with
            | Some data -> if not (Bytes.equal data (value ~size:2000 i)) then ok := false
            | None -> ok := false)
        | _ -> ok := false
      done);
  ignore (Engine.run e);
  Alcotest.(check bool) "survivors intact after GC" true !ok

let test_vs_run_entry_coalesces () =
  in_sim (fun e ->
      let vs = make_vs e in
      let values = List.init 6 (fun i -> (i, value ~size:500 i)) in
      let chunk, gen, done_ = Value_storage.write_chunk vs values in
      ignore (Sync.Ivar.read done_);
      Value_storage.seal vs ~chunk;
      let cells = List.init 6 (fun _ -> ref None) in
      let slots = List.mapi (fun i c -> (i, c)) cells in
      (match Value_storage.read_run_entry vs ~gen ~chunk ~slots with
      | None -> Alcotest.fail "expected an entry"
      | Some entry ->
          ignore (Io_uring.submit_and_wait (Value_storage.uring vs) [ entry ]));
      List.iteri
        (fun i c ->
          match !c with
          | Some data -> Alcotest.check bytes_eq "payload" (value ~size:500 i) data
          | None -> Alcotest.fail "cell not filled")
        cells)

let test_vs_recover_rebuilds () =
  in_sim (fun e ->
      let vs = make_vs e in
      let values = List.init 3 (fun i -> (i + 10, value ~size:300 i)) in
      let chunk, gen, done_ = Value_storage.write_chunk vs values in
      ignore (Sync.Ivar.read done_);
      Value_storage.seal vs ~chunk;
      ignore gen;
      (* Couple only slot 1. *)
      Value_storage.recover vs ~couple:(fun ~hsit_id loc ->
          hsit_id = 11
          &&
          match loc with
          | Location.In_vs { slot; _ } -> slot = 1
          | _ -> false);
      Alcotest.(check int) "one live" 1 (Value_storage.live_slots vs ~chunk);
      Alcotest.(check bool) "valid slot" true
        (Value_storage.is_valid vs ~gen:0 ~chunk ~slot:1);
      match Value_storage.read_slot_sync vs ~gen:0 ~chunk ~slot:1 with
      | Some data -> Alcotest.check bytes_eq "data" (value ~size:300 1) data
      | None -> Alcotest.fail "unreadable")

(* Property: the per-chunk live bytes Value Storage keeps incrementally
   equal a recomputation from the valid slots, through random writes,
   validity flips (current and stale generations), GC passes (which
   relocate survivors and recycle victims) and recovery; and the GC
   candidate order is the one [List.sort compare] gives on the
   recomputed (live bytes, chunk) pairs. Each value's length is a
   function of its backward pointer, so valid slots found by
   [iter_valid] can be weighed without trusting the counters. *)
let prop_vs_live_accounting =
  let padded len = 16 + (((len + 15) / 16) * 16) in
  let len_of hsit_id = 1 + (hsit_id * 7919 mod 3000) in
  qcase ~count:100 "incremental live bytes match recomputation"
    QCheck.(
      list_of_size Gen.(10 -- 60)
        (pair (int_bound 5) (triple small_nat small_nat bool)))
    (fun ops ->
      in_sim (fun e ->
          let vs =
            make_vs ~size:(8 * 16 * 1024) ~chunk_size:(16 * 1024)
              ~gc_watermark:0.5 e
          in
          Value_storage.start_gc vs ~relocate:(fun ~hsit_id:_ ~from_:_ ~to_:_ ->
              true);
          let next_id = ref 1 in
          let nchunks = Value_storage.nchunks vs in
          let ok = ref true in
          let check () =
            let live = Array.make nchunks 0 in
            Value_storage.iter_valid vs (fun ~gen:_ ~chunk ~slot:_ ~hsit_id ->
                live.(chunk) <- live.(chunk) + padded (len_of hsit_id));
            for chunk = 0 to nchunks - 1 do
              if Value_storage.chunk_live_bytes vs ~chunk <> live.(chunk) then
                ok := false
            done;
            let cands = Value_storage.gc_candidates vs in
            let reference =
              List.sort compare (List.map (fun (_, c) -> (live.(c), c)) cands)
            in
            if cands <> reference then ok := false
          in
          List.iter
            (fun (kind, (a, b, flag)) ->
              (match kind with
              | 0 | 1 ->
                  (* Write 1-5 values (at most 5 x 3,024 padded bytes, so
                     they fit one chunk) into a fresh chunk, never one of
                     the last free ones so nothing blocks, and validate
                     some. *)
                  if Value_storage.free_chunks vs >= 3 then begin
                    let values =
                      List.init (1 + (a mod 5)) (fun _ ->
                          let id = !next_id in
                          incr next_id;
                          (id, value ~size:(len_of id) id))
                    in
                    let chunk, gen, done_ = Value_storage.write_chunk vs values in
                    ignore (Sync.Ivar.read done_);
                    List.iteri
                      (fun slot _ ->
                        if (b lsr slot) land 1 = 1 || flag then
                          Value_storage.set_valid vs ~gen ~chunk ~slot true)
                      values;
                    Value_storage.seal vs ~chunk
                  end
              | 2 ->
                  let chunk = a mod nchunks in
                  let gen = Value_storage.chunk_gen vs ~chunk in
                  Value_storage.set_valid vs ~gen ~chunk ~slot:(b mod 7) flag
              | 3 ->
                  (* Stale generation: must be a no-op. *)
                  let chunk = a mod nchunks in
                  let gen = Value_storage.chunk_gen vs ~chunk + 1 in
                  Value_storage.set_valid vs ~gen ~chunk ~slot:(b mod 7) flag
              | 4 ->
                  Value_storage.poke_gc vs;
                  Engine.delay 1.0
              | _ ->
                  Value_storage.recover vs ~couple:(fun ~hsit_id loc ->
                      match loc with
                      | Location.In_vs { slot; _ } -> (hsit_id + slot + a) mod 3 <> 0
                      | _ -> false));
              check ())
            ops;
          !ok))

(* ---- Reclaimer ---- *)

let with_reclaimer ?(pwb_size = 2048) ?(async = true) f =
  let e = Engine.create () in
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  let hsit = Hsit.create nvm ~capacity:1024 in
  let pwb = Pwb.create nvm ~thread:0 ~size:pwb_size in
  let vs =
    Value_storage.create e ~id:0 ~size:(32 * 16 * 1024)
      ~chunk_size:(16 * 1024) ~queue_depth:16 ~spec:Spec.samsung_980_pro
      ~cost:Cost.default ~gc_watermark:0.75
  in
  let reclaimer =
    Reclaimer.create e ~pwb ~hsit ~storages:[| vs |] ~rng:(Rng.create 13L)
      ~watermark:0.5
  in
  if async then Reclaimer.start reclaimer;
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e hsit pwb vs reclaimer));
  ignore (Engine.run e);
  match !result with Some r -> r | None -> Alcotest.fail "did not complete"

let put_record hsit pwb i data =
  let id = Hsit.alloc hsit in
  let voff = Pwb.append pwb ~hsit_id:id ~value:data in
  Hsit.write_primary hsit id (Location.In_pwb { thread = 0; voff });
  ignore i;
  id

let test_reclaimer_migrates_live_values () =
  with_reclaimer (fun e hsit pwb vs reclaimer ->
      let ids =
        List.init 12 (fun i -> (i, put_record hsit pwb i (value ~size:100 i)))
      in
      Reclaimer.reclaim_now reclaimer;
      Engine.delay 1e-3;
      ignore e;
      Alcotest.(check bool) "values migrated" true
        (Reclaimer.reclaimed_values reclaimer = 12);
      Alcotest.(check int) "pwb drained" 0 (Pwb.used pwb);
      (* Every HSIT entry now points into the Value Storage, and the data
         reads back. *)
      List.iter
        (fun (i, id) ->
          match Hsit.read_primary hsit id with
          | Location.In_vs { gen; chunk; slot; _ } -> (
              Alcotest.(check bool) "slot valid" true
                (Value_storage.is_valid vs ~gen ~chunk ~slot);
              match Value_storage.read_slot_sync vs ~gen ~chunk ~slot with
              | Some data ->
                  Alcotest.check bytes_eq "data" (value ~size:100 i) data
              | None -> Alcotest.fail "unreadable after migration")
          | _ -> Alcotest.fail "expected VS location")
        ids)

let test_reclaimer_skips_superseded () =
  with_reclaimer (fun _ hsit pwb _ reclaimer ->
      let id = Hsit.alloc hsit in
      (* Three versions of the same key; only the last is live. *)
      for v = 0 to 2 do
        let voff = Pwb.append pwb ~hsit_id:id ~value:(value ~size:100 v) in
        Hsit.write_primary hsit id (Location.In_pwb { thread = 0; voff })
      done;
      Reclaimer.reclaim_now reclaimer;
      Alcotest.(check int) "one migrated" 1
        (Reclaimer.reclaimed_values reclaimer);
      Alcotest.(check int) "two skipped dead" 2
        (Reclaimer.skipped_dead reclaimer))

let test_reclaimer_trigger_on_watermark () =
  with_reclaimer ~pwb_size:2048 (fun e hsit pwb _ reclaimer ->
      (* Fill past 50%: the trigger must fire and free space without an
         explicit reclaim_now. *)
      for i = 0 to 9 do
        ignore (put_record hsit pwb i (value ~size:100 i));
        Reclaimer.maybe_trigger reclaimer
      done;
      Engine.delay 1e-2;
      ignore e;
      Alcotest.(check bool) "reclaimed in background" true
        (Reclaimer.reclaimed_values reclaimer > 0);
      Alcotest.(check bool) "below watermark" true (Pwb.utilization pwb < 0.5))

let test_reclaimer_sync_mode_inline () =
  with_reclaimer ~async:false (fun _ hsit pwb _ reclaimer ->
      for i = 0 to 9 do
        ignore (put_record hsit pwb i (value ~size:100 i));
        Reclaimer.maybe_trigger reclaimer
      done;
      (* In sync mode maybe_trigger runs the pass inline. *)
      Alcotest.(check bool) "reclaimed inline" true
        (Reclaimer.reclaimed_values reclaimer > 0))

(* ---- Tcq ---- *)

let make_tcq ?(limit = 8) e =
  let d = Model.create e Spec.samsung_980_pro in
  let u = Io_uring.create e d ~queue_depth:64 ~cost:Cost.default in
  Tcq.create u ~limit ~cost:Cost.default

let read_entry_stub fired =
  { Io_uring.dir = Model.Read; size = 512; action = (fun () -> incr fired) }

let test_tcq_single_reader () =
  in_sim (fun e ->
      let tcq = make_tcq e in
      let fired = ref 0 in
      Tcq.read tcq (read_entry_stub fired);
      Alcotest.(check int) "completed" 1 !fired;
      Alcotest.(check int) "one batch" 1 (Tcq.batches tcq);
      Alcotest.(check int) "one request" 1 (Tcq.requests tcq))

let test_tcq_combines_concurrent_readers () =
  let e = Engine.create () in
  let tcq = make_tcq ~limit:64 e in
  let fired = ref 0 in
  let n = 16 in
  for _ = 1 to n do
    Engine.spawn e (fun () -> Tcq.read tcq (read_entry_stub fired))
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "all served" n !fired;
  Alcotest.(check int) "requests" n (Tcq.requests tcq);
  (* Concurrency means far fewer batches than requests. *)
  Alcotest.(check bool) "combined" true (Tcq.batches tcq < n / 2)

let test_tcq_respects_limit () =
  let e = Engine.create () in
  let tcq = make_tcq ~limit:4 e in
  let fired = ref 0 in
  for _ = 1 to 16 do
    Engine.spawn e (fun () -> Tcq.read tcq (read_entry_stub fired))
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "all served" 16 !fired;
  Alcotest.(check bool) "at least req/limit batches" true
    (Tcq.batches tcq >= 4)

let test_tcq_read_many () =
  in_sim (fun e ->
      let tcq = make_tcq ~limit:64 e in
      let fired = ref 0 in
      Tcq.read_many tcq (List.init 10 (fun _ -> read_entry_stub fired));
      Alcotest.(check int) "all completed" 10 !fired)

let test_tcq_sequential_readers_small_batches () =
  (* With no concurrency, each read is its own batch: low latency mode. *)
  in_sim (fun e ->
      let tcq = make_tcq ~limit:64 e in
      let fired = ref 0 in
      for _ = 1 to 5 do
        Tcq.read tcq (read_entry_stub fired)
      done;
      Alcotest.(check int) "five batches" 5 (Tcq.batches tcq))

(* ---- Ta_batcher ---- *)

let make_ta ?(limit = 8) ?(timeout = 100e-6) e =
  let d = Model.create e Spec.samsung_980_pro in
  let u = Io_uring.create e d ~queue_depth:64 ~cost:Cost.default in
  let ta = Ta_batcher.create e u ~limit ~timeout ~cost:Cost.default in
  Ta_batcher.start ta;
  ta

let test_ta_waits_for_timeout () =
  let e = Engine.create () in
  let ta = make_ta ~timeout:100e-6 e in
  let fired = ref 0 in
  let finished_at = ref nan in
  Engine.spawn e (fun () ->
      Ta_batcher.read ta (read_entry_stub fired);
      finished_at := Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check int) "completed" 1 !fired;
  (* Single read must have waited out the 100us timeout before submit. *)
  Alcotest.(check bool) "timeout added" true (!finished_at >= 100e-6)

let test_ta_full_batch_submits_early () =
  let e = Engine.create () in
  let ta = make_ta ~limit:4 ~timeout:1.0 e in
  let fired = ref 0 in
  let finished = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn e (fun () ->
        Ta_batcher.read ta (read_entry_stub fired);
        incr finished)
  done;
  let t = Engine.run ~until:0.5 e in
  ignore t;
  Alcotest.(check int) "all done well before the 1s timeout" 4 !finished

let test_ta_batches_accumulate () =
  let e = Engine.create () in
  let ta = make_ta ~limit:64 ~timeout:50e-6 e in
  let fired = ref 0 in
  for _ = 1 to 10 do
    Engine.spawn e (fun () -> Ta_batcher.read ta (read_entry_stub fired))
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "served" 10 !fired;
  Alcotest.(check bool) "few batches" true (Ta_batcher.batches ta <= 2)

let () =
  Alcotest.run "core-units"
    [
      ( "location",
        [
          case "roundtrips" test_location_roundtrips;
          case "out of range" test_location_out_of_range;
          case "set dirty" test_location_set_dirty;
          case "same_slot" test_location_same_slot_ignores_gen;
          prop_location_roundtrip;
        ] );
      ( "hsit",
        [
          case "alloc/free" test_hsit_alloc_free;
          case "full" test_hsit_full;
          case "write/read" test_hsit_write_read_primary;
          case "cas semantics" test_hsit_update_cas_semantics;
          case "durable" test_hsit_durable_after_write;
          case "cas race regression" test_hsit_cas_race_lost_update;
          case "svc pointer" test_hsit_svc_pointer;
          case "svc not persisted" test_hsit_svc_not_persisted;
          case "flush on read" test_hsit_flush_on_read;
          case "rebuild free list" test_hsit_rebuild_free_list;
        ] );
      ( "pwb",
        [
          case "append/read" test_pwb_append_read;
          case "monotonic voffs" test_pwb_monotonic_voffs;
          case "utilization" test_pwb_utilization_and_advance;
          case "wraparound" test_pwb_wraparound;
          case "blocks when full" test_pwb_blocks_when_full_until_advance;
          case "fold skips pads" test_pwb_fold_records_skips_pads;
          case "durable coupling" test_pwb_read_durable_coupling;
          case "oversized rejected" test_pwb_too_large_value_rejected;
          prop_pwb_ring_model;
        ] );
      ( "epoch",
        [
          case "basic" test_epoch_basic_reclamation;
          case "pinned blocks" test_epoch_pinned_blocks_advance;
          case "drain" test_epoch_drain;
          case "reset discards" test_epoch_reset_discards;
          case "double pin" test_epoch_double_pin_rejected;
          case "exception safe" test_epoch_with_pinned_exception_safe;
        ] );
      ( "value-storage",
        [
          case "write/read chunk" test_vs_write_read_chunk;
          case "validity bitmap" test_vs_validity_bitmap;
          case "stale gen" test_vs_stale_gen_rejected;
          case "exhaustion blocks" test_vs_chunk_exhaustion_blocks;
          case "gc compacts" test_vs_gc_compacts;
          case "run entry coalesces" test_vs_run_entry_coalesces;
          case "recover" test_vs_recover_rebuilds;
          prop_vs_live_accounting;
        ] );
      ( "reclaimer",
        [
          case "migrates live values" test_reclaimer_migrates_live_values;
          case "skips superseded" test_reclaimer_skips_superseded;
          case "watermark trigger" test_reclaimer_trigger_on_watermark;
          case "sync mode" test_reclaimer_sync_mode_inline;
        ] );
      ( "tcq",
        [
          case "single reader" test_tcq_single_reader;
          case "combines readers" test_tcq_combines_concurrent_readers;
          case "limit" test_tcq_respects_limit;
          case "read_many" test_tcq_read_many;
          case "sequential small batches" test_tcq_sequential_readers_small_batches;
        ] );
      ( "ta",
        [
          case "timeout" test_ta_waits_for_timeout;
          case "full batch early" test_ta_full_batch_submits_early;
          case "accumulates" test_ta_batches_accumulate;
        ] );
    ]
