(** Log-structured Value Storage on one SSD (§5.1, §5.2).

    Space is divided into fixed-size chunks. A chunk holds a sequence of
    records [backward ptr (8) | length (4) | reserved (4) | payload],
    16-byte aligned, terminated by a -1 sentinel — exactly the per-value
    metadata the paper stores for recovery. Each chunk has a DRAM validity
    bitmap (rebuilt on recovery from HSIT coupling, §5.5) and DRAM slot
    metadata mapping slot ordinals to byte ranges.

    Chunks carry a generation number bumped on every recycle. All slot
    accessors take the generation the caller obtained from the HSIT
    location; a stale generation makes invalidations no-ops and lookups
    report "gone", letting readers retry instead of touching a recycled
    chunk. This removes any need to delay chunk reuse behind epochs (and
    with it a reclamation/allocation deadlock cycle).

    Writes happen at chunk granularity through the device's io_uring, so
    the SSD sees large sequential IO; reads are per-slot entries coalesced
    by the read path (TCQ or TA batcher). Garbage collection greedily
    picks the chunks with the fewest live slots and relocates survivors
    (§5.2); it runs as a background process, woken when free chunks drop
    below the watermark. *)

type t

val create :
  Prism_sim.Engine.t ->
  id:int ->
  size:int ->
  chunk_size:int ->
  queue_depth:int ->
  spec:Prism_device.Spec.t ->
  cost:Prism_device.Cost.t ->
  gc_watermark:float ->
  t

val id : t -> int

val nchunks : t -> int

val free_chunks : t -> int

val chunk_size : t -> int

val uring : t -> Prism_device.Io_uring.t

(** True when this Value Storage has no in-flight async IO — used by the
    reclaimer to pick an idle target (§5.2). *)
val is_idle : t -> bool

(** Device-level statistics for write-amplification accounting. *)
val device : t -> Prism_device.Model.t

(** Backing content image — exposed so the checker can install a
    write-completion hook ({!Prism_media.Ssd_image.set_write_hook}). *)
val image : t -> Prism_media.Ssd_image.t

(** Number of garbage-collection passes completed. *)
val gc_runs : t -> int

(** Current generation of a chunk. *)
val chunk_gen : t -> chunk:int -> int

(** [write_chunk t values] allocates a free chunk (blocking while none is
    available; [gc:true] may dip into the reserve), assembles the records,
    and submits one asynchronous chunk-sized write. Returns [(chunk, gen,
    completion)] where slot [i] corresponds to [List.nth values i]. Slots
    start invalid; the caller marks them valid once it has repointed HSIT
    (§5.2). Values must fit in one chunk. *)
val write_chunk :
  ?gc:bool ->
  ?io_counter:Prism_sim.Metric.Counter.t ->
  t ->
  (int * bytes) list ->
  int * int * float Prism_sim.Sync.Ivar.t

(** [seal t ~chunk] marks a freshly written chunk as fully published
    (HSIT pointers and validity bits in place). Garbage collection only
    considers sealed chunks, so an in-publication chunk can never be
    recycled out from under its writer. *)
val seal : t -> chunk:int -> unit

(** Maximum payload bytes a single chunk can hold for [n] values. *)
val chunk_payload_capacity : t -> values:int -> int

(** [slot_backptr t ~gen ~chunk ~slot] is the embedded backward pointer,
    or [None] when the generation is stale or the slot unknown. *)
val slot_backptr : t -> gen:int -> chunk:int -> slot:int -> int option

(** [read_entry t ~gen ~chunk ~slot ~cell] builds an io_uring entry that,
    at completion, deposits the slot's payload into [cell] — but only if
    the chunk generation still matches at completion time; otherwise
    [cell] stays [None] and the caller retries. Returns [None] when the
    generation is already stale. *)
val read_entry :
  t ->
  gen:int ->
  chunk:int ->
  slot:int ->
  cell:bytes option ref ->
  Prism_device.Io_uring.entry option

(** [read_run_entry t ~gen ~chunk ~slots] builds ONE io_uring entry whose
    single IO covers every listed slot of the chunk (used by the scan path
    after SVC reorganization has made a key range contiguous, §4.4). At
    completion each slot's payload lands in its cell — unless the chunk
    generation went stale, in which case the cells stay [None]. Returns
    [None] when the generation is already stale or [slots] is empty. *)
val read_run_entry :
  t ->
  gen:int ->
  chunk:int ->
  slots:(int * bytes option ref) list ->
  Prism_device.Io_uring.entry option

(** [read_slot_sync t ~gen ~chunk ~slot] is a single-slot synchronous read
    (tests); [None] when the generation went stale. *)
val read_slot_sync : t -> gen:int -> chunk:int -> slot:int -> bytes option

(** Validity bitmap operations (§5.1). Stale generations are no-ops. *)
val set_valid : t -> gen:int -> chunk:int -> slot:int -> bool -> unit

val is_valid : t -> gen:int -> chunk:int -> slot:int -> bool

val live_slots : t -> chunk:int -> int

(** Live bytes of a chunk as garbage collection weighs it: the padded
    record size (header plus 16-byte-aligned payload) summed over valid
    slots. Kept incrementally, so reading it is O(1). *)
val chunk_live_bytes : t -> chunk:int -> int

(** Every sealed chunk as [(chunk_live_bytes, chunk)], least live first
    (ties by chunk index): the order garbage collection takes victims
    in. *)
val gc_candidates : t -> (int * int) list

(** [iter_valid t f] visits every currently valid slot with its backward
    pointer (residency audits in tests). *)
val iter_valid :
  t -> (gen:int -> chunk:int -> slot:int -> hsit_id:int -> unit) -> unit

(** [start_gc t ~relocate] spawns the background GC process. [relocate
    ~hsit_id ~from_ ~to_] must atomically repoint the HSIT entry and
    return whether it succeeded (the CAS may lose to a concurrent
    update). *)
val start_gc :
  t ->
  relocate:(hsit_id:int -> from_:Location.t -> to_:Location.t -> bool) ->
  unit

(** Ask GC to run if the free-chunk watermark is breached. *)
val poke_gc : t -> unit

(** Recovery (§5.5): rescan every chunk's records from the durable image,
    rebuild slot metadata (generations restart at 0), and set validity
    from [couple] (does the durable HSIT point back at this slot,
    generation ignored?). Chunks with no live slot return to the free
    list. Charges device time for the metadata scan. *)
val recover : t -> couple:(hsit_id:int -> Location.t -> bool) -> unit

(** Total payload bytes currently marked valid (for tests). *)
val live_bytes : t -> int

(** [register_stats t stats ~prefix] publishes the GC-run counter (by
    reference), occupancy gauges, and the device's and ring's metrics
    under [<prefix>.*]. *)
val register_stats : t -> Prism_sim.Stats.t -> prefix:string -> unit
