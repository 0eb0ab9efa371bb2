open Prism_sim
open Prism_device

let line_size = 64

type t = {
  volatile : Bytes.t;
  durable : Bytes.t;
  dirty : Bytes.t;  (* one bit per line: written since last flushed *)
  mutable ndirty : int;
  device : Model.t;
  cost : Cost.t;
  mutable allocated : int;
  mutable persists : int;
  mutable on_persist : (int -> unit) option;
}

let create engine ?(cost = Cost.default) ~spec ~size () =
  if size <= 0 then invalid_arg "Nvm.create: size <= 0";
  {
    volatile = Bytes.make size '\000';
    durable = Bytes.make size '\000';
    dirty = Bytes.make ((((size + line_size - 1) / line_size) + 7) / 8) '\000';
    ndirty = 0;
    device = Model.create engine spec;
    cost;
    allocated = 0;
    persists = 0;
    on_persist = None;
  }

let size t = Bytes.length t.volatile

let allocated t = t.allocated

let note_alloc t n = t.allocated <- t.allocated + n

let check t ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length t.volatile then
    invalid_arg
      (Printf.sprintf "Nvm: range [%d, %d) outside region of %d bytes" off
         (off + len) (Bytes.length t.volatile))

let mark_dirty t ~off ~len =
  if len > 0 then
    for line = off / line_size to (off + len - 1) / line_size do
      let i = line lsr 3 and bit = 1 lsl (line land 7) in
      let b = Bytes.get_uint8 t.dirty i in
      if b land bit = 0 then begin
        Bytes.set_uint8 t.dirty i (b lor bit);
        t.ndirty <- t.ndirty + 1
      end
    done

(* Clears the line's dirty bit; true when it was set. *)
let clean_line t line =
  let i = line lsr 3 and bit = 1 lsl (line land 7) in
  let b = Bytes.get_uint8 t.dirty i in
  if b land bit = 0 then false
  else begin
    Bytes.set_uint8 t.dirty i (b land lnot bit);
    t.ndirty <- t.ndirty - 1;
    true
  end

let read t ~off ~len =
  check t ~off ~len;
  Model.access t.device Model.Read ~size:len;
  Bytes.sub t.volatile off len

let write t ~off src =
  let len = Bytes.length src in
  check t ~off ~len;
  Model.access t.device Model.Write ~size:len;
  Bytes.blit src 0 t.volatile off len;
  mark_dirty t ~off ~len

let flush_range t ~off ~len =
  if len > 0 then
    for line = off / line_size to (off + len - 1) / line_size do
      if clean_line t line then begin
        let start = line * line_size in
        let stop = min (start + line_size) (Bytes.length t.volatile) in
        Bytes.blit t.volatile start t.durable start (stop - start)
      end
    done

let persist t ~off ~len =
  check t ~off ~len;
  let lines = if len = 0 then 0 else ((off + len - 1) / line_size) - (off / line_size) + 1 in
  Engine.delay ((float_of_int lines *. t.cost.Cost.flush_line) +. t.cost.Cost.fence);
  flush_range t ~off ~len;
  t.persists <- t.persists + 1;
  match t.on_persist with Some f -> f t.persists | None -> ()

let write_persist t ~off src =
  write t ~off src;
  persist t ~off ~len:(Bytes.length src)

let get_int64 t off =
  check t ~off ~len:8;
  Model.access t.device Model.Read ~size:8;
  Bytes.get_int64_le t.volatile off

let set_int64 t off v ~persist:do_persist =
  check t ~off ~len:8;
  Model.access t.device Model.Write ~size:8;
  Bytes.set_int64_le t.volatile off v;
  mark_dirty t ~off ~len:8;
  if do_persist then persist t ~off ~len:8

let atomic_rmw t off ~f =
  check t ~off ~len:8;
  (* Charge first; the RMW itself is a single instant with no yields, so
     the compare sees the word as it is when the swap lands. *)
  Model.access t.device Model.Write ~size:8;
  let w = Bytes.get_int64_le t.volatile off in
  (match f w with
  | Some w' ->
      Bytes.set_int64_le t.volatile off w';
      mark_dirty t ~off ~len:8
  | None -> ());
  w

let crash t =
  Bytes.blit t.durable 0 t.volatile 0 (Bytes.length t.durable);
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.ndirty <- 0

let read_durable t ~off ~len =
  check t ~off ~len;
  Bytes.sub t.durable off len

let restore t ~off src =
  let len = Bytes.length src in
  check t ~off ~len;
  Bytes.blit src 0 t.volatile off len;
  Bytes.blit src 0 t.durable off len;
  if len > 0 then
    for line = off / line_size to (off + len - 1) / line_size do
      ignore (clean_line t line)
    done

let dirty_lines t = t.ndirty

let persist_count t = t.persists

let set_persist_hook t f = t.on_persist <- f

let device t = t.device

let register_stats t stats ~prefix =
  Stats.gauge_int stats (prefix ^ ".persists") (fun () -> t.persists);
  Stats.gauge_int stats (prefix ^ ".dirty_lines") (fun () -> t.ndirty);
  Stats.gauge_int stats (prefix ^ ".allocated") (fun () -> t.allocated);
  Model.register_stats t.device stats ~prefix
