(* Work-stealing fleet over OCaml 5 domains.

   Jobs here are coarse — whole deterministic simulations, milliseconds
   to seconds each — so the scheduler is deliberately simple: one pool
   lock guarding per-worker deques plus every future's state. At this
   granularity the lock is touched a handful of times per job and can
   never become the bottleneck, and a single lock makes the state
   machine easy to reason about (every [st] transition happens under
   it, so workers, stealers and a claiming coordinator can never run
   the same job twice).

   Determinism does not come from the scheduler at all: results land in
   slots indexed by job id ([map]) and failures re-raise smallest-id
   first, so merged output is a pure function of the job function —
   byte-identical for any worker count or completion interleaving. *)

type 'a state =
  | Pending of (unit -> 'a)
  | Running
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  mutable st : 'a state; (* guarded by [fm] *)
  fm : Mutex.t; (* the owning pool's lock *)
  fsettled : Condition.t; (* the owning pool's settled condvar *)
}

type task = Task : 'a future -> task

type pool = {
  lanes : int; (* calling domain + workers; 1 = serial *)
  m : Mutex.t;
  work : Condition.t; (* new task enqueued, or shutdown *)
  settled : Condition.t; (* some future reached Done/Failed *)
  deques : task Queue.t array; (* one per worker domain *)
  mutable rr : int; (* round-robin placement cursor *)
  mutable live : bool;
  mutable domains : unit Domain.t array;
}

let max_jobs = 64

let default_jobs () = Domain.recommended_domain_count ()

let jobs_of_flag n = if n = 0 then default_jobs () else max 1 n

let jobs pool = pool.lanes

(* Run a job body to a settled state. Never called under the lock. *)
let settle f =
  match f () with
  | v -> Done v
  | exception e -> Failed (e, Printexc.get_raw_backtrace ())

(* Execute a task if it is still unclaimed. [flush_gc] is set on worker
   lanes: OCaml 5 minor-GC counters are per-domain and a joined domain's
   words are never folded into the coordinator's counter, so each worker
   pushes its allocation delta into the process-wide accumulator after
   every job (collections are left to [Gc.quick_stat], which absorbs
   terminated domains on its own — flushing them too would double
   count). *)
let execute ~flush_gc (Task fu) =
  Mutex.lock fu.fm;
  match fu.st with
  | Pending f ->
      fu.st <- Running;
      Mutex.unlock fu.fm;
      let w0 = if flush_gc then Gc.minor_words () else 0.0 in
      let st = settle f in
      if flush_gc then
        Prism_sim.Stats.note_foreign_gc
          ~minor_words:(int_of_float (Gc.minor_words () -. w0))
          ~minor_collections:0 ~major_collections:0;
      Mutex.lock fu.fm;
      fu.st <- st;
      Condition.broadcast fu.fsettled;
      Mutex.unlock fu.fm
  | _ ->
      (* Claimed from the deque by an awaiting coordinator (or already
         settled): nothing to do — deque entries are droppable because
         claiming goes through [st], never through the deque. *)
      Mutex.unlock fu.fm

(* Take a task under the lock: own deque first, then sweep the others
   (the steal). Coarse jobs make the choice of steal end cosmetic. *)
let find_task pool wid =
  let nw = Array.length pool.deques in
  let rec scan k =
    if k >= nw then None
    else begin
      let q = pool.deques.((wid + k) mod nw) in
      if Queue.is_empty q then scan (k + 1) else Some (Queue.pop q)
    end
  in
  scan 0

let worker pool wid () =
  let rec loop () =
    Mutex.lock pool.m;
    match find_task pool wid with
    | Some t ->
        Mutex.unlock pool.m;
        execute ~flush_gc:true t;
        loop ()
    | None ->
        if pool.live then begin
          Condition.wait pool.work pool.m;
          Mutex.unlock pool.m;
          loop ()
        end
        else Mutex.unlock pool.m
        (* drained and shut down: exit *)
  in
  loop ()

let create ~jobs =
  let lanes = if jobs < 1 then 1 else if jobs > max_jobs then max_jobs else jobs in
  let pool =
    {
      lanes;
      m = Mutex.create ();
      work = Condition.create ();
      settled = Condition.create ();
      deques = Array.init (lanes - 1) (fun _ -> Queue.create ());
      rr = 0;
      live = true;
      domains = [||];
    }
  in
  if lanes > 1 then
    pool.domains <- Array.init (lanes - 1) (fun wid -> Domain.spawn (worker pool wid));
  pool

let submit pool f =
  if pool.lanes <= 1 then
    (* Serial pool: run inline — the exact code path a serial caller
       would execute, in the exact order of submission. *)
    { st = settle f; fm = pool.m; fsettled = pool.settled }
  else begin
    let fu = { st = Pending f; fm = pool.m; fsettled = pool.settled } in
    Mutex.lock pool.m;
    let nw = Array.length pool.deques in
    Queue.add (Task fu) pool.deques.(pool.rr mod nw);
    pool.rr <- pool.rr + 1;
    Condition.signal pool.work;
    Mutex.unlock pool.m;
    fu
  end

let await_result pool fu =
  Mutex.lock fu.fm;
  let rec loop () =
    match fu.st with
    | Done v -> Ok v
    | Failed (e, bt) -> Error (e, bt)
    | Pending f ->
        (* Claim and help rather than block: the coordinator awaiting in
           job-id order keeps making progress even when every worker is
           busy, and the claim-through-[st] protocol means the deque
           entry left behind is inert. *)
        fu.st <- Running;
        Mutex.unlock fu.fm;
        let st = settle f in
        Mutex.lock fu.fm;
        fu.st <- st;
        Condition.broadcast fu.fsettled;
        loop ()
    | Running ->
        Condition.wait fu.fsettled fu.fm;
        loop ()
  in
  let r = loop () in
  Mutex.unlock fu.fm;
  ignore pool;
  r

let await pool fu =
  match await_result pool fu with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let peek fu =
  Mutex.lock fu.fm;
  let r =
    match fu.st with
    | Done v -> Some (Ok v)
    | Failed (e, bt) -> Some (Error (e, bt))
    | Pending _ | Running -> None
  in
  Mutex.unlock fu.fm;
  r

let map pool n f =
  if n <= 0 then [||]
  else if pool.lanes <= 1 || n = 1 then begin
    (* Serial: inline, ascending — byte-for-byte the serial behaviour. *)
    let r0 = f 0 in
    let r = Array.make n r0 in
    for i = 1 to n - 1 do
      r.(i) <- f i
    done;
    r
  end
  else begin
    let rec submit_all i acc =
      if i >= n then List.rev acc
      else submit_all (i + 1) (submit pool (fun () -> f i) :: acc)
    in
    let futs = Array.of_list (submit_all 0 []) in
    (* Collect in job-id order (helping inline when a job is unclaimed),
       then merge: results land in their id's slot, and if anything
       failed the smallest failing id's exception is re-raised — both
       independent of completion interleaving. *)
    let results = Array.map (fun fu -> await_result pool fu) futs in
    Array.iter
      (function
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt
        | Ok _ -> ())
      results;
    Array.map (function Ok v -> v | Error _ -> assert false) results
  end

let shutdown pool =
  if pool.lanes > 1 then begin
    Mutex.lock pool.m;
    if pool.live then begin
      pool.live <- false;
      Condition.broadcast pool.work;
      Mutex.unlock pool.m;
      (* Workers drain their deques before exiting, so outstanding
         submitted work still completes. *)
      Array.iter Domain.join pool.domains;
      pool.domains <- [||]
    end
    else Mutex.unlock pool.m
  end

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
